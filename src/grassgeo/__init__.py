"""Geodesics, stationary angles, and cut/conjugate loci on complex
Grassmannians and their noncompact duals."""

from .errors import (ChartEscapeError, ConsistencyError, DomainError, GeometryError,
                     NotInChartError, NumericalFailure)
from .kernel import SvdResult, fd_jacobian, herm_eig, svd
from .manifold import (AngleSpectrum, ChartPoint, Plane, PluckerVector, TangentCoord,
                       base_plane, cayley_distance, chart_to_plane, cos_cayley,
                       cos_cayley_planes, exp0, geodesic_chart, geodesic_distance0,
                       geodesic_group, geodesic_residual, haar_random_chart,
                       haar_random_plane, hat_basis, log0, overlap, plane_to_chart,
                       plucker, plucker_pairing, stationary_angles_svd,
                       stationary_angles_w, tan_pole_distance)
from .loci import (CartanDirection, ConjugateClass, ConjugateParam, JacobianProbe,
                   LocusVerdict, SchubertSymbol, cartan_to_tangent, cayley_cut_check,
                   classify_conjugate, conjugate_test_jacobian, coverage_limit,
                   cut_locus_symbol, cut_locus_test, cut_time, flag_order,
                   jacobian_spectrum, schubert_generic_sample, schubert_membership,
                   tangent_conjugate_params, v_pl_symbol)
from .verify import (DEFAULT_TOLERANCES, REQUIRED_PROPERTIES, SuiteConfig, SuiteReport,
                     run_suite, scan_conjugate, write_scan_csv)

__version__ = "0.1.0"

__all__ = [
    "AngleSpectrum", "CartanDirection", "ChartEscapeError", "ChartPoint",
    "ConjugateClass", "ConjugateParam", "ConsistencyError", "DEFAULT_TOLERANCES",
    "DomainError", "GeometryError", "JacobianProbe", "LocusVerdict",
    "NotInChartError", "NumericalFailure", "Plane", "PluckerVector",
    "REQUIRED_PROPERTIES", "SchubertSymbol", "SuiteConfig", "SuiteReport",
    "SvdResult", "TangentCoord", "base_plane", "cartan_to_tangent",
    "cayley_cut_check", "cayley_distance", "chart_to_plane", "classify_conjugate",
    "conjugate_test_jacobian", "cos_cayley", "cos_cayley_planes", "coverage_limit",
    "cut_locus_symbol", "cut_locus_test", "cut_time", "exp0", "fd_jacobian",
    "flag_order", "geodesic_chart", "geodesic_distance0", "geodesic_group",
    "geodesic_residual", "haar_random_chart", "haar_random_plane", "hat_basis",
    "herm_eig", "jacobian_spectrum", "log0", "overlap", "plane_to_chart", "plucker",
    "plucker_pairing", "run_suite", "scan_conjugate", "schubert_generic_sample",
    "schubert_membership", "stationary_angles_svd", "stationary_angles_w", "svd",
    "tan_pole_distance", "tangent_conjugate_params", "v_pl_symbol", "write_scan_csv",
]
