"""Geodesics, stationary angles, and cut/conjugate loci on complex
Grassmannians and their noncompact duals.

Names load on first use (PEP 562): `import grassgeo` runs no submodule, and
a first `grassgeo.exp0` imports only `errors`, `kernel` and `manifold`.  Each
name is read from its home submodule on every access, never cached here."""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ChartEscapeError", "ConsistencyError", "DomainError", "GeometryError",
               "NotInChartError", "NumericalFailure"),
    "kernel": ("SvdResult", "fd_jacobian", "herm_eig", "svd"),
    "manifold": ("AngleSpectrum", "ChartPoint", "Plane", "PluckerVector", "TangentCoord",
                 "base_plane", "cayley_distance", "chart_to_plane", "cos_cayley",
                 "cos_cayley_planes", "exp0", "geodesic_chart", "geodesic_distance0",
                 "geodesic_group", "geodesic_residual", "haar_random_chart", "haar_random_plane",
                 "hat_basis", "log0", "overlap", "plane_to_chart", "plucker", "plucker_pairing",
                 "stationary_angles_svd", "stationary_angles_w", "tan_pole_distance"),
    "loci": ("CartanDirection", "ConjugateClass", "ConjugateParam", "JacobianProbe",
             "LocusVerdict", "SchubertSymbol", "cartan_to_tangent", "cayley_cut_check",
             "classify_conjugate", "conjugate_test_jacobian", "coverage_limit",
             "cut_locus_symbol", "cut_locus_test", "cut_time", "flag_order",
             "jacobian_spectrum", "schubert_generic_sample", "schubert_membership",
             "tangent_conjugate_params", "v_pl_symbol"),
    "verify": ("DEFAULT_TOLERANCES", "REQUIRED_PROPERTIES", "SuiteConfig", "SuiteReport",
               "run_suite", "scan_conjugate", "write_scan_csv"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    home = name if name in _EXPORTS else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own machinery, so that `-X importtime` lists the load
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    return module if home == name else getattr(module, name)


def __dir__():
    """The public names, the submodules and the module's dunders."""
    return sorted({*__all__, *_EXPORTS, *(name for name in globals() if name[:2] == "__")})
