import json

import numpy as np
import pytest

from grassgeo import cli, kernel, manifold as mf


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _mat(a):
    a = np.asarray(a, dtype=complex)
    return json.dumps({"rows": a.shape[0], "cols": a.shape[1],
                       "data": [[v.real, v.imag] for v in a.ravel()]})


def test_exp_log_roundtrip_through_files(tmp_path, capsys):
    b = np.array([[0.4 + 0.1j, -0.2], [0.05j, 0.3]])
    src = tmp_path / "b.json"
    src.write_text(_mat(b))

    code, out, _ = _run(capsys, "exp", f"@{src}", "--t", "0.8")
    assert code == 0
    mid = tmp_path / "z.json"
    mid.write_text(out)

    code, out, _ = _run(capsys, "log", f"@{mid}")
    assert code == 0
    got = json.loads(out)
    back = np.array([complex(re, im) for re, im in got["data"]]).reshape(2, 2)
    assert np.linalg.norm(back - 0.8 * b) < 1e-9


def test_overlap_value_schema(capsys):
    code, out, _ = _run(capsys, "overlap", _mat([[1j]]), _mat([[1.0]]))
    assert code == 0
    val = json.loads(out)["value"]
    assert val == pytest.approx([1.0, -1.0])


def test_bare_list_needs_shape_flags(capsys):
    code, out, _ = _run(capsys, "overlap", "[[0.0, 1.0]]", "[[1.0, 0.0]]",
                        "--n", "1", "--m", "1")
    assert code == 0
    code, _, err = _run(capsys, "overlap", "[[0.0, 1.0]]", "[[1.0, 0.0]]")
    assert code == 2
    assert "bad input" in err


def test_angle_routes_agree_via_cli(capsys):
    z = _mat([[0.3 + 0.5j, 0.1], [0.0, -0.4j]])
    zp = _mat([[0.7, 0.2j], [0.1, 0.6]])
    _, out_w, _ = _run(capsys, "angles", zp, z, "--route", "w")
    _, out_s, _ = _run(capsys, "angles", zp, z, "--route", "svd")
    aw = json.loads(out_w)["angles"]
    asvd = json.loads(out_s)["angles"]
    assert np.max(np.abs(np.array(aw) - np.array(asvd))) < 1e-9


def test_dist_reports_both_metrics(capsys):
    code, out, _ = _run(capsys, "dist", _mat([[1.0]]))
    assert code == 0
    got = json.loads(out)
    assert got["geodesic"] == pytest.approx(np.pi / 4, rel=1e-10)
    assert got["cayley"] == pytest.approx(np.pi / 4, rel=1e-10)
    code, out, _ = _run(capsys, "dist", _mat([[0.5]]), "--signature", "noncompact")
    assert json.loads(out) == {"geodesic": pytest.approx(np.arctanh(0.5), rel=1e-10)}


def test_exit_codes(capsys):
    code, _, err = _run(capsys, "exp", _mat([[np.pi / 2]]))
    assert code == 3 and "error" in err
    code, _, err = _run(capsys, "log", "not json")
    assert code == 2
    code, _, err = _run(capsys, "exp", _mat([[1.5]]), "--signature", "noncompact")
    assert code == 0


def test_noncompact_chart_violation_is_exit_3(capsys):
    code, _, err = _run(capsys, "log", _mat([[1.5]]), "--signature", "noncompact")
    assert code == 3


def test_plucker_uses_one_based_tuples(capsys):
    a = 0.7 + 0.2j
    code, out, _ = _run(capsys, "plucker", _mat([[a, 0.0], [0.0, 0.0]]))
    assert code == 0
    got = json.loads(out)
    assert got["indices"][0] == [1, 2]
    assert got["coords"][0] == pytest.approx([1.0, 0.0])
    k = got["indices"].index([2, 3])
    assert got["coords"][k] == pytest.approx([-a.real, -a.imag])


def test_geodesic_group_route_shape(capsys):
    b = _mat([[0.8, 0.0], [0.0, 0.6]])
    code, out, _ = _run(capsys, "geodesic", b, "--t", str(np.pi / 1.6),
                        "--route", "group")
    assert code == 0
    got = json.loads(out)
    assert (got["rows"], got["cols"]) == (2, 4)


def test_cut_test_on_constructed_plane(capsys):
    plane = _mat([[1, 0, 0.3, 0.1j], [0, 0, 1.0, 0.5]])
    code, out, _ = _run(capsys, "cut-test", plane)
    assert code == 0
    got = json.loads(out)
    assert got["in_locus"] and got["cayley"] and got["schubert"]
    assert got["pairing_abs"] < 1e-10


def test_schubert_sample_then_membership(tmp_path, capsys):
    code, out, _ = _run(capsys, "schubert", "--symbol", "1,2", "--m", "2",
                        "--sample", "--seed", "5", "--flag", "chart")
    assert code == 0
    plane = tmp_path / "plane.json"
    plane.write_text(out)
    code, out, _ = _run(capsys, "schubert", f"@{plane}", "--symbol", "1,2",
                        "--m", "2", "--flag", "chart")
    assert code == 0
    assert json.loads(out) == {"member": True}


def test_schubert_usage_errors(capsys):
    code, _, err = _run(capsys, "schubert", "--symbol", "1,2")
    assert code == 2
    code, _, err = _run(capsys, "schubert", "--symbol", "2,1", "--m", "2",
                        "--sample")
    assert code == 2


def test_conj_params_contains_worked_radius(capsys):
    code, out, _ = _run(capsys, "conj-params", "--h", "0.8,0.6", "--n", "2", "--m", "2")
    assert code == 0
    got = json.loads(out)
    times = [p["t"] for p in got["params"]]
    assert any(abs(t - 2.243994752564138) < 1e-9 for t in times)
    assert got["cut_time"] == pytest.approx(np.pi / 1.6, rel=1e-12)


def test_conj_scan_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "scan.csv"
    code, out, _ = _run(capsys, "conj-scan", "--h", "0.8,0.6", "--n", "2", "--m", "2",
                        "--t0", "0.5", "--t1", "1.5", "--steps", "6",
                        "--out", str(out_csv))
    assert code == 0
    assert json.loads(out)["rows"] == 6
    header = out_csv.read_text().splitlines()[0]
    assert header == "t,family,p,q,lambda,min_jac_sv,max_angle,second_angle,overlap_abs,class"


def test_verify_subcommand_exit_and_stability(capsys):
    # with --json -, stdout carries the JSON report and stderr the text report
    code, out1, err1 = _run(capsys, "verify", "--seed", "42", "--trials", "3",
                            "--no-timing", "--json", "-")
    assert code == 0
    assert "all properties passed" in err1
    code, out2, _ = _run(capsys, "verify", "--seed", "42", "--trials", "3",
                         "--no-timing", "--json", "-")
    assert out1 == out2


def test_verify_json_to_stdout_is_parseable(capsys):
    code, out, err = _run(capsys, "verify", "--seed", "42", "--trials", "5",
                          "--no-timing", "--json", "-")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert "all properties passed" in err


def test_wrongly_typed_matrix_entries_are_bad_input(capsys):
    code, _, err = _run(capsys, "log", '{"rows":1,"cols":1,"data":[["a",0]]}')
    assert code == 2 and "bad input" in err
    # an empty matrix has no angles to report
    code, _, err = _run(capsys, "angles", "[]", "[]", "--n", "0", "--m", "2")
    assert code == 2 and "bad input" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_minor_pairing_is_a_geometric_error(capsys):
    # the Gram determinants of this plane overflow, so the pairing route reads
    # nan; the routes then disagree and the CLI reports a geometric error
    plane = [[1.5, 1.5], [1.5, -0.7], [1e300, 0.0], [1e300, -0.7], [0.3, 0.0], [1.5, 0.0]]
    code, _, err = _run(capsys, "cut-test", json.dumps({"rows": 2, "cols": 3, "data": plane}))
    assert code == 3 and "disagree" in err


def test_noncompact_group_geodesic_far_out_stays_a_plane(capsys):
    # the unscaled (cosh | sinh) rows grew apart by e^22 at t = 30 and failed
    # the plane's rank test; the rescaled (1 | tanh) rows do not
    b = '{"rows":2,"cols":2,"data":[[1.0,0.3],[0.5,0],[0.2,0.1],[0.9,0]]}'
    code, out, _ = _run(capsys, "geodesic", b, "--t", "30", "--route", "group",
                        "--signature", "noncompact")
    assert code == 0
    # tanh(30 h_1) rounds to 1, so exp0 refuses 30 B as off the ball; the same
    # chart formula is evaluated directly
    res = kernel.svd(30.0 * cli._parse_matrix(b))
    z = res.apply(np.tanh(res.s))
    chart = np.linalg.qr(mf.hat_basis(mf.ChartPoint(z)).T)[0]
    group = np.linalg.qr(cli._parse_matrix(out).T)[0]
    # the largest stationary angle from its sine, which arccos of the
    # cosines cannot resolve below ~1e-8
    sin_max = np.linalg.norm(group - chart @ (chart.conj().T @ group), 2)
    assert np.arcsin(sin_max) < 1e-12


def test_noncompact_chart_saturation_points_to_the_group_route(capsys):
    # at t = 13.5 tanh(t s_1) is 3 ulps below 1 and the chart image is
    # representable; at t = 14 it is 1 ulp below, and the SVD of the image
    # used to read a singular value of 1 and blame the input
    b = '{"rows":2,"cols":2,"data":[[1.0,0.3],[0.5,0],[0.2,0.1],[0.9,0]]}'
    code, out, _ = _run(capsys, "geodesic", b, "--t", "13.5", "--signature", "noncompact")
    assert code == 0
    assert np.ravel(json.loads(out)["data"]) == pytest.approx(
        [0.9507516173321541, 0.2741823542824479, 0.14285486660377422, 0.02208626183439653,
         -0.14359763314222734, -0.01658316198512245, 0.9894210411516728, -0.012270145463553615],
        rel=1e-12)
    code, _, err = _run(capsys, "geodesic", b, "--t", "14", "--signature", "noncompact")
    assert code == 3
    assert "saturates" in err and "geodesic_group" in err and "--route group" in err
    assert "below 1" not in err


# ------------------------------------------------------ exit-code contract

_EXTREME = (-0.0, 1e-300, 19.5, 1e300, float("inf"), float("nan"), -1.5, np.pi / 2)
_BAD_ENTRIES = ("a", None, [1.0], [1.0, 2.0, 3.0], 1.0, True, {}, [[0.0, 1.0]], ["1", "2"])
_BAD_TEXT = ("not json", "", "{", "[", "3", '"x"', "null", "NaN", "@/nonexistent/m.json",
             '{"rows": 1}', '{"rows": 1, "cols": 1}', '{"rows": "1", "cols": 1, "data": []}',
             '{"rows": 1.0, "cols": 1.0, "data": [[0.5, 0]]}',
             '{"rows": [1], "cols": 1, "data": [[0.5, 0]]}', "[[0.1, 0.2]]", "[]")
_BAD_WORDS = ("", "a", "-1", "1e400", "nan", "0,0", "0.3,0.8", "0.8,,0.6", "2,1", "1,2,3,4,5")


def _matrix(rng, rows, cols, scale=0.5) -> str:
    data = (scale * rng.standard_normal((rows * cols, 2))).tolist()
    return json.dumps({"rows": rows, "cols": cols, "data": data})


def _bad_matrix(rng, rows, cols) -> str:
    fault = rng.integers(4)
    if fault == 0:
        return str(rng.choice(_BAD_TEXT))
    obj = json.loads(_matrix(rng, rows, cols))
    if fault == 1:
        obj["data"][int(rng.integers(rows * cols))] = _BAD_ENTRIES[
            int(rng.integers(len(_BAD_ENTRIES)))]
    elif fault == 2:
        obj["rows"], obj["cols"] = (int(v) for v in rng.integers(-1, 4, size=2))
    else:
        obj["data"][int(rng.integers(rows * cols))][int(rng.integers(2))] = float(
            rng.choice(_EXTREME)) * float(rng.choice([1.0, 1e10]))
    return json.dumps(obj)


def _fuzz_argv(rng, tmp_path) -> list[str]:
    """A valid command line of a random subcommand, then one to three of its
    values replaced by malformed or extreme ones; each value carries its kind
    so that the fault fits it.  Values go in as --option=value so that ones
    such as -inf do not read as flags."""
    n, m = (int(v) for v in rng.integers(1, 4, size=2))
    r = min(n, m)
    h = ",".join(repr(float(v)) for v in np.sort(rng.uniform(0.1, 1.5, int(rng.integers(1, r + 1))))[::-1])
    cmd = str(rng.choice(["angles", "overlap", "dist", "exp", "log", "geodesic", "plucker",
                          "cut-test", "schubert", "conj-params", "conj-scan", "verify"]))
    # (option or None for a positional, kind, value)
    parts = [(None, "fixed", cmd)]
    if cmd in ("angles", "overlap", "dist", "exp", "log", "geodesic", "plucker"):
        parts += [(None, "matrix", (n, m))] * (2 if cmd in ("angles", "overlap") else 1)
        if cmd in ("exp", "geodesic"):
            parts.append(("--t", "float", repr(float(rng.uniform(0.1, 3.0)))))
        if rng.random() < 0.3:
            parts.append(("--signature", "fixed", "noncompact"))
    elif cmd == "cut-test":
        parts.append((None, "matrix", (n, n + m)))
    elif cmd == "schubert":
        symbol = ",".join(str(v) for v in np.sort(rng.integers(0, m + 1, n)))
        parts += [("--symbol", "word", symbol), ("--m", "int", str(m)),
                  ("--flag", "fixed", str(rng.choice(["standard", "perp", "chart"])))]
        if rng.random() < 0.5:
            parts += [("--sample", "flag", None), ("--seed", "int", str(int(rng.integers(5))))]
        else:
            parts.append((None, "matrix", (n, n + m)))
    elif cmd in ("conj-params", "conj-scan"):
        parts += [("--h", "word", h), ("--n", "int", str(n)), ("--m", "int", str(m)),
                  ("--lambda-max", "int", str(int(rng.integers(1, 3))))]
        if cmd == "conj-scan":
            parts += [("--t0", "float", "0.5"), ("--t1", "float", "3.0"),
                      ("--steps", "int", str(int(rng.integers(2, 6)))),
                      ("--out", "fixed", str(tmp_path / "scan.csv"))]
            if rng.random() < 0.3:
                parts.append(("--signature", "fixed", "noncompact"))
    else:
        parts += [("--seed", "int", str(int(rng.integers(5)))), ("--trials", "int", "1"),
                  ("--n", "int", str(n)), ("--m", "int", str(m)), ("--no-timing", "flag", None)]

    faulty = [i for i, (_, kind, _) in enumerate(parts) if kind in ("matrix", "float", "int", "word")]
    hits = set(rng.choice(faulty, size=min(len(faulty), int(rng.integers(0, 4))), replace=False))
    argv = []
    for i, (opt, kind, value) in enumerate(parts):
        if kind == "matrix":
            value = _bad_matrix(rng, *value) if i in hits else _matrix(rng, *value)
        elif i in hits:
            value = {"float": lambda: repr(float(rng.choice(_EXTREME)) * float(rng.choice([1.0, -3.0]))),
                     "int": lambda: str(int(rng.integers(-1, 2))),
                     "word": lambda: str(rng.choice(_BAD_WORDS))}[kind]()
        if opt is None:
            argv.append(value)
        else:
            argv.append(opt if value is None else f"{opt}={value}")
    return argv


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_contract_under_malformed_input(tmp_path, capsys):
    # seeded generation over malformed JSON, shapes and numbers: every
    # subcommand exits 0, 2 or 3 (1 is reserved for a failed verify) and
    # never lets an exception escape
    rng = np.random.default_rng(20261017)
    seen = set()
    for _ in range(400):
        argv = _fuzz_argv(rng, tmp_path)
        code, _, err = _run(capsys, *argv)
        allowed = {0, 1, 2, 3} if argv[0] == "verify" else {0, 2, 3}
        assert code in allowed, (argv, code, err)
        assert "Traceback" not in err
        seen.add((argv[0], code))
    # every subcommand got through to a result and was refused bad input
    commands = {cmd for cmd, _ in seen}
    assert len(commands) == 12
    assert {cmd for cmd, code in seen if code == 0} == commands
    assert {cmd for cmd, code in seen if code == 2} == commands
