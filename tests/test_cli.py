import json
import os
import pathlib
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from grassgeo import cli, kernel, manifold as mf, verify


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


def test_plucker_and_verify_refuse_a_minor_stack_over_the_cap(capsys, monkeypatch):
    det = kernel._lapack_det

    def guarded(a):
        # the chart and angle routes take determinants of stacks of one
        assert np.ndim(a) < 3 or np.shape(a)[0] < 1000, "the minor stack was built"
        return det(a)

    monkeypatch.setattr(kernel, "_lapack_det", guarded)
    code, out, err = _run(capsys, "plucker", _mat(np.zeros((12, 14))))
    assert (code, out) == (2, "") and "C(26, 12) = 9657700 minors" in err
    code, out, err = _run(capsys, "verify", "--seed", "1", "--trials", "1", "--n", "12",
                          "--m", "14", "--no-timing")
    assert code == 2 and "all properties passed" not in out
    assert err.startswith("bad input: plucker: C(26, 12) = 9657700 minors")


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


def test_schubert_sample_refuses_a_negative_seed(capsys):
    # numpy's own refusal names neither the seed nor its range
    code, out, err = _run(capsys, "schubert", "--symbol", "1,2", "--m", "2", "--sample",
                          "--seed", "-1")
    assert (code, out) == (2, "")
    assert "seed must be a non-negative integer, got -1" in err


def test_cut_test_schubert_route_ignores_the_basis_scale(capsys):
    # the origin plane O with every entry 1e9: all four routes read "not in
    # the locus", as they do for the unit basis
    for scale in (1.0, 1e9):
        code, out, _ = _run(capsys, "cut-test", _mat(scale * np.eye(2, 3)))
        assert code == 0
        got = json.loads(out)
        assert not (got["in_locus"] or got["cayley"] or got["schubert"]), scale


@pytest.mark.parametrize("argv", [
    ["cut-test", '{"rows":1,"cols":2,"data":[[1,0],[0,0]]}', "--signature", "noncompact"],
    ["schubert", '{"rows":1,"cols":2,"data":[[1,0],[0,0]]}', "--symbol", "0", "--m", "1",
     "--signature", "noncompact"],
    ["schubert", '{"rows":1,"cols":2,"data":[[1,0],[0,0]]}', "--symbol", "0", "--m", "1",
     "--tol", "nan"],
])
def test_plane_subcommands_refuse_options_they_do_not_read(argv, capsys):
    # cut-test and schubert take row bases of planes, which carry no
    # signature, and the rank tolerance is kernel.RANK_TOL
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


def _scan_argv(out, steps):
    return ["conj-scan", "--h", "0.8,0.6", "--n", "2", "--m", "2", "--t0", "0.5",
            "--t1", "9", "--steps", str(steps), "--out", str(out)]


def test_outputs_are_overwritten_whole(tmp_path, capsys):
    # a long output and then a short one to the same path leave exactly the
    # short one: the file is written in place and cut, with no stale tail
    path, fresh = tmp_path / "scan.csv", tmp_path / "fresh.csv"
    assert _run(capsys, *_scan_argv(path, 400))[0] == 0
    longer = path.stat().st_size
    assert _run(capsys, *_scan_argv(path, 3))[0] == 0
    assert _run(capsys, *_scan_argv(fresh, 3))[0] == 0
    assert path.read_bytes() == fresh.read_bytes() and path.stat().st_size < longer
    # the timed report is the untimed one plus its elapsed fields, so it is
    # longer by construction, whatever the lengths of the floats
    report, fresh = tmp_path / "report.json", tmp_path / "fresh.json"
    for timing, out in ((), report), (("--no-timing",), report), (("--no-timing",), fresh):
        code, _, _ = _run(capsys, "verify", "--seed", "1", "--trials", "1", *timing,
                          "--json", str(out))
        assert code == 0
        if not timing:
            timed = json.loads(report.read_text())
            longer = report.stat().st_size
    untimed = json.loads(fresh.read_text())
    del timed["elapsed"]
    for result in timed["results"]:
        del result["elapsed"]
    assert timed == untimed and fresh.stat().st_size < longer
    assert report.read_bytes() == fresh.read_bytes() and report.stat().st_size < longer


def test_outputs_keep_symlinks_and_mode(tmp_path, capsys):
    target, link, fresh = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "fresh.csv"
    target.write_text("stale\n" * 100000)
    target.chmod(0o640)
    link.symlink_to(target)
    assert _run(capsys, *_scan_argv(link, 3))[0] == 0
    assert _run(capsys, *_scan_argv(fresh, 3))[0] == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == fresh.read_bytes()
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_outputs_to_files_that_cannot_be_cut(tmp_path, capsys):
    # character devices and pipes are written but not truncated
    assert _run(capsys, *_scan_argv("/dev/null", 3))[0] == 0
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "grassgeo.cli", *_scan_argv("/dev/stdout", 3)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines[0] == "t,family,p,q,lambda,min_jac_sv,max_angle,second_angle,overlap_abs,class"
    assert [line.split(",")[0] for line in lines[1:4]] == ["0.5", "4.75", "9.0"]
    assert json.loads("\n".join(lines[4:])) == {"rows": 3, "out": "/dev/stdout"}
    # a directory, or a path in a missing directory, is still bad input
    for out in (tmp_path, tmp_path / "missing" / "scan.csv"):
        code, stdout, err = _run(capsys, *_scan_argv(out, 3))
        assert (code, stdout) == (2, "") and err.startswith("bad input")


def test_outputs_to_stdout_redirected_to_a_file_keep_their_order(tmp_path):
    # /dev/stdout opened anew would start at offset 0 of the redirect target
    # and overwrite what was printed before it, or be overwritten after it
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    verify_argv = ["verify", "--seed", "1", "--trials", "1", "--no-timing", "--json"]
    outputs = []
    for argv in (_scan_argv("/dev/stdout", 3), verify_argv + ["/dev/stdout"],
                 verify_argv + ["-"]):
        target = tmp_path / f"out{len(outputs)}.txt"
        with open(target, "w") as fh:
            done = subprocess.run([sys.executable, "-m", "grassgeo.cli", *argv], stdout=fh,
                                  stderr=subprocess.PIPE, text=True,
                                  env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
        outputs.append((done.returncode, target.read_text(), done.stderr))
    (code, scan, err), (vcode, report, verr), (_, payload, text) = outputs
    assert (code, err, vcode, verr) == (0, "", 0, "")
    lines = scan.splitlines()
    assert lines[0] == "t,family,p,q,lambda,min_jac_sv,max_angle,second_angle,overlap_abs,class"
    assert [line.split(",")[0] for line in lines[1:4]] == ["0.5", "4.75", "9.0"]
    assert json.loads("\n".join(lines[4:])) == {"rows": 3, "out": "/dev/stdout"}
    # the text report and then the JSON, each as verify --json - writes them
    assert report == text + payload


def test_a_reader_that_closes_the_pipe_early_gets_exit_1_and_no_message():
    # 20,000 scan rows (~2 MB) overflow the pipe buffer, so the scan is still
    # writing when the reader leaves after one line; verify writes nothing
    # until its suite has run, so its pipe is closed before the first write
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    verify_argv = ["verify", "--seed", "1", "--trials", "1", "--no-timing",
                   "--json", "/dev/stdout"]
    for argv, lines_read in ((_scan_argv("/dev/stdout", 20000), 1), (verify_argv, 0)):
        with subprocess.Popen([sys.executable, "-m", "grassgeo.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=str(src))) as proc:
            try:
                if lines_read:
                    assert proc.stdout.readline().startswith(b"t,family,")
                proc.stdout.close()
                _, err = proc.communicate(timeout=120)
            finally:
                proc.kill()
        assert (proc.returncode, err) == (1, b""), argv[0]


def test_a_grid_too_large_to_allocate_is_bad_input(monkeypatch, capsys):
    # numpy raises MemoryError when asked for the grid; the stand-in raises
    # it without attempting the allocation
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.setattr(verify.np, "linspace", refuse)
    code, out, err = _run(capsys, "conj-scan", "--h", "0.8", "--n", "1", "--m", "1",
                          "--t0", "0.5", "--t1", "0.9", "--steps", "10000000000000",
                          "--out", "/dev/null")
    assert (code, out) == (2, "")
    assert err == "bad input: Unable to allocate 72.8 TiB for an array\n"


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


def test_cut_test_pairing_does_not_overflow(capsys):
    # the Gram determinants of these bases overflow unless each row is first
    # scaled to a largest modulus of 1.  The first row here is within about
    # 1e-300 of orthogonal to O, so the plane is in the locus on every route
    plane = [[1.5, 1.5], [1.5, -0.7], [1e300, 0.0], [1e300, -0.7], [0.3, 0.0], [1.5, 0.0]]
    code, out, _ = _run(capsys, "cut-test", json.dumps({"rows": 2, "cols": 3, "data": plane}))
    assert code == 0
    got = json.loads(out)
    assert got["in_locus"] and got["cayley"] and got["schubert"]
    # |det A[:, :2]| / sqrt(det AA*) = |1.5 - 0.7i| * 1e-300 to rounding
    assert got["pairing_abs"] == pytest.approx(np.sqrt(2.74) * 1e-300, rel=1e-12)
    # O itself with every entry 1e100: out of the locus, pairing exactly 1
    for n in (2, 3, 4, 5):
        code, out, _ = _run(capsys, "cut-test", _mat(1e100 * np.eye(n, n + 2)))
        assert code == 0
        got = json.loads(out)
        assert not (got["in_locus"] or got["cayley"] or got["schubert"]), n
        assert got["pairing_abs"] == 1.0 and got["max_angle"] == 0.0, n


def test_cut_test_answers_where_the_frame_holds_subnormal_entries(capsys):
    # rows of 1e308 leave entries near 7e-309 in the frame's leading block,
    # whose complex det numpy turns into a nan with a warning; the plane
    # lies within 1e-300 of the locus, so the pairing is 0 on every route
    x = 1e308
    plane = _mat([[1, x, 0, 0, 1], [0, 1, x, 0, 0], [0, 0, 1, 1, x]])
    code, out, err = _run(capsys, "cut-test", plane)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"in_locus": True, "max_angle": np.pi / 2, "pairing_abs": 0.0,
                               "cayley": True, "schubert": True}


def test_chart_routes_refuse_overflowing_products(capsys):
    # finite chart coordinates whose products overflow: exit 3 naming the
    # overflow, nothing on stdout, and no numpy warning, which pytest makes
    # an error here
    big = '{"rows":1,"cols":1,"data":[[1e200,0]]}'
    code, out, err = _run(capsys, "overlap", big, big)
    assert (code, out) == (3, "") and "overflow" in err
    # the chart angle route forms no Gram matrix: (1e300, 0) against (1, 0)
    # answers pi/4, as the frame route does, and only a middle factor
    # 1 + Z Zp* that overflows is refused
    zp = '{"rows":1,"cols":2,"data":[[1e300,0],[0,0]]}'
    z = '{"rows":1,"cols":2,"data":[[1,0],[0,0]]}'
    for route in ("w", "svd"):
        code, out, err = _run(capsys, "angles", zp, z, "--route", route)
        assert (code, err) == (0, ""), route
        assert json.loads(out)["angles"] == pytest.approx([np.pi / 4], rel=1e-12), route
    huge = '{"rows":1,"cols":2,"data":[[1e200,0],[0,0]]}'
    code, out, err = _run(capsys, "angles", huge, huge)
    assert (code, out) == (3, "") and "overflow" in err
    # the Cayley distance reads the Gram pairing, which does not overflow
    code, out, _ = _run(capsys, "dist", _mat(1e160 * np.eye(2)))
    assert code == 0
    assert json.loads(out) == {"geodesic": pytest.approx(np.pi / np.sqrt(2), rel=1e-12),
                               "cayley": 1.5707963267948966}


def test_angles_chart_route_answers_on_the_cut_locus(capsys):
    # 1 + Z Zp* = 0: each point lies on the other's cut locus
    code, out, err = _run(capsys, "angles", "[[-1,0]]", "[[1,0]]", "--n", "1", "--m", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["angles"] == [pytest.approx(np.pi / 2, abs=1e-15)]


@pytest.mark.parametrize("v, event", [("1e200", "overflow"), ("1e-320", "divide by zero")])
def test_plucker_refuses_minors_outside_the_double_range(v, event, capsys):
    # the last minor of the 1e200 basis overflows; the (2, 3) and (2, 4)
    # minors of the subnormal one are -1e-320, which numpy's det reads as nan
    z = f'{{"rows":2,"cols":2,"data":[[{v},0],[{v},0],[{v},0],[-{v},0]]}}'
    code, out, err = _run(capsys, "plucker", z)
    assert (code, out) == (3, "") and f"floating-point {event} in the Pluecker minors" in err
    assert "too large" not in err


_MAGNITUDES = ("1e308", "1e200", "1e155", "1e-200", "1e-320", "5e-324")


def _magnitude_argvs(v: str, csv: str) -> list[list[str]]:
    """Every chart, cut and direction command on inputs holding the entry v."""
    x = float(v)
    charts = [_mat([[x]]), _mat([[x, x], [x, -x]]), _mat([[x, 0, 0], [0, x, 1]])]
    bases = [_mat([[x, 1]]), _mat([[1, 0, x], [0, x, 1]]), _mat([[x, 0, 1, 0], [0, 1, 0, x]]),
             _mat([[1, x, 0, 0, 1], [0, 1, x, 0, 0], [0, 0, 1, 1, x]])]
    argvs = []
    for z in charts:
        argvs += [["angles", z, z], ["angles", z, z, "--route", "svd"], ["overlap", z, z],
                  ["plucker", z]]
        for signature in ("compact", "noncompact"):
            sig = ["--signature", signature]
            argvs += [["dist", z, *sig], ["log", z, *sig], ["exp", z, *sig],
                      ["geodesic", z, "--t", "0.5", "--route", "group", *sig]]
    argvs += [["cut-test", plane] for plane in bases]
    for h in (v, f"{v},{v}", f"1,{v}"):
        shape = ["--h", h, "--n", "2", "--m", "3"]
        argvs.append(["conj-params", *shape])
        for signature in ("compact", "noncompact"):
            argvs.append(["conj-scan", *shape, "--t0", "0.5", "--t1", "1", "--steps", "3",
                          "--signature", signature, "--out", csv])
    return argvs


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_extreme_magnitudes_get_a_verdict_or_a_refusal(tmp_path, capsys):
    # entries from the largest double down to the smallest subnormal: each
    # command answers with plain JSON or refuses with exit 2 or 3, and numpy
    # warns of nothing
    argvs = [argv for v in _MAGNITUDES for argv in _magnitude_argvs(v, str(tmp_path / "s.csv"))]
    assert len(argvs) == 294
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in argvs:
            code, out, err = _run(capsys, *argv)
            assert code in (0, 2, 3), (argv, code, err)
            if code == 0:
                json.loads(out, parse_constant=_no_constant)


def test_numerical_failure_is_exit_3(monkeypatch, capsys):
    svd = kernel._lapack_svd_s

    def nonconverged(a):
        # as LAPACK's gufunc reports it: nan factors, and the floating-point
        # invalid flag raised (by 0/0 here)
        nan = np.divide(0.0, np.zeros(1))
        return tuple(r * nan for r in svd(a))

    monkeypatch.setattr(kernel, "_lapack_svd_s", nonconverged)
    code, out, err = _run(capsys, "log", _mat([[0.5]]))
    assert (code, out) == (3, "")
    assert err.startswith("error: SVD did not converge")


_B = '{"rows":2,"cols":2,"data":[[1.0,0.3],[0.5,0],[0.2,0.1],[0.9,0]]}'


@pytest.mark.parametrize("b, flags, code", [
    (_B, ["--t", "0.8"], 0),
    (_B, ["--t", "2.5", "--signature", "noncompact"], 0),
    (_mat([[np.pi / 2]]), ["--t", "1"], 3),                # tan pole
    (_B, ["--t", "14", "--signature", "noncompact"], 3),   # tanh rounds to 1
    (_B, [], 0),                                           # exp's default --t of 1
])
def test_exp_is_the_chart_route_of_geodesic(b, flags, code, capsys):
    got = _run(capsys, "exp", b, *flags)
    want = _run(capsys, "geodesic", b, *(flags or ["--t", "1"]), "--route", "chart")
    assert got == want and got[0] == code


@pytest.mark.parametrize("t", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("argv", [["geodesic", "--route", "chart"],
                                  ["geodesic", "--route", "group"],
                                  ["geodesic", "--route", "group", "--signature", "noncompact"],
                                  ["exp"]])
def test_nonfinite_times_are_bad_input(argv, t, capsys):
    # refused with one line on stderr: no numpy warning first, nothing on stdout
    code, out, err = _run(capsys, argv[0], _mat([[0.5, 0.3]]), f"--t={t}", *argv[1:])
    assert (code, out, err) == (2, "", "bad input: times must be finite\n")


@pytest.mark.parametrize("route", ["chart", "group"])
def test_overflowing_times_are_bad_input(route, capsys):
    # 1e308 is finite, but its product with the velocity is not: refused
    # with one line on stderr, before numpy can warn about the overflow
    code, out, err = _run(capsys, "geodesic", '{"rows":1,"cols":2,"data":[[5,0],[3,0]]}',
                          "--t", "1e308", "--route", route)
    assert (code, out) == (2, "")
    assert err.startswith("bad input: time 1e+308 is too large") and "overflows" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("t", ["1e200", "1e308"])
def test_chart_and_group_routes_print_the_same_time_refusal(t, capsys):
    # both time guards read the velocity's largest singular value, sqrt(34)
    # for B = (5, 3), so the refusal names the same reach and scale
    b = '{"rows":1,"cols":2,"data":[[5,0],[3,0]]}'
    chart = _run(capsys, "geodesic", b, "--t", t, "--route", "chart")
    group = _run(capsys, "geodesic", b, "--t", t, "--route", "group")
    assert chart == group and chart[:2] == (2, "")
    assert ("t * h_1 = 5.83095e+200" if t == "1e200" else "scale 5.83095") in chart[2]


def test_noncompact_group_geodesic_far_out_stays_a_plane(capsys):
    # the unscaled (cosh | sinh) rows grew apart by e^22 at t = 30 and failed
    # the plane's rank test; the rescaled (1 | tanh) rows do not
    b = '{"rows":2,"cols":2,"data":[[1.0,0.3],[0.5,0],[0.2,0.1],[0.9,0]]}'
    code, out, _ = _run(capsys, "geodesic", b, "--t", "30", "--route", "group",
                        "--signature", "noncompact")
    assert code == 0
    # tanh(30 h_1) rounds to 1, so exp0 refuses 30 B as off the ball; the same
    # chart formula is evaluated directly
    res = kernel.svd(30.0 * cli._parse_matrix(b, None, None))
    z = res.apply(np.tanh(res.s))
    chart = np.linalg.qr(mf.hat_basis(mf.ChartPoint(z)).T)[0]
    group = np.linalg.qr(cli._parse_matrix(out, None, None).T)[0]
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


@pytest.mark.parametrize("command", ["exp", "geodesic"])
def test_compact_tan_pole_points_to_the_group_route(command, capsys):
    # the refusal names the CLI route that reaches the pole, as the dual's does
    b = _mat([[np.pi / 2, 0]])
    code, out, err = _run(capsys, command, b, "--t", "1")
    assert (code, out) == (3, "")
    assert "tan pole" in err and "geodesic_group" in err and "--route group" in err
    code, out, _ = _run(capsys, "geodesic", b, "--t", "1", "--route", "group")
    assert code == 0 and json.loads(out)["rows"] == 1


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


_M = '{"rows":1,"cols":2,"data":[[0.3,0],[0.1,0.2]]}'
# one valid argv per subcommand, with options set away from their defaults
VALID_ARGV = {
    "angles": ["angles", _M, _M, "--route", "svd", "--signature", "noncompact"],
    "overlap": ["overlap", _M, _M, "--n", "1", "--m", "2"],
    "dist": ["dist", _M, "--signature", "noncompact"],
    "exp": ["exp", _M, "--t", "0.5"],
    "log": ["log", _M],
    "geodesic": ["geodesic", _M, "--t", "2", "--route", "group"],
    "plucker": ["plucker", _M],
    "cut-test": ["cut-test", _M, "--n", "1"],
    "schubert": ["schubert", "--symbol", "1,2", "--m", "2", "--sample", "--seed", "5",
                 "--flag", "chart"],
    "conj-params": ["conj-params", "--h", "0.8,0.6", "--n", "2", "--m", "2",
                    "--lambda-max", "3"],
    "conj-scan": ["conj-scan", "--h", "0.8", "--n", "1", "--m", "1", "--t0", "0.5",
                  "--t1", "2", "--steps", "4", "--signature", "noncompact", "--out", "x.csv"],
    "verify": ["verify", "--seed", "4", "--trials", "2", "--no-timing", "--json", "-"],
}


def test_dispatch_parses_each_subcommand_as_the_root_parser_does():
    # main hands a subcommand's arguments straight to its parser
    assert set(VALID_ARGV) == set(cli._parsers()[1])
    for name, argv in VALID_ARGV.items():
        got = cli._parse_args(argv)
        want = cli.build_parser().parse_args(argv)
        assert vars(got) == vars(want), name
        assert got.command == name


@pytest.mark.parametrize("name", sorted(VALID_ARGV))
def test_dispatch_refuses_an_unknown_flag_as_the_root_parser_does(name, capsys):
    argv = VALID_ARGV[name] + ["--no-such-flag"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("grassgeo: error: unrecognized arguments: --no-such-flag\n")
    # the same usage and message, byte for byte
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("argv, code", [([], 2), (["nope"], 2), (["--help"], 0)])
def test_an_argv_naming_no_command_goes_to_the_root_parser(argv, code, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    out = capsys.readouterr()
    assert (out.out if code == 0 else out.err).startswith("usage: grassgeo [-h]")
