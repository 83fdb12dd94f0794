import importlib.util
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "snapshot.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_snapshot_writes_every_output_with_its_exit_code(tmp_path):
    tool = _load_tool()
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert tuple(sorted(p.name for p in tmp_path.iterdir())) == tool.FILES
    for name, argv, expected in tool.CASES:
        text = (tmp_path / f"{name}.txt").read_text()
        assert text.startswith(f"exit: {expected}\n"), (name, text[:200])
        # output paths are written relative to the snapshot, so snapshots
        # from two checkouts compare with diff -r
        assert str(tmp_path) not in text
        if "{csv}" in argv:
            # written over a longer filler, which must leave no tail
            csv_text = (tmp_path / f"{name}.csv").read_text()
            assert csv_text.startswith("t,family,") and "stale" not in csv_text
            assert len(csv_text) < len(tool.STALE)
    library = (tmp_path / "library.txt").read_text().splitlines()
    assert len(library) == 1165
    kinds = {line.split()[0] for line in library}
    assert kinds == {"plane", "chart", "plane-to-chart", "classify", "residual", "fd-ratio",
                     "spectrum", "class", "geo-group", "geo-chart", "log-exp", "distance",
                     "overlap", "bad-signature"}
