"""Tests of the benchmark harness itself:  python -m pytest perfbench"""
import subprocess
import sys
from pathlib import Path

from outputs import verify_outputs
from spans import self_times

SHAPE = {"repetitions": 1, "iterations": 1, "k": 1, "checks": ["lemmas"]}


def _write_run(out, final, bound, check="PASS"):
    out.mkdir()
    (out / "report.txt").write_text(
        f"rep 0 (seed 0): gamma=1 d0=1 final={final} rate=n/a floor={final} "
        f"bound={bound} within_bound=True alignment=[0]\n"
        f"check lemmas: {check} (detail)\n"
    )
    (out / "trace.csv").write_text(f"rep,t,j,distance,loss\n0,0,0,1,2\n0,1,0,{final},1\n")
    (out / "logdist.csv").write_text("rep,t,log10_max_distance\n0,0,0\n0,1,-1\n")


def test_verify_outputs_counts_each_miss(tmp_path):
    _write_run(tmp_path / "good", 0.1, 0.2)
    good = verify_outputs(tmp_path / "good", SHAPE, accuracy=1.0, rc=0)
    assert (good.attempted, good.failed) == (5, 0)
    assert good.digest

    _write_run(tmp_path / "bad", 0.3, 0.2, check="FAIL")
    (tmp_path / "bad" / "logdist.csv").unlink()
    bad = verify_outputs(tmp_path / "bad", SHAPE, accuracy=1.0, rc=1)
    # final above its bound, the FAIL check and the missing file
    assert (bad.attempted, bad.failed) == (5, 3)

    crashed = verify_outputs(tmp_path / "good", SHAPE, accuracy=1.0, rc=2)
    assert crashed.failed == crashed.attempted == 5


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    totals, top = self_times(spans)
    assert top == 10.0
    assert totals["a"] == (1, 10.0, 6.0)
    assert totals["b"] == (2, 4.0, 3.0)
    assert totals["c"] == (1, 1.0, 1.0)


def test_smoke_emits_every_declared_metric():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke OK"
