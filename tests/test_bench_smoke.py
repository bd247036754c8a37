import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# (dynamic, static) overhead in percent of each workload at smoke size: the
# paper's figures, which no change to the emulator or the toolchain may move
OVERHEADS = {
    "kernel": (38.87061403508772, 34.67741935483871),
    "corpus": (43.1057563587684, 45.258620689655174),
    "large_unit": (43.29545454545455, 50.27173913043478),
}


def test_bench_smoke_runs_clean():
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    metrics = summary["metrics"]
    assert {workload: tuple(metrics[f"{workload}.{kind}_overhead_pct"]["value"]
                            for kind in ("dynamic", "static"))
            for workload in OVERHEADS} == OVERHEADS
