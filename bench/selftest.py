"""Self-test of the benchmark: a reduced-size run of every workload.

Usage (from the repository root): python3 bench/selftest.py

For each workload and each trace mode it runs ``run.py --scale small``
and asserts that the last output line has exactly the required keys,
that every metric BENCHMARK.json names for that mode is emitted, numeric
and in its unit, and that the checks passed.  The traced runs must show
each workload loading the layer it was chosen for.  Last, the benchmark
must refuse, without printing a result, to run from a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SECONDS = "2"

# Which modules' self time must cover most of a traced iteration.
LOADED = {
    "llt-2d": ("exact_dist",),
    "identities": ("llt",),
    "brw-2d": ("gw_brw", "martingales"),
    "brw-deep-1d": ("gw_brw", "martingales"),
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace), "--scale", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(spec: dict, workload: str, trace: int) -> dict:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert line["correct"] is True and line["failed"] == 0, proc.stdout
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}, f"{workload}: metric names differ"
    for m in wanted:
        rec = line["metrics"][m["name"]]
        value = rec["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (m["name"], value)
        assert math.isfinite(value), (m["name"], value)
        assert rec["unit"] == m["unit"], (m["name"], rec["unit"])
        if not trace:
            assert value > 0, (m["name"], value)
    return {k: v["value"] for k, v in line["metrics"].items()}


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run(bare, WORKLOADS[0], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark ran without the program"
    assert '"correct"' not in proc.stdout, "benchmark printed a result without the program"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        check_workload(spec, workload, 0)
        layer = check_workload(spec, workload, 1)
        share = sum(layer[f"{mod}.share"] for mod in LOADED[workload])
        assert share > 0.5, f"{workload}: {LOADED[workload]} cover only {share:.2f} of a traced run"
        if workload == "brw-deep-1d":
            assert layer["gw_brw.max_count_bits"] > 62, layer["gw_brw.max_count_bits"]
            assert layer["martingales.readout.counts_above_2p53"] > 0
        print(f"ok {workload} (layer share {share:.2f})")
    check_bare_directory()
    print("ok bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
