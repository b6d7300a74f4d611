"""Paired benchmark of two commits: every workload, alternating sides.

Usage (from anywhere inside the repository):

    python3 tools/bench_pair.py --output BENCH_<N>.json
    python3 tools/bench_pair.py --base HEAD^ --head HEAD --reps 10 --output out.json

Each side is a fresh ``git archive`` copy of its commit in a temporary
directory, so both run from the same kind of tree.  For every workload
named in the head's BENCHMARK.json, pair k runs
``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` once
on each side, base first when k is even and head first when k is odd;
T is always ``run_seconds`` of the head's BENCHMARK.json.
The output file records, per workload and end-to-end metric, each side's
runs, median and quartiles, and how many pairs the head won (ties count
for neither side), each side's check counts, and each side's line count
of ``src/brwllt/*.py`` (as ``wc -l`` counts them).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MIN_REPS = 5


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    """Unpack ``git archive rev`` into ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _src_lines(tree: Path) -> int:
    """Lines of ``src/brwllt/*.py`` in ``tree``, counted as ``wc -l`` does."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "brwllt").glob("*.py"))


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its last output line, parsed,
    with the ``env`` record it prints under the key ``env``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return result


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD^", help="commit measured as the parent (default HEAD^)")
    parser.add_argument("--head", default="HEAD", help="commit measured as the change (default HEAD)")
    parser.add_argument("--reps", type=int, default=MIN_REPS, help=f"pairs per workload, at least {MIN_REPS}")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--output", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.reps < MIN_REPS:
        parser.error(f"--reps must be at least {MIN_REPS}")

    sides = {"base": _git("rev-parse", args.base), "head": _git("rev-parse", args.head)}
    # Tree hashes identify what ran even after the commits are rewritten.
    hashes = {side: {part: _git("rev-parse", f"{rev}:{part}") for part in ("src", "bench")} for side, rev in sides.items()}
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees = {side: Path(tmp) / side for side in sides}
        for side, rev in sides.items():
            _export(rev, trees[side])
        src_lines = {side: _src_lines(tree) for side, tree in trees.items()}
        spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        started = time.time()
        runs = {}
        for name in (w["name"] for w in spec["workloads"]):
            runs[name] = {"base": [], "head": []}
            for k in range(args.reps):
                for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
                    runs[name][side].append(_run(trees[side], name, args.seed, seconds))
                    print(f"{name} pair {k} {side}: {json.dumps(runs[name][side][-1]['metrics'])}", flush=True)

    first = next(iter(runs.values()))["head"][0]
    workloads = {}
    for name, by_side in runs.items():
        metrics = {}
        for m in spec["end_to_end"]:
            values = {side: [r["metrics"][m["name"]]["value"] for r in rs] for side, rs in by_side.items()}
            lower = m["better"] == "lower"
            wins = sum((h < b) if lower else (h > b) for b, h in zip(values["base"], values["head"]))
            metrics[m["name"]] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "base": _summary(values["base"]),
                "head": _summary(values["head"]),
                "head_wins": wins,
                "pairs": args.reps,
            }
        checks = {side: {"attempted": sum(r["attempted"] for r in rs), "failed": sum(r["failed"] for r in rs),
                         "all_correct": all(r["correct"] for r in rs)} for side, rs in by_side.items()}
        workloads[name] = {"metrics": metrics, "checks": checks}

    record = {
        "base": sides["base"],
        "head": sides["head"],
        "trees": hashes,
        "src_lines": src_lines,
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.reps,
        "order": "pair k runs base first when k is even, head first when k is odd",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "host": {key: first["env"][key] for key in ("cpu_model", "nproc", "python", "numpy", "threads")},
        "workloads": workloads,
    }
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    print(f"src/brwllt/*.py lines: base {src_lines['base']}  head {src_lines['head']}")
    for name, rec in workloads.items():
        for metric, m in rec["metrics"].items():
            cells = "  ".join(f"{side} {m[side]['median']:.4g} [{m[side]['q1']:.4g}, {m[side]['q3']:.4g}]"
                              for side in ("base", "head"))
            print(f"{name:12s} {metric:12s} {cells}  head wins {m['head_wins']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
