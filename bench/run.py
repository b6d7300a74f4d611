"""brwllt benchmark: time to a verified result, and a traced per-layer breakdown.

Usage (from the repository root):

    python3 bench/run.py --workload llt-2d --seed 1 --seconds 30 --trace 0

One workload runs per call.  ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json (wall_s, setup_s, peak_rss_mb; the times scaled to a
nominal host speed, see refkernel.py and README.md); ``--trace 1`` reports
its per-layer metrics from a run with spans around the package's public
functions.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the same figures for a reader, the check failure fraction and the
environment the run was measured in.  ``--scale small`` shrinks every
workload for the self-test.

The load is a closed loop with one client: one worker process runs one
experiment at a time with BLAS/OpenMP pinned to one thread, and starts
the next iteration when the previous one has been checked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import refkernel  # noqa: E402
from workloads import HOST_SENSITIVITY, SCALES, WORKLOADS, configs  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 6  # timed before the worker and again after it
SETUP_SENSITIVITY = 0.5  # as workloads.HOST_SENSITIVITY, for interpreter start and imports
HARD_LIMIT_S = 170.0  # a run must end within 180 s


def _pinned_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def _measure_setup(env: dict, config: Path, warm_up: bool) -> list[tuple[float, float]]:
    """Seconds from interpreter start to a validated config, per fresh process.

    Each probe is `brwllt validate CONFIG`: start Python, import the
    package (numpy included), load and validate the config, exit.  With
    ``warm_up`` one untimed probe fills the file cache first.  Each sample
    is paired with the mean reference kernel time just before and after it.
    """
    cmd = [sys.executable, "-m", "brwllt.cli", "validate", str(config)]
    samples = []
    kernel_before = refkernel.timed()
    for k in range(SETUP_PROBES + warm_up):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
        # wait() without a timeout blocks in waitpid; with one it polls in
        # steps of up to 50 ms, which would quantize the measurement.
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        took = time.perf_counter() - t0
        kernel_after = refkernel.timed()
        if k or not warm_up:
            samples.append((took, (kernel_before + kernel_after) / 2))
        kernel_before = kernel_after
    return samples


def _git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(args, numpy_version: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=SCALES, default="full")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "brwllt" / "__init__.py").is_file():
        print(f"error: no brwllt package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    docs = configs(args.workload, args.seed, args.scale)
    cfg_paths = []
    for k, doc in enumerate(docs):
        cfg_paths.append(run_dir / f"config{k}.json")
        cfg_paths[-1].write_text(json.dumps(doc, indent=1))
    env = _pinned_env()

    # Setup is probed before the worker and again after it, so the median
    # spans the run rather than a few seconds of it.
    setup = [] if args.trace else _measure_setup(env, cfg_paths[0], warm_up=True)

    job = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "docs": docs,
        "configs": [str(p) for p in cfg_paths],
        "outputs": [str(run_dir / f"out{k}.csv") for k in range(len(docs))],
        "spans": str(run_dir / "spans.csv"),
        "result": str(run_dir / "worker.json"),
    }
    (run_dir / "job.json").write_text(json.dumps(job, indent=1))
    remaining = HARD_LIMIT_S - (time.perf_counter() - started)
    try:
        subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(run_dir / "job.json")],
            env=env, cwd=ROOT, check=True, timeout=remaining,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    res = json.loads(Path(job["result"]).read_text())
    if not all(res["walls"]):
        print("error: no iteration completed; " + "; ".join(res["failures"]), file=sys.stderr)
        return 1
    if not args.trace:
        setup += _measure_setup(env, cfg_paths[0], warm_up=False)

    # A workload's time is the sum over its configs of each config's median
    # scaled sample.  Scaling by the reference kernel timed around each
    # sample cancels the shared host's slow spells.
    walls = res["walls"]
    beta = HOST_SENSITIVITY[args.workload]
    scaled = [[refkernel.scaled(w, r, beta) for w, r in zip(ws, rs)] for ws, rs in zip(walls, res["refs"])]
    wall_s = sum(statistics.median(s) for s in scaled)
    if args.trace:
        values = res["layer"]
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(refkernel.scaled(w, r, SETUP_SENSITIVITY) for w, r in setup),
            "peak_rss_mb": res["peak_rss_kib"] / 1024.0,
        }
    metrics = {}
    for m in wanted:
        if values.get(m["name"]) is None:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    env_record = _environment(args, res["numpy"])
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  scale {args.scale}")
    print(f"  wall_s           {wall_s:.4f} s  (sum over configs of the median scaled untraced run)")
    for k, (w, s) in enumerate(zip(walls, scaled)):
        lo, hi = _quartiles(s)
        print(f"    config {k}: {len(w)} runs, scaled median {statistics.median(s):.4f} s, quartiles {lo:.4f},"
              f" {hi:.4f}; unscaled median {statistics.median(w):.4f} s")
    if not args.trace:
        raw = statistics.median(w for w, _ in setup)
        print(f"  setup_s          {values['setup_s']:.4f} s  (median of {len(setup)} fresh processes, scaled;"
              f" unscaled {raw:.4f} s)")
        print(f"  peak_rss_mb      {values['peak_rss_mb']:.1f} MiB")
    print(f"  check_fail_frac  {failed / attempted if attempted else 0:.4g} ratio  ({failed} of {attempted} checks failed)")
    print(f"  experiment passed (not checked for brw-check): {res['experiment_passed']}")
    for what in res["failures"]:
        print(f"  FAILED: {what.strip()}")
    for what in res["hook_errors"]:
        print(f"  trace counter skipped: {what}")
    if args.trace:
        for name, rec in metrics.items():
            print(f"  {name:48s} {rec['value']:.6g} {rec['unit']}")
    print("env " + json.dumps(env_record, sort_keys=True))

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"environment": env_record, "result": line, "walls": walls, "refs": res["refs"],
              "traced_walls": res["traced_walls"],
              "setup": setup, "health": res["health"]}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
