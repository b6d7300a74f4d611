"""Run one workload for a fixed time in this process and write the results.

Usage: python3 bench/worker.py JOB.json

``run.py`` writes the job (config files, output paths, seconds, trace
flag), starts this script as a fresh process with one compute thread,
and reads ``result`` from the job's ``result`` path.  Each iteration runs
every config of the workload through ``brwllt.cli.main(["run", ...])``,
the path ``brwllt run`` takes: config load, experiment, CSV write.  One
untimed run of the first config warms up first; the warm-up counts
against the run's seconds.  Each config's run is timed on its own, with
the reference kernel (refkernel.py) timed between runs so that run.py
can scale each run to the nominal host speed.

With tracing on, iterations alternate untraced and traced, so the trace
overhead is measured against untraced iterations of the same run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback


def _layer_metrics(tracer, spans, wall: float) -> dict:
    """Per-layer figures of one traced iteration.

    ``<module>.<fn>.s`` is inclusive time, ``.self_s`` excludes traced
    children, ``<module>.s`` sums the self time of the module's spans and
    ``<module>.share`` divides that by the iteration's wall time.
    """
    summary = tracer.summary()
    out = {}
    for module, fns in spans.TARGETS.items():
        own = 0.0
        for fn in fns:
            name = f"{module}.{fn}"
            rec = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            out[f"{name}.calls"] = rec["calls"]
            out[f"{name}.s"] = rec["s"]
            out[f"{name}.self_s"] = rec["self_s"]
            own += rec["self_s"]
        out[f"{module}.s"] = own
        out[f"{module}.share"] = own / wall
    out["trace.bookkeeping.s"] = summary[spans.BOOKKEEPING]["s"]
    out.update(tracer.counters)
    return out


def run(job: dict) -> dict:
    import numpy

    from brwllt import cli

    import refkernel
    import spans
    from workloads import Checks, check_output

    workload = job["workload"]
    units = list(zip(job["docs"], job["configs"], job["outputs"]))
    checks = Checks()
    tracer = spans.Tracer(checks) if job["trace"] else None
    walls = [[] for _ in units]  # untraced seconds of each config's runs
    refs = [[] for _ in units]  # reference kernel seconds around each of them
    kernel_before = None
    rounds = {False: [], True: []}  # seconds of each complete iteration
    digests = [None] * len(units)
    counters_first = None
    layer_samples = []
    health = {"oracle_gap_max": 0.0, "identity_rel_err_max": 0.0}
    verdicts = set()

    def run_unit(k: int) -> tuple[float, float]:
        """Run config ``k`` as `brwllt run` does and check its CSV.

        Returns the run's seconds and the mean time of the reference
        kernel just before and just after it.
        """
        nonlocal kernel_before
        doc, cfg, out = units[k]
        if kernel_before is None:
            kernel_before = refkernel.timed()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["run", cfg, "--output", out])
        wall = time.perf_counter() - t0
        kernel_after = refkernel.timed()
        ref = (kernel_before + kernel_after) / 2
        kernel_before = kernel_after
        with open(out) as fh:
            text = fh.read()
        got = check_output(workload, doc, text, checks)
        verdicts.add(got.pop("passed"))
        for key, value in got.items():
            health[key] = max(health[key], value)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digests[k] is None:
            digests[k] = digest
        else:
            checks.check(digest == digests[k], "CSV differs from the first run of the same seed")
        return wall, ref

    # At least two iterations: every config gets two timed samples (one
    # traced and one untraced with tracing on) and a CSV to compare.
    min_iterations = 2
    deadline = time.perf_counter() + job["seconds"]
    try:
        run_unit(0)  # warm-up, not timed: first-call costs of numpy and the package
        i = 0
        while True:
            traced = tracer is not None and i % 2 == 1
            if i >= min_iterations and tracer is not None:
                last = (rounds[traced] or rounds[not traced])[-1]
                if time.perf_counter() + last > deadline:
                    break
            if traced:
                tracer.reset()
                tracer.install()
            took = []
            try:
                for k in range(len(units)):
                    # Untraced runs stop between configs, so a long workload
                    # still fills its time with samples.
                    if i >= min_iterations and tracer is None and time.perf_counter() + walls[k][-1] > deadline:
                        break
                    took.append(run_unit(k))
            finally:
                if traced:
                    tracer.uninstall()
            if not traced:
                for k, (wall, ref) in enumerate(took):
                    walls[k].append(wall)
                    refs[k].append(ref)
            if len(took) < len(units):
                break
            wall = sum(w for w, _ in took)
            rounds[traced].append(wall)
            if traced:
                if counters_first is None:
                    counters_first = dict(tracer.counters)
                else:
                    checks.check(tracer.counters == counters_first, "computed counters changed between runs")
                layer_samples.append(_layer_metrics(tracer, spans, wall))
            i += 1
    except Exception:  # the program failed: report it as a failed check
        checks.check(False, traceback.format_exc(limit=3))

    layer = None
    if layer_samples:
        layer = {k: statistics.median(s[k] for s in layer_samples) for k in layer_samples[0]}
        layer["exact_dist.oracle_gap_max"] = health["oracle_gap_max"]
        layer["llt.identity_rel_err_max"] = health["identity_rel_err_max"]
        layer["trace.wall_s"] = statistics.median(rounds[True])
        layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(rounds[False])
        tracer.dump(job["spans"])
    return {
        "walls": walls,
        "refs": refs,
        "traced_walls": rounds[True],
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "experiment_passed": sorted(verdicts),
        "health": health,
        "layer": layer,
        "hook_errors": tracer.hook_errors if tracer else [],
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
    }


def main(argv) -> int:
    with open(argv[1]) as fh:
        job = json.load(fh)
    result = run(job)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
