"""Spans and counters around brwllt's public functions, installed from outside.

The package binds many of these names with ``from .x import y``, so a
wrapper replaces every module attribute of the package that refers to the
original function, not only the one in the defining module, and
:meth:`Tracer.uninstall` puts the originals back.

Spans (name, start, end, parent) are kept in flat arrays while a traced
iteration runs.  Self time is a span's duration minus the time its child
spans cover.  Counters are taken at the same boundaries, after the span
has closed, inside a ``trace.bookkeeping`` span so that the time they
cost is excluded from every layer.

Helpers that run many times per call of a traced function and do little
each time (``binomial_exact``, ``dist_at``, ``parity_matched``,
``quad_form``) are not wrapped; their time is self time of the caller.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

TARGETS = {
    "cli": ("main",),
    "harness": ("load_config", "run_experiment", "write_csv"),
    "step_law": ("law_from_dict", "validate", "classify", "moments"),
    "exact_dist": ("walk_dist", "convolve_step", "cf_invert", "cf_invert_bipartite", "cf_invert_box"),
    "llt": ("constants", "rw_expansion", "gamma_residual", "fit_correction_coefficients", "gaussian_identity_check"),
    "gw_brw": ("validate_offspring", "simulate", "evolve_generation", "derive_stream", "multinomial_exact"),
    "martingales": ("readout", "freeze", "f1_eval", "f2_eval", "theorem_prediction"),
}
PACKAGE = "brwllt"
BOOKKEEPING = "trace.bookkeeping"
TWO_P53 = 2**53
# Computed from array sizes, arguments and returned states, so they repeat
# exactly across runs of one commit.
COUNTERS = (
    "exact_dist.max_box_elements",
    "exact_dist.bytes_computed",
    "exact_dist.cf_invert.grid_points",
    "llt.gaussian_identity_check.quadrature_points",
    "gw_brw.site_visits",
    "gw_brw.max_count_bits",
    "martingales.readout.sites",
    "martingales.readout.counts_above_2p53",
    "harness.write_csv.bytes",
)


def _args(sig: inspect.Signature, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _dense(tracer, a, result):
    mass = result.mass
    tracer.bump_max("exact_dist.max_box_elements", int(mass.size))
    tracer.bump("exact_dist.bytes_computed", int(mass.nbytes))


def _walk_dist(tracer, a, result):
    tracer.bump_max("exact_dist.max_box_elements", int(result.mass.size))


def _cf_invert(tracer, a, result):
    from brwllt import exact_dist

    law, n, z = a["law"], a["n"], a["z"]
    panels = a.get("panels")
    if panels is None:
        if hasattr(exact_dist, "default_panels"):
            panels = exact_dist.default_panels(law, n, z)
        else:  # the smallest grid on which the rule is exact
            panels = n * law.max_range + max((abs(int(c)) for c in z), default=0) + 1
    points = int(panels) ** law.d
    tracer.bump("exact_dist.cf_invert.grid_points", points)
    tracer.bump("exact_dist.bytes_computed", 8 * points)


def _identity(tracer, a, result):
    from brwllt import llt

    panels = a.get("panels")
    table = getattr(llt, "IDENTITY_PANELS", None)
    if panels is None and table is not None:
        panels = table.get(a["m"].d)
    if panels is not None:
        tracer.bump("llt.gaussian_identity_check.quadrature_points", (int(panels) + 1) ** a["m"].d)


def _evolve(tracer, a, result):
    tracer.bump("gw_brw.site_visits", len(a["state"].counts))


def _simulate(tracer, a, result):
    """Snapshot invariants: counts sum to the total, are >= 0, and sit in
    the box the walk can reach in n steps."""
    ranges = a["law"].ranges
    checks = tracer.checks
    for st in result:
        counts = st.counts
        checks.check(sum(counts.values()) == st.total, f"sum of counts != total at n={st.n}")
        checks.check(all(c >= 0 for c in counts.values()), f"negative count at n={st.n}")
        reach = [st.n * t for t in ranges]
        checks.check(
            all(all(abs(x) <= r for x, r in zip(site, reach)) for site in counts),
            f"site outside the reachable box at n={st.n}",
        )
        tracer.bump_max("gw_brw.max_count_bits", max((c.bit_length() for c in counts.values()), default=0))


def _readout(tracer, a, result):
    counts = a["state"].counts
    tracer.bump("martingales.readout.sites", len(counts))
    tracer.bump("martingales.readout.counts_above_2p53", sum(1 for c in counts.values() if c > TWO_P53))


def _write_csv(tracer, a, result):
    tracer.bump("harness.write_csv.bytes", os.path.getsize(a["path"]))


HOOKS = {
    "exact_dist.convolve_step": _dense,
    "exact_dist.cf_invert_box": _dense,
    "exact_dist.walk_dist": _walk_dist,
    "exact_dist.cf_invert": _cf_invert,
    "llt.gaussian_identity_check": _identity,
    "gw_brw.evolve_generation": _evolve,
    "gw_brw.simulate": _simulate,
    "martingales.readout": _readout,
    "harness.write_csv": _write_csv,
}


class Tracer:
    """Records spans and counters of the wrapped brwllt functions.

    ``checks`` (a ``workloads.Checks``) receives the snapshot invariants
    the hooks test.
    """

    def __init__(self, checks):
        self.checks = checks
        self.names: list[str] = [BOOKKEEPING]
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}
        self.hook_errors: list[str] = []
        self.reset()

    # -- recording -------------------------------------------------------
    def reset(self) -> None:
        """Forget the spans and counters recorded so far."""
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _open(self, name_id: int) -> int:
        idx = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def bump(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def bump_max(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                book = self._open(0)
                try:
                    hook(self, _args(sig, args, kwargs), result)
                except (AttributeError, KeyError, TypeError) as exc:
                    # The program's interface moved; the counter is skipped, not guessed.
                    if len(self.hook_errors) < 20:
                        self.hook_errors.append(f"{name}: {exc!r}")
                finally:
                    self._close(book)
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Replace every package attribute bound to a target function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for short, fns in TARGETS.items():
            defining = sys.modules.get(f"{PACKAGE}.{short}")
            for fn_name in fns:
                original = getattr(defining, fn_name, None)
                if not callable(original):
                    continue
                name = f"{short}.{fn_name}"
                wrapper = self._wrappers.get(name)
                if wrapper is None:
                    wrapper = self._wrappers[name] = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        """Put the original functions back."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    # -- results ---------------------------------------------------------
    def summary(self) -> dict:
        """Per traced name: calls, inclusive seconds and self seconds."""
        name = np.asarray(self._name, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        dur = np.asarray(self._end) - np.asarray(self._start)
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        return {
            n: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def dump(self, path) -> None:
        """Write the recorded spans as CSV, times relative to the first span."""
        t0 = self._start[0] if len(self._start) else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i in range(len(self._name)):
                fh.write(
                    f"{i},{self.names[self._name[i]]},{self._start[i] - t0:.9f},"
                    f"{self._end[i] - t0:.9f},{self._parent[i]}\n"
                )
