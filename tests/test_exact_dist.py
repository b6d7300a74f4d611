import itertools
import math
import tracemalloc

import numpy as np
import pytest

from brwllt import config, errors, exact_dist
from brwllt.config import load_config, validate_offspring
from brwllt.exact_dist import (
    LatticeDist,
    axis_mixture,
    cf_invert_box,
    convolve_step,
    delta_dist,
    dist_at,
    dump_csv,
    walk_dist,
)
from brwllt.gw_brw import GenerationState, ReplicateSeed, SiteCounts, simulate
from brwllt.llt import fit_correction_coefficients, gamma_residual
from brwllt.step_law import WalkClass, box_shape, cf_grid, classify, law_to_dict, lazy_simple_law, validate

SIMPLE = validate(1, 0.0, [[1.0]])
LAZY = validate(1, 0.5, [[0.5]])


def test_delta_dist():
    d = delta_dist(SIMPLE)
    assert d.n == 0
    assert dist_at(d, (0,)) == 1.0
    assert d.total() == 1.0


def test_one_step_simple():
    d = convolve_step(delta_dist(SIMPLE), SIMPLE)
    assert dist_at(d, (1,)) == 0.5
    assert dist_at(d, (-1,)) == 0.5
    assert dist_at(d, (0,)) == 0.0


def test_two_steps_simple():
    # brute force: 4 equally likely paths
    d = walk_dist(SIMPLE, 2)
    assert dist_at(d, (0,)) == 0.5
    assert dist_at(d, (2,)) == 0.25
    assert dist_at(d, (-2,)) == 0.25
    assert dist_at(d, (1,)) == 0.0  # parity


def test_one_step_lazy():
    d = convolve_step(delta_dist(LAZY), LAZY)
    assert dist_at(d, (0,)) == 0.5
    assert dist_at(d, (1,)) == 0.25
    assert dist_at(d, (-1,)) == 0.25


def test_out_of_box_is_zero():
    d = walk_dist(SIMPLE, 3)
    assert dist_at(d, (100,)) == 0.0
    assert dist_at(d, (-4,)) == 0.0


def test_radius_read_from_mass():
    # a radius of (5,) stored beside two cells gave a bare IndexError in dist_at
    dist = LatticeDist(n=1, mass=np.array([0.5, 0.25]))
    assert (dist.d, dist.radius) == (1, (1,))
    assert [dist_at(dist, (z,)) for z in (-5, -1, 0, 1, 5)] == [0.0, 0.25, 0.5, 0.25, 0.0]


def test_normalization_drift():
    n = 200
    d = walk_dist(LAZY, n)
    assert abs(d.total() - 1.0) <= n * 1e-12


# Multi-range laws, ranges up to 3, none of them symmetric under swapping axes.
LAWS = {
    1: validate(1, 0.1, [[0.4, 0.0, 0.5]]),
    2: validate(2, 0.1, [[0.2, 0.3], [0.15, 0.25]]),
    3: validate(3, 0.05, [[0.2, 0.1], [0.3], [0.15, 0.0, 0.2]]),
}


def full_box(dist: LatticeDist) -> np.ndarray:
    """Reference: the whole box prod_s [-radius_s, radius_s] of ``dist``,
    its orthant mirrored along each axis."""
    box = dist.mass
    for s in range(dist.d):
        box = np.concatenate([np.flip(box, axis=s)[(slice(None),) * s + (slice(-1),)], box], axis=s)
    return box


def reference_step(box: np.ndarray, law) -> np.ndarray:
    """The full-box stencil: shift-and-add every atom over the whole box,
    which grows by t_s per axis."""
    t = law.ranges
    out = np.zeros(tuple(m + 2 * ts for m, ts in zip(box.shape, t)))
    core = tuple(slice(ts, ts + m) for m, ts in zip(box.shape, t))
    out[core] += law.zeta0 * box
    for s in range(law.d):
        for r, w in enumerate(law.weights[s], start=1):
            for shift in (-r, r):
                dest = list(core)
                dest[s] = slice(t[s] + shift, t[s] + shift + box.shape[s])
                out[tuple(dest)] += 0.5 * w * box
    return out


def padded_step(orthant: np.ndarray, law) -> np.ndarray:
    """Reference: one orthant step in a fresh padded array, the arithmetic of
    the stepping kernel in the same order (ghost reflection, then zeta0*m,
    then += (m(z - r*e_s) + m(z + r*e_s)) * (w/2), axis-major and by
    increasing r)."""
    t = law.ranges
    radius = tuple(m - 1 + ts for m, ts in zip(orthant.shape, t))
    padded = np.zeros(tuple(r + 1 + 2 * ts for r, ts in zip(radius, t)))
    padded[tuple(slice(ts, ts + m) for m, ts in zip(orthant.shape, t))] = orthant
    for s in range(law.d):
        lead = (slice(None),) * s
        padded[lead + (slice(None, t[s]),)] = padded[lead + (slice(2 * t[s], t[s], -1),)]
    core = tuple(slice(ts, ts + r + 1) for r, ts in zip(radius, t))
    out = law.zeta0 * padded[core]
    for s in range(law.d):
        for r, w in enumerate(law.weights[s], start=1):
            if w <= 0.0:
                continue
            lo, hi = list(core), list(core)
            lo[s] = slice(t[s] - r, t[s] - r + radius[s] + 1)
            hi[s] = slice(t[s] + r, t[s] + r + radius[s] + 1)
            term = padded[tuple(lo)] + padded[tuple(hi)]
            term *= 0.5 * w
            out += term
    return out


def reference_axis_mixture(law, probes, points):
    """Reference: each axis's 1-d law stepped on its own by ``padded_step``,
    recording the cells at the points and the row total at every k, then
    mixed as ``axis_mixture`` mixes."""
    n_max = max(probes)
    cols = len(points) + 1
    p, tables = [], []
    for s in range(law.d):
        p_s, axis = exact_dist._axis_step(law, s)
        at = np.array([abs(z[s]) for z in points], dtype=np.int64)
        table = np.empty((n_max + 1, cols))
        row = np.ones(1)
        for k in range(n_max + 1):
            if k:
                row = padded_step(row, axis)
            r = len(row) - 1
            table[k, :-1] = np.where(at <= r, row[np.minimum(at, r)], 0.0)
            table[k, -1] = LatticeDist(n=k, mass=row).total()
        p.append(p_s)
        tables.append(table)
    mixed = tables[-1]
    for s in range(law.d - 2, -1, -1):
        tail = math.fsum(p[s:])
        a, b = p[s] / tail, math.fsum(p[s + 1 :]) / tail
        out = np.zeros((n_max + 1, cols))
        weights = np.ones(1)
        for m in range(n_max + 1):
            if m:
                step = np.zeros(m + 1)
                step[:-1] = b * weights
                step[1:] += a * weights
                weights = step
            out[m] = (weights[:, None] * tables[s][: m + 1] * mixed[m::-1]).sum(axis=0)
        mixed = out
    return mixed[probes, :-1], mixed[probes, -1]


def test_symmetry_bit_exact():
    # Each reflection z_s -> -z_s on its own, not only z -> -z, read
    # through ``dist_at`` at every point of the box.
    for d, n in [(1, 30), (2, 12), (3, 6)]:
        dist = walk_dist(LAWS[d], n)
        for z in itertools.product(*(range(-r, r + 1) for r in dist.radius)):
            p = dist_at(dist, z)
            for s in range(d):
                assert dist_at(dist, z[:s] + (-z[s],) + z[s + 1 :]) == p
            assert dist_at(dist, [-c for c in z]) == p


@pytest.mark.parametrize(
    "law, n_max",
    [
        (LAWS[1], 40),
        (LAWS[2], 40),
        (LAWS[3], 20),
        (SIMPLE, 40),
        (lazy_simple_law(2, 1.0 / 3.0), 40),
        (validate(2, 0.0, [[0.3, 0.0, 0.2], [0.5]]), 40),
    ],
    ids=["multi-1d", "multi-2d", "multi-3d", "simple-1d", "lazy-2d", "bipartite-2d"],
)
def test_matches_full_box_reference(law, n_max):
    # The orthant, mirrored, vs the full-box stencil: same zero cells, and
    # every nonzero cell within 1e-13 relative.  The kernel's step is bit
    # for bit the fresh padded step, and walk_dist's n in-place steps are
    # bit for bit n chained convolve_step calls.
    dist = delta_dist(law)
    ref = padded = dist.mass
    for _ in range(n_max):
        dist = convolve_step(dist, law)
        ref = reference_step(ref, law)
        padded = padded_step(padded, law)
        assert ref.shape == tuple(2 * r + 1 for r in dist.radius)
        box = full_box(dist)
        assert box.shape == ref.shape
        nonzero = ref != 0.0
        assert np.array_equal(box != 0.0, nonzero)
        rel = np.abs(box[nonzero] - ref[nonzero]) / ref[nonzero]
        assert rel.max() <= 1e-13
        assert np.array_equal(dist.mass, padded)
    assert np.array_equal(walk_dist(law, n_max).mass, dist.mass)


@pytest.mark.parametrize(
    "law, n_max",
    [
        (LAWS[1], 40),
        (SIMPLE, 40),
        (LAWS[2], 30),
        (lazy_simple_law(2, 1.0 / 3.0), 30),
        (validate(2, 0.0, [[0.3, 0.0, 0.2], [0.5]]), 30),
        (validate(2, 0.04, [[0.5, 0.05], [0.41]]), 30),
        (LAWS[3], 10),
    ],
    ids=["multi-1d", "simple-1d", "multi-2d", "lazy-2d", "bipartite-2d", "small-atoms-2d", "multi-3d"],
)
def test_axis_mixture_matches_convolution(law, n_max):
    # Every cell of the n_max box, at unsorted and repeated probes and n = 0:
    # the cells convolution leaves exactly 0.0 (parity, reach) are exactly
    # 0.0, and every other cell is within 1e-12 relative.  With points
    # beyond reach added, mass and total are bit for bit those of each axis
    # stepped on its own.
    probes = [n_max, 0, 7, n_max, 3]
    top = walk_dist(law, n_max).radius
    points = list(itertools.product(*(range(-r, r + 1) for r in top)))
    mass, total = axis_mixture(law, probes, points)
    assert mass.shape == (len(probes), len(points))
    for i, n in enumerate(probes):
        dist = walk_dist(law, n)
        ref = np.zeros(tuple(2 * r + 1 for r in top))
        ref[tuple(slice(R - r, R + r + 1) for R, r in zip(top, dist.radius))] = full_box(dist)
        ref = ref.ravel()
        nonzero = ref != 0.0
        assert np.array_equal(mass[i] != 0.0, nonzero)
        assert (np.abs(mass[i][nonzero] - ref[nonzero]) / ref[nonzero]).max() <= 1e-12
        assert abs(total[i] - 1.0) <= 1e-12
    assert mass[1, points.index((0,) * law.d)] == 1.0
    far = points + [tuple(3 * n_max * t for t in law.ranges), (n_max * law.max_range + 1,) * law.d]
    mass, total = axis_mixture(law, probes, far)
    ref_mass, ref_total = reference_axis_mixture(law, probes, far)
    assert np.array_equal(mass, ref_mass)
    assert np.array_equal(total, ref_total)


def leaky_steps(monkeypatch, q):
    """Make every step of the orthant kernel keep only the fraction q of the
    mass: each coefficient of the step law is scaled by q."""
    real = exact_dist._orthant_steps

    def steps(start, t, zeta0, terms, n):
        return real(start, t, q * zeta0, [(s, r, q * c) for s, r, c in terms], n)

    monkeypatch.setattr(exact_dist, "_orthant_steps", steps)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_axis_mixture_total_is_mixed_from_row_totals(monkeypatch, d):
    # A step that keeps half the mass leaves q^k on every k-step 1-d row, so
    # the mixture's whole mass at n is q^n, not the constant 1.
    q = 0.5
    leaky_steps(monkeypatch, q)
    probes = [0, 5, 9]
    _, total = axis_mixture(LAWS[d], probes, [(0,) * d])
    assert np.allclose(total, [q**n for n in probes], rtol=1e-12, atol=0.0)


def test_axis_mixture_refuses_bad_input():
    # A probe or a point off the integers is refused, never truncated.
    for probe in (-1, 2.5, True):
        with pytest.raises(ValueError, match="^number of steps must be"):
            axis_mixture(SIMPLE, [3, probe], [(0,)])
    with pytest.raises(ValueError, match="^every point needs 1 coordinates$"):
        axis_mixture(SIMPLE, [3], [(0, 0)])
    for coord in (0.5, True, "1"):
        with pytest.raises(ValueError, match="is not a lattice point$"):
            axis_mixture(SIMPLE, [4], [(0,), (coord,)])


def test_bipartite_parity_zero_pattern():
    assert classify(SIMPLE) is WalkClass.BIPARTITE
    d = walk_dist(SIMPLE, 9)
    for z in range(-9, 10):
        if (9 - z) % 2:
            assert dist_at(d, (z,)) == 0.0
    # Odd ranges only, in 2-d: every cell of the wrong parity is exactly 0.0.
    law = validate(2, 0.0, [[0.3, 0.0, 0.2], [0.5]])
    assert classify(law) is WalkClass.BIPARTITE
    for n in (7, 8):
        dist = walk_dist(law, n)
        box = full_box(dist)
        z1, z2 = np.indices(box.shape)
        wrong = (z1 - dist.radius[0] + z2 - dist.radius[1] - n) % 2 == 1
        assert np.all(box[wrong] == 0.0)
        assert np.all(box[~wrong & (np.abs(z1 - dist.radius[0]) <= 1)] > 0.0)


def test_capacity_budget(monkeypatch):
    monkeypatch.setattr(config, "ELEMENT_BUDGET", 10)
    with pytest.raises(errors.CapacityExceeded):
        walk_dist(SIMPLE, 10)


def test_walk_budget_checked_before_first_step(monkeypatch):
    # The stepping buffers are checked before any step is taken or any
    # buffer allocated: the kernel yields no stage.
    calls = []
    real = exact_dist._orthant_steps

    def spy(*a, **k):
        for stage in real(*a, **k):
            calls.append(1)
            yield stage

    monkeypatch.setattr(exact_dist, "_orthant_steps", spy)
    law = lazy_simple_law(2, 1.0 / 3.0)
    with monkeypatch.context() as budget:
        budget.setattr(config, "ELEMENT_BUDGET", 200**2)
        with pytest.raises(errors.CapacityExceeded):
            walk_dist(law, 10**6)
    assert calls == []
    tracemalloc.start()
    try:
        with pytest.raises(errors.CapacityExceeded):
            walk_dist(law, 20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert calls == []
    monkeypatch.setattr(config, "ELEMENT_BUDGET", 199**2)
    assert walk_dist(law, 99).radius == (99, 99)


def test_stepping_buffers_charged_before_allocating(monkeypatch):
    # In d = 1 the two padded stepping buffers, 2*(n*t + 1 + 2*t) cells, hold
    # more than the n-step box (2*n*t + 1) and than the axis tables
    # (n + 1 rows of a point and a total): a budget that holds those but not
    # the buffers is refused before any buffer is allocated, by walk_dist,
    # which charges only the buffers, and by axis_mixture, after its tables.
    n = 10**5
    monkeypatch.setattr(config, "ELEMENT_BUDGET", 2 * n + 2)
    refusal = r"^two stepping buffers \(100003,\) exceeds element budget 200002 \(200006 elements\)$"
    tracemalloc.start()
    try:
        with pytest.raises(errors.CapacityExceeded, match=refusal):
            walk_dist(SIMPLE, n)
        with pytest.raises(errors.CapacityExceeded, match=refusal):
            axis_mixture(SIMPLE, [n], [(0,)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    monkeypatch.setattr(config, "ELEMENT_BUDGET", 2 * (3 * 10 + 1 + 2 * 3))
    assert walk_dist(LAWS[1], 10).radius == (30,)


def test_one_budget_governs_every_dense_path(monkeypatch):
    # Lowering the one constant once reaches every budgeted entry point,
    # and each refuses its over-budget input before allocating it.
    law = lazy_simple_law(2, 1.0 / 3.0)
    dist = walk_dist(law, 200)
    wide = SiteCounts.from_mapping({(x, y): 1 for x, y in ((-127, 0), (127, 0), (0, -127), (0, 127))}, 2)
    deep = SiteCounts.from_mapping({(0,): 2**77}, 1)
    binary = validate_offspring({2: 1.0})
    # (what the refusal names, as a regex; call of a budgeted entry point)
    calls = [
        (r"two stepping buffers \(203, 203\)", lambda: walk_dist(law, 200)),
        ("axis tables for 100000 steps", lambda: axis_mixture(law, [10**5], [(0, 0)])),
        (r"two stepping buffers \(204, 204\)", lambda: convolve_step(dist, law)),
        ("CF grid", lambda: cf_invert_box(law, 200)),
        ("CF grid", lambda: fit_correction_coefficients(law, (0, 0), (2, 4, 200))),
        (r"two stepping buffers \(203, 203\)", lambda: gamma_residual(law, 200, (0, 0))),
        (r"a box of radius \(200, 200\)", lambda: SiteCounts.from_mapping({(200, 0): 1, (0, 200): 1}, 2)),
        (
            "the next generation's box",
            lambda: simulate(binary, law, [ReplicateSeed(0, 0)], [1], start=GenerationState(0, wide)),
        ),
        (
            "the next generation's box and count blocks",
            lambda: simulate(binary, SIMPLE, [ReplicateSeed(0, 0)], [1], 128, start=GenerationState(0, deep)),
        ),
    ]
    # The first BRW step of a process leaves ~0.7 MB allocated for good;
    # one in-budget step before tracing keeps that out of the peak,
    # whichever tests ran before.
    simulate(binary, SIMPLE, [ReplicateSeed(0, 0)], [1])
    monkeypatch.setattr(config, "ELEMENT_BUDGET", 2**16)
    tracemalloc.start()
    try:
        refusal = r" exceeds element budget 65536 \(\d+ elements\)$"
        for what, call in calls:
            with pytest.raises(errors.CapacityExceeded, match="^" + what + refusal):
                call()
        with pytest.raises(errors.ConfigError, match=r"^n_values: the 200-step CF grid \(405, 405\)" + refusal):
            load_config({"experiment": "llt-check", "step_law": law_to_dict(law), "n_values": [200]})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_negative_steps_refused():
    for n in (-3, 2.5, True):
        with pytest.raises(ValueError, match="^number of steps must be"):
            walk_dist(SIMPLE, n)
        with pytest.raises(ValueError, match="^number of steps must be"):
            cf_invert_box(SIMPLE, n)


@pytest.mark.parametrize("route", [walk_dist, cf_invert_box], ids=["walk", "cf"])
def test_integral_float_steps(route):
    # n = 2.0 is the step count 2, as it is in a config.
    dist = route(LAWS[2], 2.0)
    assert dist.n == 2 and type(dist.n) is int
    assert np.array_equal(dist.mass, route(LAWS[2], 2).mass)


def test_cf_invert_n0():
    assert abs(dist_at(cf_invert_box(SIMPLE, 0), (0,)) - 1.0) <= 1e-12


def test_cf_invert_simple_n2():
    assert abs(dist_at(cf_invert_box(SIMPLE, 2), (0,)) - 0.5) <= 1e-10


def test_cf_invert_parity_zero():
    assert abs(dist_at(cf_invert_box(SIMPLE, 3), (0,))) <= 1e-10


def test_cf_budget_checked_before_allocating(monkeypatch):
    # A (2*10^5 + 1)^2 grid exceeds the element budget; the check must come first.
    law = lazy_simple_law(2, 1.0 / 3.0)
    tracemalloc.start()
    try:
        with pytest.raises(errors.CapacityExceeded):
            cf_invert_box(law, 10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    monkeypatch.setattr(config, "ELEMENT_BUDGET", 10)
    with pytest.raises(errors.CapacityExceeded):
        cf_invert_box(SIMPLE, 10)


def test_cf_grid_is_least_5_smooth():
    # Brute force: the sizes 2^a 3^b 5^c up to 15001, the largest 2*n*t + 1
    # below, and for each axis the least of them >= 2*n*t_s + 1.
    smooth = sorted(
        2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(6) if 2**a * 3**b * 5**c <= 15001
    )
    assert smooth[-1] == 15000
    law = validate(3, 0.1, [[0.3], [0.2, 0.1], [0.1, 0.1, 0.1]])
    for n in range(2500):
        want = tuple(next(m for m in smooth if m >= 2 * n * t + 1) for t in law.ranges)
        assert cf_grid(law, n) == want
    assert cf_grid(LAZY, 120) == (243,)
    assert cf_grid(LAZY, 4096) == (8640,)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 240, 4096])
def test_power_by_squaring_matches_pow(n):
    # Within (n+1)*eps of x**n, relative to the result or, where it is
    # subnormal, to the smallest normal number.
    rng = np.random.default_rng(n)
    x = np.concatenate([rng.uniform(-1.0, 1.0, 4000), 1.0 - rng.uniform(0.0, 1e-2, 4000), [-1.0, 0.0, 1.0]])
    ref = x**n
    got = exact_dist._power(x.copy(), n)
    info = np.finfo(float)
    assert np.all(np.abs(got - ref) <= (n + 1) * info.eps * np.maximum(np.abs(ref), info.tiny))


def reference_cf_invert_box(law, n) -> np.ndarray:
    """Reference: ``cf_invert_box``'s orthant from whole-grid stages.  psi
    on the whole half grid (zeta0 + a_0 + a_1 + ..., in that order), its
    n-th power by ``_power``, then each axis cast to complex with that axis
    innermost, inverted by ``irfft`` and cut to its orthant cells."""
    grid = cf_grid(law, n)
    psi = np.full((1,) * law.d, law.zeta0)
    for s, m in enumerate(grid):
        phi = 2.0 * np.pi * np.arange(m // 2 + 1) / m
        axis = np.zeros_like(phi)
        for r, w in enumerate(law.weights[s], start=1):
            if w > 0.0:
                axis = axis + w * np.cos(r * phi)
        psi = psi + axis.reshape([len(phi) if t == s else 1 for t in range(law.d)])
    vals = exact_dist._power(psi, n)
    for s, (m, t) in enumerate(zip(grid, law.ranges)):
        spectrum = np.moveaxis(np.moveaxis(vals, s, -1).astype(complex, order="C"), -1, s)
        vals = np.fft.irfft(spectrum, n=m, axis=s)[(slice(None),) * s + (slice(n * t + 1),)]
    return vals


@pytest.mark.parametrize("one_lane", [False, True], ids=["default-slices", "one-lane-slices"])
@pytest.mark.parametrize(
    "law",
    [
        SIMPLE,
        LAWS[1],
        validate(2, 0.0, [[0.3, 0.0, 0.2], [0.5]]),
        LAWS[2],
        LAWS[3],
        validate(3, 0.0, [[0.4], [0.3], [0.3]]),
    ],
    ids=["simple-1d", "multi-1d", "bipartite-2d", "multi-2d", "multi-3d", "simple-3d"],
)
def test_cf_slices_match_whole_grid(monkeypatch, law, one_lane):
    # Inverting slice by slice changes no cell: bit for bit the whole-grid
    # route, at the default slice size and at one lane per slice.
    if one_lane:
        monkeypatch.setattr(exact_dist, "CF_SLICE_CELLS", 1)
    for n in (0, 1, 7, 24):
        mass = cf_invert_box(law, n).mass
        ref = reference_cf_invert_box(law, n)
        assert mass.shape == ref.shape
        assert np.array_equal(mass, ref)


@pytest.mark.parametrize("n, bound", [(240, 2.0), (1024, 1.5)])
def test_cf_peak_memory_is_near_the_orthant(n, bound):
    # No whole-grid temporary: the traced peak stays within a small multiple
    # of the orthant's bytes.  Whole-grid stages reach 4.1x at n = 240 and
    # 4.4x at n = 1024 on this 2-d law of ranges (2, 1).
    law = validate(2, 0.2, [[0.25, 0.15], [0.4]])
    orthant = (2 * n + 1) * (n + 1) * 8
    tracemalloc.start()
    try:
        cf_invert_box(law, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * orthant


@pytest.mark.parametrize(
    "law, n",
    [(LAZY, 120), (lazy_simple_law(2, 1.0 / 3.0), 48), (LAWS[2], 24), (LAWS[3], 8)],
    ids=["lazy-1d-241", "lazy-2d-97", "multi-2d-97", "multi-3d"],
)
def test_cf_on_padded_grid_matches_convolution(law, n):
    # 2*n*t_s + 1 is not 5-smooth on any axis, so the CF grid is padded and
    # the orthant is cut from it; every cell within 1e-15 of convolution.
    assert all(m > b for m, b in zip(cf_grid(law, n), box_shape(law, n)))
    box = cf_invert_box(law, n)
    dist = walk_dist(law, n)
    assert box.radius == dist.radius
    assert np.abs(box.mass - dist.mass).max() <= 1e-15


def full_spectrum_box(law, n) -> np.ndarray:
    """Reference: psi on the whole odd torus grid of 2*n*t_s + 1 points and
    the complex inverse FFT, rolled so that the origin sits at index n*t_s."""
    shape = box_shape(law, n)
    psi = np.full((1,) * law.d, law.zeta0)
    for s, m in enumerate(shape):
        phi = 2.0 * np.pi * np.arange(m) / m
        axis = sum(w * np.cos(r * phi) for r, w in enumerate(law.weights[s], start=1) if w > 0.0)
        psi = psi + axis.reshape([m if t == s else 1 for t in range(law.d)])
    return np.roll(np.fft.ifftn(psi**n).real, [n * t for t in law.ranges], axis=tuple(range(law.d)))


@pytest.mark.parametrize(
    "law, n",
    [
        (LAWS[1], 40),
        (SIMPLE, 41),
        (LAWS[2], 20),
        (validate(2, 0.0, [[0.3, 0.0, 0.2], [0.5]]), 15),
        (LAWS[3], 8),
    ],
    ids=["multi-1d", "simple-1d", "multi-2d", "bipartite-2d", "multi-3d"],
)
def test_half_spectrum_cf_matches_full_spectrum(law, n):
    # ``cf_invert_box`` samples a padded half grid; its orthant, mirrored,
    # is within 1e-15 of the whole box of the full-spectrum reference.
    ref = full_spectrum_box(law, n)
    box = cf_invert_box(law, n)
    assert box.radius == tuple(n * t for t in law.ranges)
    assert box.mass.shape == tuple(n * t + 1 for t in law.ranges)
    assert np.abs(full_box(box) - ref).max() <= 1e-15


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("sigma", [0.0, 1.0 / 3.0])
def test_oracle_equivalence(d, sigma):
    # convolution vs sampled-CF inversion on the whole box, all n <= 50
    law = lazy_simple_law(d, sigma)
    dist = delta_dist(law)
    for n in range(1, 51):
        dist = convolve_step(dist, law)
        box = cf_invert_box(law, n)
        assert box.radius == dist.radius
        assert np.abs(dist.mass - box.mass).max() <= 1e-9


ORTHANT_LAWS = {
    "simple-1d": SIMPLE,
    "bipartite-2d": validate(2, 0.0, [[0.3, 0.0, 0.2], [0.5]]),
    "lazy-2d": lazy_simple_law(2, 1.0 / 3.0),
    "lazy-3d": lazy_simple_law(3, 0.25),
    "multi-3d": LAWS[3],
}


@pytest.mark.parametrize("law", ORTHANT_LAWS.values(), ids=ORTHANT_LAWS.keys())
@pytest.mark.parametrize("n", [0, 1, 5, 12])
def test_orthant_reads_the_box(law, n):
    # ``dist_at`` reads orthant cell |z| for every sign pattern of every
    # point, within 1e-15 of the full-spectrum CF box, and 0.0 beyond reach.
    dist = cf_invert_box(law, n)
    reach = tuple(n * t for t in law.ranges)
    assert dist.mass.shape == tuple(r + 1 for r in reach)
    ref = full_spectrum_box(law, n)
    for z in itertools.product(*(range(-r - 2, r + 3) for r in reach)):
        cell = tuple(abs(c) for c in z)
        if all(k <= r for k, r in zip(cell, reach)):
            assert dist_at(dist, z) == dist.mass[cell]
            assert abs(dist_at(dist, z) - ref[tuple(c + r for c, r in zip(z, reach))]) <= 1e-15
        else:
            assert dist_at(dist, z) == 0.0
    assert dist_at(dist, [-(10**6)] * law.d) == 0.0


@pytest.mark.parametrize(
    "dist", [walk_dist(lazy_simple_law(2, 0.5), 3), cf_invert_box(SIMPLE, 4)], ids=["walk-2d", "cf-1d"]
)
def test_dist_at_needs_d_coordinates(dist):
    # A point one coordinate short or long is refused, inside reach or not,
    # and so is one with a coordinate off the integers.
    for z in [(0,) * (dist.d - 1), (0,) * (dist.d + 1), (10**6,) * (dist.d + 1)]:
        with pytest.raises(ValueError, match=f"^every point needs {dist.d} coordinates$"):
            dist_at(dist, z)
    for coord in (0.5, True, "1"):
        with pytest.raises(ValueError, match="is not a lattice point$"):
            dist_at(dist, (coord, *(0,) * (dist.d - 1)))
    assert dist_at(dist, (1.0,) * dist.d) == dist_at(dist, (1,) * dist.d)


@pytest.mark.parametrize("law", ORTHANT_LAWS.values(), ids=ORTHANT_LAWS.keys())
@pytest.mark.parametrize("n", [0, 7, 24])
def test_orthant_negative_mass_is_the_box_sum(law, n):
    # Mirror multiplicities 2^(nonzero coordinates) give the whole box's
    # negative mass and total up to the order of the sum.
    dist = cf_invert_box(law, n)
    box = full_box(dist)
    full = -float(np.minimum(box, 0.0).sum())
    assert abs(dist.negative_mass() - full) <= 1e-12 * abs(full)
    assert abs(dist.total() - box.sum()) <= 1e-12
    # A hand-made orthant: its cells stand for 1, 2, 2 and 4 box cells, and
    # summing leaves them as they are.
    cells = np.array([[-1.0, -3.0], [-5.0, 7.0]])
    hand = LatticeDist(n=1, mass=cells.copy())
    assert hand.negative_mass() == 1.0 + 2 * 3.0 + 2 * 5.0
    assert hand.total() == -1.0 - 2 * 3.0 - 2 * 5.0 + 4 * 7.0
    assert np.array_equal(hand.mass, cells)


def test_longer_range_law_oracles_agree():
    law = validate(1, 0.0, [[0.5, 0.0, 0.5]])
    d = walk_dist(law, 20)
    box = cf_invert_box(law, 20)
    for z in [(0,), (2,), (6,), (-10,)]:
        assert abs(dist_at(d, z) - dist_at(box, z)) <= 1e-9


def test_dump_csv(tmp_path):
    d = walk_dist(SIMPLE, 2)
    path = tmp_path / "dist.csv"
    dump_csv(d, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "z1,probability"
    rows = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert rows == {-2: 0.25, 0: 0.5, 2: 0.25}


def dump_csv_cell_loop(dist, path):
    """Reference writer: visit every cell of the mirrored box in C order."""
    box = full_box(dist)
    with open(path, "w") as fh:
        cols = ",".join(f"z{s + 1}" for s in range(dist.d))
        fh.write(f"{cols},probability\n")
        for idx in np.ndindex(*box.shape):
            z = tuple(idx[s] - dist.radius[s] for s in range(dist.d))
            p = box[idx]
            if p != 0.0:
                zs = ",".join(str(c) for c in z)
                fh.write(f"{zs},{p:.17g}\n")


@pytest.mark.parametrize("slice_cells", [exact_dist.DUMP_SLICE_CELLS, 7])
@pytest.mark.parametrize(
    "law, n",
    [(validate(2, 0.0, [[0.3, 0.0, 0.2], [0.5]]), 9), (lazy_simple_law(1, 1.0 / 3.0), 40)],
    ids=["bipartite-2d", "lazy-1d"],
)
def test_dump_csv_matches_cell_loop(tmp_path, monkeypatch, law, n, slice_cells):
    # a slice of 7 cells puts slice boundaries inside rows and zero runs
    monkeypatch.setattr(exact_dist, "DUMP_SLICE_CELLS", slice_cells)
    dist = walk_dist(law, n)
    assert (dist.mass == 0.0).any() == (classify(law) is WalkClass.BIPARTITE)
    dump_csv(dist, tmp_path / "fast.csv")
    dump_csv_cell_loop(dist, tmp_path / "loop.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def test_dump_csv_memory_is_bounded(tmp_path, monkeypatch):
    # 2^13 nonzero cells in slices of 2^10: formatting the whole box in one
    # pass takes about 1 MiB of python objects, a slice about 0.15 MiB.
    monkeypatch.setattr(exact_dist, "DUMP_SLICE_CELLS", 2**10)
    cells = 2**13
    dist = LatticeDist(n=0, mass=np.full(cells // 2 + 1, 1.0 / cells))
    tracemalloc.start()
    try:
        dump_csv(dist, tmp_path / "big.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19
    assert (tmp_path / "big.csv").read_text().count("\n") == cells + 2
