"""Exact n-step distributions: the stepped oracle, the axis mixture and CF.

Three routes give P(S_n = z).  The stepped oracle (``convolve_step``,
``walk_dist``) convolves the whole reachable box n times.  It uses the
per-axis reflection symmetry of every n-step law (orthant + mirror): each
step computes only the cells with every z_s >= 0 and mirrors them into
the full box.  The axis mixture (``axis_mixture``) reads a few points
without the box: a step moves along one axis or stays put, so P(S_n = z)
is a binomial mixture of 1-d k-step laws, each stepped by the same
``convolve_step``; every term is nonnegative, so its error is relative in
every cell.  The characteristic-function route (``cf_invert_box``) samples
psi(phi)^n on a uniform torus grid of least 5-smooth size >= 2*n*t_s + 1
per axis (``cf_grid``), on the orthant phi_s <= pi only, raises it to the
n-th power by repeated squaring, and inverts it with a real FFT per axis;
the integrand is a trigonometric polynomial of known degree, so the grid
rule is exact up to rounding and serves as a genuinely independent second
method.  Every route charges the element budget before it allocates; the
CF route charges its whole grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded
from .step_law import StepLaw

# The one memory policy of every dense array in the package, in elements;
# ``charge`` reads it at call time.
ELEMENT_BUDGET = 2**28
DUMP_SLICE_CELLS = 2**14


@dataclass(frozen=True)
class LatticeDist:
    """Dense probability mass function of the n-step walk.

    ``mass`` covers the box prod_s [-radius[s], radius[s]]; the lattice
    origin sits at index ``radius`` on each axis.
    """

    n: int
    d: int
    radius: tuple[int, ...]
    mass: np.ndarray

    def total(self) -> float:
        return float(self.mass.sum())


def delta_dist(law: StepLaw) -> LatticeDist:
    """The 0-step distribution: unit mass at the origin."""
    mass = np.zeros((1,) * law.d)
    mass[(0,) * law.d] = 1.0
    return LatticeDist(n=0, d=law.d, radius=(0,) * law.d, mass=mass)


def box_shape(law: StepLaw, n: int) -> tuple[int, ...]:
    """Shape of the box the n-step walk can reach: 2*n*t_s + 1 per axis."""
    return tuple(2 * n * t + 1 for t in law.ranges)


def charge(what: str, elements: int) -> None:
    """Refuse, before anything is allocated, ``elements`` dense elements
    that exceed ``ELEMENT_BUDGET``; ``what`` names them in the message."""
    if elements > ELEMENT_BUDGET:
        raise CapacityExceeded(f"{what} exceeds element budget {ELEMENT_BUDGET} ({elements} elements)")


def _unfold(orthant: np.ndarray, radius: tuple[int, ...]) -> np.ndarray:
    """The full box prod_s [-radius[s], radius[s]] of a law that is symmetric
    under each axis reflection, from its cells with every z_s >= 0."""
    full = orthant
    for s, r in enumerate(radius):
        shape = list(full.shape)
        shape[s] = 2 * r + 1
        out = np.empty(shape)
        lead = (slice(None),) * s
        out[lead + (slice(r, None),)] = full
        out[lead + (slice(None, r),)] = full[lead + (slice(r, 0, -1),)]
        full = out
    return full


def convolve_step(dist: LatticeDist, law: StepLaw) -> LatticeDist:
    """One step of the walk: convolve the stored pmf with the step law.

    Orthant + mirror.  Every step law puts w/2 on each of +-r*e_s, so the
    n-step law has per-axis reflection symmetry (z_s -> -z_s on each axis
    alone), and ``dist`` must have it too, as every distribution built by
    ``delta_dist`` and ``convolve_step`` does.  The step reads only the
    orthant z >= 0, pads it by t_s low ghost cells per axis that hold the
    reflection (cell -k holds cell k) and 2*t_s high zero cells, sums
    zeta0*m(z) + sum (w/2)*(m(z - r*e_s) + m(z + r*e_s)) over the new
    orthant in a fixed order (axis-major, increasing r), and mirrors the
    result into the full box, which grows by t_s per axis.  Mirroring makes
    the symmetry hold bit-exactly.  The output box is charged to the
    element budget before anything is allocated.
    """
    t = law.ranges
    d = law.d
    radius = tuple(dist.radius[s] + t[s] for s in range(d))
    charge("output tensor", math.prod(2 * r + 1 for r in radius))
    # Padded orthant: axis s holds z_s = -t_s .. radius[s] + t_s.
    padded = np.zeros(tuple(r + 1 + 2 * ts for r, ts in zip(radius, t)))
    padded[tuple(slice(ts, ts + r + 1) for r, ts in zip(dist.radius, t))] = dist.mass[
        tuple(slice(r, None) for r in dist.radius)
    ]
    for s in range(d):
        lead = (slice(None),) * s
        padded[lead + (slice(None, t[s]),)] = padded[lead + (slice(2 * t[s], t[s], -1),)]
    # Window of the new orthant, z_s = 0 .. radius[s], inside ``padded``.
    core = tuple(slice(ts, ts + r + 1) for r, ts in zip(radius, t))
    out = law.zeta0 * padded[core]
    for s in range(d):
        for r, w in enumerate(law.weights[s], start=1):
            if w <= 0.0:
                continue
            lo, hi = list(core), list(core)
            lo[s] = slice(t[s] - r, t[s] - r + radius[s] + 1)
            hi[s] = slice(t[s] + r, t[s] + r + radius[s] + 1)
            term = padded[tuple(lo)] + padded[tuple(hi)]
            term *= 0.5 * w
            out += term
    return LatticeDist(n=dist.n + 1, d=d, radius=radius, mass=_unfold(out, radius))


def walk_dist(law: StepLaw, n: int) -> LatticeDist:
    """The n-step distribution, built by repeated convolution.

    The n-step box is charged to the element budget before the first step.
    """
    if n < 0:
        raise ValueError(f"number of steps must be >= 0, got {n}")
    shape = box_shape(law, n)
    charge(f"{n}-step box {shape}", math.prod(shape))
    dist = delta_dist(law)
    for _ in range(n):
        dist = convolve_step(dist, law)
    return dist


def _axis_step(law: StepLaw, s: int) -> tuple[float, StepLaw]:
    """The probability p_s that a step falls on axis s, the lazy atom
    counting for axis 0, and the 1-d law of such a step."""
    stay = law.zeta0 if s == 0 else 0.0
    p = math.fsum((stay, *law.weights[s]))
    return p, StepLaw(d=1, zeta0=stay / p, weights=(tuple(w / p for w in law.weights[s]),))


def axis_mixture(law: StepLaw, probes, points) -> tuple[np.ndarray, np.ndarray]:
    """P(S_n = z) for every probe n and point z, without the d-dim box.

    Given how many of the n steps fall on each axis, the axes move
    independently, so P(S_n = z) is the mixture over k_0 + ... + k_{d-1} = n
    of prod_s P(X_s^(k_s) = z_s), X_s the walk of axis s's 1-d law
    (``_axis_step``), with multinomial weights.  Each axis is stepped once
    with ``convolve_step``, up to the largest probe, recording at each k
    only the cells at the points and the row total.  The axes are then
    mixed one at a time, last first: axis s takes k of the m steps left to
    axes s.. with weight C(m, k) a^k b^(m-k), a = p_s / sum_{t>=s} p_t and
    b = sum_{t>s} p_t / sum_{t>=s} p_t, built by the Pascal recurrence
    W[m, k] = a W[m-1, k-1] + b W[m-1, k], which never overflows.  Cost
    O(n^2) per point on each inner axis, O(n) on axis 0.

    Returns ``(mass, total)``: ``mass[i, j]`` is P(S_n = points[j]) at
    n = probes[i], and ``total[i]`` the mixture's whole mass at probes[i],
    mixed from the row totals.  The recorded tables are charged to the
    element budget before the first step.
    """
    probes = [int(n) for n in probes]
    if any(n < 0 for n in probes):
        raise ValueError(f"numbers of steps must be >= 0, got {probes}")
    points = [tuple(int(c) for c in z) for z in points]
    if any(len(z) != law.d for z in points):
        raise ValueError(f"every point needs {law.d} coordinates")
    n_max = max(probes, default=0)
    cols = len(points) + 1
    charge(f"axis tables for {n_max} steps", law.d * (n_max + 1) * cols)
    p, tables = [], []
    for s in range(law.d):
        p_s, axis = _axis_step(law, s)
        at = np.array([abs(z[s]) for z in points], dtype=np.int64)
        table = np.empty((n_max + 1, cols))
        dist = delta_dist(axis)
        for k in range(n_max + 1):
            if k:
                dist = convolve_step(dist, axis)
            r = dist.radius[0]
            table[k, :-1] = np.where(at <= r, dist.mass[r + np.minimum(at, r)], 0.0)
            table[k, -1] = dist.total()
        p.append(p_s)
        tables.append(table)
    # mixed[m]: the law of the steps on axes s.., given that m steps fall there.
    mixed = tables[-1]
    for s in range(law.d - 2, -1, -1):
        tail = math.fsum(p[s:])
        a, b = p[s] / tail, math.fsum(p[s + 1 :]) / tail
        wanted = set(probes) if s == 0 else range(n_max + 1)
        out = np.zeros((n_max + 1, cols))
        weights = np.ones(1)
        for m in range(n_max + 1):
            if m:
                step = np.zeros(m + 1)
                step[:-1] = b * weights
                step[1:] += a * weights
                weights = step
            if m in wanted:
                out[m] = (weights[:, None] * tables[s][: m + 1] * mixed[m::-1]).sum(axis=0)
        mixed = out
    return mixed[probes, :-1], mixed[probes, -1]


def dist_at(dist: LatticeDist, z) -> float:
    """P(S_n = z); exactly 0 outside the stored box."""
    idx = []
    for s, zs in enumerate(z):
        k = int(zs) + dist.radius[s]
        if not 0 <= k <= 2 * dist.radius[s]:
            return 0.0
        idx.append(k)
    return float(dist.mass[tuple(idx)])


def _psi_grid(law: StepLaw, phis) -> np.ndarray:
    """psi(phi) = zeta0 + sum_{s,r} zeta_{s,r} cos(r phi_s) on a product grid."""
    d = law.d
    out = np.full((1,) * d, law.zeta0)
    for s in range(d):
        axis = np.zeros_like(phis[s])
        for r, w in enumerate(law.weights[s], start=1):
            if w > 0.0:
                axis = axis + w * np.cos(r * phis[s])
        shape = [1] * d
        shape[s] = len(phis[s])
        out = out + axis.reshape(shape)
    return out


def _smooth(m: int) -> int:
    """The least 2^a 3^b 5^c >= m, a size the FFT factors into radix 2/3/5 passes."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            size = p35
            while size < m:
                size *= 2
            best = min(best, size)
            p35 *= 3
        p5 *= 5
    return best


def cf_grid(law: StepLaw, n: int) -> tuple[int, ...]:
    """Shape of the torus grid ``cf_invert_box`` samples: the least 5-smooth
    size >= 2*n*t_s + 1 per axis."""
    return tuple(_smooth(m) for m in box_shape(law, n))


def _power(x: np.ndarray, n: int) -> np.ndarray:
    """x**n by repeated squaring, overwriting x; one more array of x's size
    holds the base when n is not a power of 2."""
    if n == 0:
        x.fill(1.0)
        return x
    base = x.copy() if n & (n - 1) else None
    for bit in bin(n)[3:]:
        np.multiply(x, x, out=x)
        if bit == "1":
            np.multiply(x, base, out=x)
    return x


def cf_invert_box(law: StepLaw, n: int) -> LatticeDist:
    """All of P(S_n = .) on the reachable box, by inverting the sampled CF.

    psi^n is a trigonometric polynomial of degree n*t_s in phi_s, so its
    samples at any M_s >= 2*n*t_s + 1 points per axis determine every
    coefficient, with lattice point k at DFT index k mod M_s, and an
    inverse DFT returns them exactly up to rounding.  M_s is the least
    5-smooth such size (``cf_grid``), which the FFT factors into small
    radices.  Orthant + mirror, as in ``convolve_step``: psi is real and
    even in each phi_s, so its samples with every phi_s <= pi determine the
    grid and are raised to the n-th power by repeated squaring; each axis
    in turn is inverted by a real FFT (``irfft``) and cut to the lattice
    points 0 <= z_s <= n*t_s, and the orthant is mirrored into the box.
    The full grid is charged.  The error is absolute, about 1e-16, so
    far-tail cells are not relatively accurate.
    """
    if n < 0:
        raise ValueError(f"number of steps must be >= 0, got {n}")
    radius = tuple(n * t for t in law.ranges)
    grid = cf_grid(law, n)
    charge("CF grid", math.prod(grid))
    vals = _power(_psi_grid(law, [2.0 * np.pi * np.arange(m // 2 + 1) / m for m in grid]), n)
    for s, (m, r) in enumerate(zip(grid, radius)):
        vals = np.fft.irfft(vals, n=m, axis=s)[(slice(None),) * s + (slice(r + 1),)]
    return LatticeDist(n=n, d=law.d, radius=radius, mass=_unfold(vals, radius))


def dump_csv(dist: LatticeDist, path) -> None:
    """Write rows (z_1, ..., z_d, probability) of the nonzero cells, in C
    order, with 17 significant digits.

    The box is formatted ``DUMP_SLICE_CELLS`` flat cells at a time, so the
    extra memory stays bounded whatever the size of the box.
    """
    flat = dist.mass.ravel()
    row = ",".join(["%d"] * dist.d + ["%.17g"]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(f"z{s + 1}" for s in range(dist.d)) + ",probability\n")
        for start in range(0, flat.size, DUMP_SLICE_CELLS):
            cells = start + np.flatnonzero(flat[start : start + DUMP_SLICE_CELLS])
            index = np.unravel_index(cells, dist.mass.shape)
            cols = [(i - r).tolist() for i, r in zip(index, dist.radius)] + [flat[cells].tolist()]
            fh.write((row * cells.size) % tuple(itertools.chain.from_iterable(zip(*cols))))
