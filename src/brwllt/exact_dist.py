"""Exact n-step distributions: the stepped oracle, the axis mixture and CF.

Every step law puts w/2 on each of +-r*e_s, so every n-step law is
unchanged by each reflection z_s -> -z_s on its own, and its orthant
z >= 0 determines it.  That orthant is the one stored layout of an exact
law (``LatticeDist``): ``dist_at`` reads P(S_n = z) from cell |z|, the
whole-box sums (``LatticeDist.total``, ``LatticeDist.negative_mass``)
count each cell with its mirror multiplicity, and ``dump_csv`` writes the
rows of the whole box without building it.

Three routes give P(S_n = z).  The stepped oracle (``convolve_step``,
``walk_dist``) steps the orthant n times in one private kernel
(``_orthant_steps``), in place in two padded buffers.  The axis mixture
(``axis_mixture``) reads a few points without any d-dim array: a step
moves along one axis or stays put, so P(S_n = z) is a binomial mixture of
1-d k-step laws, all d of them stepped together as one stack by the same
kernel; every term is nonnegative, so its error is relative in every
cell.  The characteristic-function route (``cf_invert_box``) samples
psi(phi)^n on a uniform torus grid of least 5-smooth size >= 2*n*t_s + 1
per axis (``step_law.cf_grid``), on the orthant phi_s <= pi only, raises it to the
n-th power by repeated squaring, and inverts it with a real FFT per axis
into the orthant of the law; the integrand is a trigonometric polynomial
of known degree, so the grid rule is exact up to rounding and serves as a
genuinely independent second method.  Every route charges the element
budget (``config.charge``) before it allocates: the stepped oracle the kernel's two buffers,
the mixture its tables and then those buffers, the CF route its whole
grid.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import charge
from .step_law import StepLaw, cf_grid, lattice_point, step_count

DUMP_SLICE_CELLS = 2**14


@dataclass(frozen=True)
class LatticeDist:
    """Dense probability mass function of the n-step walk, on its orthant.

    The law has per-axis reflection symmetry, so ``mass`` holds only the
    cells z_s = 0 .. radius[s], cell z at index z; P(S_n = z) is cell |z|
    for every sign pattern (``dist_at``), on the box
    prod_s [-radius[s], radius[s]].  The dimension d and the radius are
    read from the shape of ``mass``.
    """

    n: int
    mass: np.ndarray

    @property
    def d(self) -> int:
        return self.mass.ndim

    @functools.cached_property
    def radius(self) -> tuple[int, ...]:
        return tuple(m - 1 for m in self.mass.shape)

    def total(self) -> float:
        """The whole box's mass."""
        return _mirror_sum(self.mass.copy())

    def negative_mass(self) -> float:
        """The whole box's negative mass, -sum min(P, 0)."""
        return -_mirror_sum(np.minimum(self.mass, 0.0))


def _mirror_sum(cells: np.ndarray) -> float:
    """The sum over the whole box of orthant ``cells``, which it overwrites:
    a cell with k nonzero coordinates stands for its 2^k mirror images, so
    it is doubled once per such coordinate."""
    for s in range(cells.ndim):
        cells[(slice(None),) * s + (slice(1, None),)] *= 2.0
    return float(cells.sum())


def delta_dist(law: StepLaw) -> LatticeDist:
    """The 0-step distribution: unit mass at the origin."""
    return LatticeDist(n=0, mass=np.ones((1,) * law.d))


def _orthant_steps(start: np.ndarray, t, zeta0, terms, n: int):
    """Step a stack of orthants n times, in place in two padded buffers.

    The one shift-and-add loop of the package.  ``start[b]`` holds the
    cells z >= 0 of a law with per-axis reflection symmetry, z_s = 0 ..
    radius_s on axis s + 1.  A step convolves every member of the stack
    with a step law of range t_s on axis s that keeps ``zeta0`` in place
    and puts c on each of +-r*e_s, for every (s, r, c) in ``terms``; zeta0
    and c are numbers, or columns of shape (len(start), 1, ...) that give
    each member its own coefficient.  The two buffers are charged to the
    element budget, then allocated at the size of the last stage, and take
    turns as input and output.  Axis s of a buffer holds z_s = -t_s ..
    radius_s + 2*t_s: before a step the t_s low ghost cells take the
    reflection (cell -k holds cell k), and the cells above the current
    radius are still zero, as the stages only grow.  A step computes only
    the window z_s = 0 .. radius_s + t_s: zeta0*m(z), then, axis-major and
    by increasing r, += (m(z - r*e_s) + m(z + r*e_s)) * c.  Yields, at
    every stage k = 0 .. n, the orthant z >= 0 of the buffer that holds it,
    zero above the stage's radius; the next step overwrites it.
    """
    radius = [m - 1 for m in start.shape[1:]]
    shape = (len(start), *(r + n * ts + 1 + 2 * ts for r, ts in zip(radius, t)))
    charge(f"two stepping buffers {shape}", 2 * math.prod(shape))
    src, dst = np.zeros(shape), np.zeros(shape)
    orthant = (slice(None), *(slice(ts, None) for ts in t))
    src[orthant][tuple(map(slice, start.shape))] = start
    yield src[orthant]
    for _ in range(n):
        radius = [r + ts for r, ts in zip(radius, t)]
        core = (slice(None), *(slice(ts, ts + r + 1) for r, ts in zip(radius, t)))
        for s, ts in enumerate(t, start=1):
            ghost, mirror = list(core), list(core)
            ghost[s], mirror[s] = slice(None, ts), slice(2 * ts, ts, -1)
            src[tuple(ghost)] = src[tuple(mirror)]
        out = dst[core]
        np.multiply(src[core], zeta0, out=out)
        for s, r, c in terms:
            lo, hi = list(core), list(core)
            lo[s + 1] = slice(t[s] - r, t[s] - r + radius[s] + 1)
            hi[s + 1] = slice(t[s] + r, t[s] + r + radius[s] + 1)
            term = src[tuple(lo)] + src[tuple(hi)]
            term *= c
            out += term
        src, dst = dst, src
        yield src[orthant]


def _stepped(dist: LatticeDist, law: StepLaw, n: int) -> LatticeDist:
    """``dist`` after n steps of ``law``: n kernel steps on its orthant, whose
    last stage, cut to the new radius, is the result."""
    terms = [(s, r, 0.5 * w) for s in range(law.d) for r, w in enumerate(law.weights[s], start=1) if w > 0.0]
    for stage in _orthant_steps(dist.mass[None], law.ranges, law.zeta0, terms, n):
        pass
    radius = tuple(r + n * t for r, t in zip(dist.radius, law.ranges))
    return LatticeDist(n=dist.n + n, mass=stage[(0, *(slice(r + 1) for r in radius))])


def convolve_step(dist: LatticeDist, law: StepLaw) -> LatticeDist:
    """One step of the walk: convolve the stored pmf with the step law.

    One step of the orthant kernel (``_orthant_steps``): zeta0*m(z) +
    sum (w/2)*(m(z - r*e_s) + m(z + r*e_s)) over the new orthant z >= 0,
    whose radius grows by t_s per axis; the low ghost cells hold the
    reflection, which every ``LatticeDist`` has by construction.  The
    kernel's buffers are charged to the element budget before they are
    allocated.
    """
    return _stepped(dist, law, 1)


def walk_dist(law: StepLaw, n: int) -> LatticeDist:
    """The n-step distribution: n steps of the orthant kernel, as in
    ``convolve_step``, in the same two buffers, which are charged to the
    element budget before the first step."""
    return _stepped(delta_dist(law), law, step_count(n))


def _axis_step(law: StepLaw, s: int) -> tuple[float, StepLaw]:
    """The probability p_s that a step falls on axis s, the lazy atom
    counting for axis 0, and the 1-d law of such a step."""
    stay = law.zeta0 if s == 0 else 0.0
    p = math.fsum((stay, *law.weights[s]))
    return p, StepLaw(zeta0=stay / p, weights=(tuple(w / p for w in law.weights[s]),))


def axis_mixture(law: StepLaw, probes, points) -> tuple[np.ndarray, np.ndarray]:
    """P(S_n = z) for every probe n and point z, without any d-dim array.

    Given how many of the n steps fall on each axis, the axes move
    independently, so P(S_n = z) is the mixture over k_0 + ... + k_{d-1} = n
    of prod_s P(X_s^(k_s) = z_s), X_s the walk of axis s's 1-d law
    (``_axis_step``), with multinomial weights.  The d axis laws are
    stepped together up to the largest probe, as one stack of 1-d rows in
    the orthant kernel of ``convolve_step`` (``_orthant_steps``): row s has
    its own zeta0 and w/2 columns, and a pair that its law lacks gets the
    coefficient 0.0, which adds exactly +0.0.  At each k only the cells at
    the points and each row's total, with mirror multiplicities, are
    recorded.  The axes are then mixed one at a time, last first: axis s
    takes k of the m steps left to axes s.. with weight C(m, k) a^k
    b^(m-k), a = p_s / sum_{t>=s} p_t and b = sum_{t>s} p_t / sum_{t>=s}
    p_t, built by the Pascal recurrence W[m, k] = a W[m-1, k-1] + b W[m-1,
    k], which never overflows.  Cost O(n^2) per point on each inner axis,
    O(n) on axis 0.

    Returns ``(mass, total)``: ``mass[i, j]`` is P(S_n = points[j]) at
    n = probes[i], and ``total[i]`` the mixture's whole mass at probes[i],
    mixed from the row totals; probes are read by ``step_count``, points by
    ``lattice_point``.  The recorded tables, then the kernel's buffers, are
    charged to the element budget before the first step.
    """
    probes = list(map(step_count, probes))
    points = [lattice_point(z, law.d) for z in points]
    n_max = max(probes, default=0)
    cols = len(points) + 1
    charge(f"axis tables for {n_max} steps", law.d * (n_max + 1) * cols)
    p, axes = zip(*(_axis_step(law, s) for s in range(law.d)))
    t = law.max_range
    padded = [a.weights[0] + (0.0,) * (t - a.max_range) for a in axes]
    terms = [(0, r, np.array([[0.5 * w[r - 1]] for w in padded])) for r in range(1, t + 1)]
    stages = _orthant_steps(np.ones((law.d, 1)), (t,), np.array([[a.zeta0] for a in axes]), terms, n_max)
    first = next(stages)  # the buffers are charged and allocated before the tables
    tables = np.empty((law.d, n_max + 1, cols))
    # A point beyond reach reads cell n_max*t + 1, which stays zero.
    at = np.array([[min(abs(z[s]), n_max * t + 1) for z in points] for s in range(law.d)], dtype=np.int64)
    rows, ranges = np.arange(law.d)[:, None], law.ranges
    for k, orthant in enumerate(itertools.chain([first], stages)):
        tables[:, k, :-1] = orthant[rows, at]
        for s, ts in enumerate(ranges):
            tables[s, k, -1] = _mirror_sum(orthant[s, : k * ts + 1].copy())
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
    """P(S_n = z): orthant cell |z|, or exactly 0 beyond the radius; z is
    read by ``lattice_point``."""
    idx = tuple(map(abs, lattice_point(z, dist.d)))
    if any(k > r for k, r in zip(idx, dist.radius)):
        return 0.0
    return float(dist.mass[idx])


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
    """P(S_n = .) on the reachable box, by inverting the sampled CF.

    The package's one CF sum.  psi^n is a trigonometric polynomial of
    degree n*t_s in phi_s, so its samples at any M_s >= 2*n*t_s + 1 points
    per axis determine every coefficient, with lattice point k at DFT index
    k mod M_s, and an inverse DFT returns them exactly up to rounding.  M_s
    is the least 5-smooth such size (``cf_grid``), which the FFT factors
    into small radices.  psi is real and even in each phi_s, so its samples
    with every phi_s <= pi determine the grid and are raised to the n-th
    power by repeated squaring; each axis in turn is inverted by a real FFT
    (``irfft``) and cut to the orthant cells 0 <= z_s <= n*t_s.  The full
    grid is charged to the element budget before anything is allocated,
    and each stage is cast to complex (the cast ``irfft`` would make, laid
    out with the transformed axis innermost) and dropped before its
    transform, so at most two stages are alive at once.  The error is
    absolute, about 1e-16, so far-tail cells are not relatively accurate.
    """
    n = step_count(n)
    grid = cf_grid(law, n)
    charge("CF grid", math.prod(grid))
    vals = _power(_psi_grid(law, [2.0 * np.pi * np.arange(m // 2 + 1) / m for m in grid]), n)
    for s, (m, t) in enumerate(zip(grid, law.ranges)):
        # Cast with axis s innermost: each transformed lane is then
        # contiguous, which speeds the FFT and leaves its values as they are.
        spectrum = np.moveaxis(np.moveaxis(vals, s, -1).astype(complex, order="C"), -1, s)
        del vals
        vals = np.fft.irfft(spectrum, n=m, axis=s)[(slice(None),) * s + (slice(n * t + 1),)]
        del spectrum
    return LatticeDist(n=n, mass=vals)


def dump_csv(dist: LatticeDist, path) -> None:
    """Write rows (z_1, ..., z_d, probability) of the nonzero cells of the
    box, in C order, with 17 significant digits.

    The box is visited ``DUMP_SLICE_CELLS`` flat cells at a time, each read
    from orthant cell |z|, so the box is never built and the extra memory
    stays bounded whatever its size.
    """
    shape = tuple(2 * r + 1 for r in dist.radius)
    size = math.prod(shape)
    row = ",".join(["%d"] * dist.d + ["%.17g"]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(f"z{s + 1}" for s in range(dist.d)) + ",probability\n")
        for start in range(0, size, DUMP_SLICE_CELLS):
            index = np.unravel_index(np.arange(start, min(start + DUMP_SLICE_CELLS, size)), shape)
            z = [i - r for i, r in zip(index, dist.radius)]
            p = dist.mass[tuple(np.abs(c) for c in z)]
            cells = np.flatnonzero(p)
            cols = [c[cells].tolist() for c in z] + [p[cells].tolist()]
            fh.write((row * cells.size) % tuple(itertools.chain.from_iterable(zip(*cols))))
