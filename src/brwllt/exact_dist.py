"""Exact n-step distributions by dense lattice convolution and CF inversion.

Both routes return the probability mass function of the n-step walk on
the solid box it can reach.  Convolution steps the walk n times and is
the oracle.  The characteristic-function route samples psi(phi)^n on a
uniform torus grid and inverts it with one FFT; the integrand is a
trigonometric polynomial of known degree, so the grid rule is exact up
to rounding and serves as a genuinely independent second method.  Both
check an element budget before they allocate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded
from .step_law import StepLaw

DEFAULT_ELEMENT_BUDGET = 2**28


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


def convolve_step(
    dist: LatticeDist,
    law: StepLaw,
    max_elements: int = DEFAULT_ELEMENT_BUDGET,
) -> LatticeDist:
    """One step of the walk: convolve the stored pmf with the step law.

    The output box grows by t_s per axis.  Summation order is fixed
    (axis-major, increasing r), and the result is symmetrized so that
    mass(z) == mass(-z) holds bit-exactly.
    """
    t = law.ranges
    radius = tuple(dist.radius[s] + t[s] for s in range(law.d))
    shape = tuple(2 * r + 1 for r in radius)
    if math.prod(shape) > max_elements:
        raise CapacityExceeded(
            f"output tensor {shape} exceeds element budget {max_elements}"
        )
    out = np.zeros(shape)
    # Window of the old box inside the new one.
    core = tuple(slice(t[s], t[s] + 2 * dist.radius[s] + 1) for s in range(law.d))
    if law.zeta0 > 0.0:
        out[core] += law.zeta0 * dist.mass
    for s in range(law.d):
        for r, w in enumerate(law.weights[s], start=1):
            if w <= 0.0:
                continue
            half = 0.5 * w * dist.mass
            for shift in (-r, r):
                dest = list(core)
                lo = t[s] + shift
                dest[s] = slice(lo, lo + 2 * dist.radius[s] + 1)
                out[tuple(dest)] += half
    rev = out[(slice(None, None, -1),) * law.d]
    out = 0.5 * (out + rev)
    return LatticeDist(n=dist.n + 1, d=law.d, radius=radius, mass=out)


def walk_dist(
    law: StepLaw,
    n: int,
    max_elements: int = DEFAULT_ELEMENT_BUDGET,
) -> LatticeDist:
    """The n-step distribution, built by repeated convolution."""
    if n < 0:
        raise ValueError(f"number of steps must be >= 0, got {n}")
    dist = delta_dist(law)
    for _ in range(n):
        dist = convolve_step(dist, law, max_elements=max_elements)
    return dist


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


def cf_invert_box(
    law: StepLaw,
    n: int,
    max_elements: int = DEFAULT_ELEMENT_BUDGET,
) -> LatticeDist:
    """All of P(S_n = .) on the reachable box, by inverting the sampled CF.

    psi^n is a trigonometric polynomial of degree n*t_s in phi_s, so its
    samples at 2*n*t_s + 1 points per axis determine every coefficient and
    an inverse DFT returns them exactly up to rounding.  The error is
    absolute, about 1e-16, so far-tail cells are not relatively accurate.
    """
    if n < 0:
        raise ValueError(f"number of steps must be >= 0, got {n}")
    radius = tuple(n * t for t in law.ranges)
    panel_counts = [2 * r + 1 for r in radius]
    if math.prod(panel_counts) > max_elements:
        raise CapacityExceeded(
            f"CF grid {tuple(panel_counts)} exceeds element budget {max_elements}"
        )
    phis = [2.0 * np.pi * np.arange(m) / m for m in panel_counts]
    psi = _psi_grid(law, phis)
    vals = np.fft.ifftn(psi**n).real
    # DFT index k corresponds to lattice point k mod M, centered by roll.
    vals = np.roll(vals, radius, axis=tuple(range(law.d)))
    return LatticeDist(n=n, d=law.d, radius=radius, mass=vals)


def dump_csv(dist: LatticeDist, path) -> None:
    """Write rows (z_1, ..., z_d, probability) with 17 significant digits."""
    with open(path, "w") as fh:
        cols = ",".join(f"z{s + 1}" for s in range(dist.d))
        fh.write(f"{cols},probability\n")
        for idx in np.ndindex(*dist.mass.shape):
            z = tuple(idx[s] - dist.radius[s] for s in range(dist.d))
            p = dist.mass[idx]
            if p != 0.0:
                zs = ",".join(str(c) for c in z)
                fh.write(f"{zs},{p:.17g}\n")
