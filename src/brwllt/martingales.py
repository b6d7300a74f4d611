"""Martingale functionals of a branching-random-walk generation.

Each functional is a per-particle polynomial f(x, n) whose one-step
annealed expectation over the step law reproduces f exactly (harmonicity);
the normalized particle sums m^{-n} sum_u f(S_u, n) are then martingales
and their limits feed the first- and second-order correction terms of the
occupation-count expansion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gw_brw import GenerationState, SiteCounts
from .llt import (
    ExpansionConstants,
    expansion_bracket,
    leading_factor,
    parity_matched,
    quad_form,
)
from .step_law import Moments, StepLaw, WalkClass

FUNCTIONALS = ("W", "N1", "N2", "N2z", "N3", "N4")


@dataclass(frozen=True)
class MartingaleReadout:
    """All martingale functionals evaluated on one generation."""

    n: int
    W: float
    N1: tuple[float, ...]
    N2: tuple[float, ...]
    N2z: float
    N3: tuple[float, ...]
    N4: float
    z: tuple[int, ...]  # designated point for N2z


@dataclass(frozen=True)
class LimitEstimates:
    """A readout frozen at a late generation as a stand-in for the limits."""

    V1: tuple[float, ...]
    V2: tuple[float, ...]
    V2z: float
    V3: tuple[float, ...]
    V4: float
    W_inf: float
    source_generation: int


def freeze(readout: MartingaleReadout) -> LimitEstimates:
    return LimitEstimates(
        V1=readout.N1,
        V2=readout.N2,
        V2z=readout.N2z,
        V3=readout.N3,
        V4=readout.N4,
        W_inf=readout.W,
        source_generation=readout.n,
    )


def _f_scalar(functional_id: str, mom: Moments, x, n: int, z) -> float:
    """Per-particle value of a scalar functional."""
    d = mom.d
    if functional_id == "W":
        return 1.0
    if functional_id == "N2z":
        gz = [float(z[s]) / mom.gamma2[s] for s in range(d)]
        dot = math.fsum(gz[s] * float(x[s]) for s in range(d))
        qz = math.fsum(gz[s] * float(z[s]) for s in range(d))
        return dot * dot - n * qz
    if functional_id == "N4":
        q = math.fsum(float(x[s]) ** 2 / mom.gamma2[s] for s in range(d))
        return (
            q * q
            - (4.0 + 2.0 * d) * n * q
            + d * (d + 2) * (n * n + n)
            - mom.tr_g4g2m2 * n
        )
    raise ValueError(f"not a scalar functional: {functional_id}")


def _f_vector(functional_id: str, mom: Moments, x, n: int):
    """Per-particle value of a vector functional."""
    d = mom.d
    if functional_id == "N1":
        return tuple(float(c) for c in x)
    if functional_id == "N2":
        return tuple(float(x[s]) ** 2 - n * mom.gamma2[s] for s in range(d))
    if functional_id == "N3":
        q = math.fsum(float(x[s]) ** 2 / mom.gamma2[s] for s in range(d))
        return tuple((q - (d + 2) * n) * float(x[s]) for s in range(d))
    raise ValueError(f"not a vector functional: {functional_id}")


def functional_value(functional_id: str, mom: Moments, x, n: int, z=None):
    if functional_id in ("W", "N2z", "N4"):
        return _f_scalar(functional_id, mom, x, n, z)
    return _f_vector(functional_id, mom, x, n)


def _power_sums(box: SiteCounts, degree: int) -> dict:
    """Exact sums sum_x c(x) x^alpha over the box, as python ints, for every
    multi-index alpha with |alpha| <= degree.

    The counts are cut into pieces narrow enough that every needed sum of
    piece * x^alpha over the box fits int64; the sums are contracted one
    axis at a time and recombined as python ints.  Entries with |alpha| >
    degree may wrap, but they never feed a needed one.  A box too wide for
    even one-bit pieces is summed in python ints throughout.
    """
    d = len(box.radius)
    width = 62 - (box.digits[0].size * max(max(box.radius), 1) ** degree).bit_length()
    dtype = np.int64 if width >= 1 else object
    powers = [
        np.arange(-r, r + 1).astype(dtype)[:, np.newaxis] ** np.arange(degree + 1).astype(dtype)
        for r in box.radius
    ]
    alphas = [a for a in itertools.product(range(degree + 1), repeat=d) if sum(a) <= degree]
    sums = dict.fromkeys(alphas, 0)
    for shift, piece in box.pieces(width if width >= 1 else 64):
        if not piece.any():
            continue
        piece = piece.astype(dtype, copy=False)
        for v in powers:
            piece = np.tensordot(piece, v, axes=([0], [0]))
        for a in alphas:
            sums[a] += int(piece[a]) << shift
    return sums


def readout(
    state: GenerationState, m: float, mom: Moments, z
) -> MartingaleReadout:
    """Evaluate every functional on a generation, scaled by m^{-n}.

    Every functional is a polynomial of degree <= 4 in the position, so a
    generation enters only through its exact integer power sums
    sum_u S_u^alpha, |alpha| <= 4.  These are combined with the float
    coefficients in exact rational arithmetic; the only roundings are the
    final conversion to float and the m^{-n} scaling, so counts above 2^53
    lose nothing before that.
    """
    from fractions import Fraction

    d = mom.d
    n = state.n
    sums = _power_sums(SiteCounts.from_mapping(state.counts, d), 4)

    def p(*axes):
        return sums[tuple(axes.count(s) for s in range(d))]

    g2 = [Fraction(g) for g in mom.gamma2]
    gz = [z[s] / g2[s] for s in range(d)]
    p0 = p()
    n1 = [p(s) for s in range(d)]
    q = sum(p(s, s) / g2[s] for s in range(d))
    n2 = [p(s, s) - n * g2[s] * p0 for s in range(d)]
    n2z = sum(gz[s] * gz[t] * p(s, t) for s in range(d) for t in range(d)) - n * sum(
        gz[s] * z[s] for s in range(d)
    ) * p0
    n3 = [sum(p(t, t, s) / g2[t] for t in range(d)) - (d + 2) * n * n1[s] for s in range(d)]
    n4 = (
        sum(p(s, s, t, t) / (g2[s] * g2[t]) for s in range(d) for t in range(d))
        - (4 + 2 * d) * n * q
        + (d * (d + 2) * (n * n + n) - Fraction(mom.tr_g4g2m2) * n) * p0
    )
    scale = m ** (-n)
    return MartingaleReadout(
        n=n,
        W=scale * float(p0),
        N1=tuple(scale * float(v) for v in n1),
        N2=tuple(scale * float(v) for v in n2),
        N2z=scale * float(n2z),
        N3=tuple(scale * float(v) for v in n3),
        N4=scale * float(n4),
        z=tuple(int(c) for c in z),
    )


def harmonicity_defect(
    functional_id: str,
    law: StepLaw,
    mom: Moments,
    x,
    n: int,
    z=None,
) -> float:
    """sum_atoms P(L = l) f(x + l, n + 1) - f(x, n), by exact summation.

    Zero up to rounding for every functional; vector functionals report
    the largest componentwise defect.
    """
    if functional_id in ("W", "N2z", "N4"):
        acc = [
            p * _f_scalar(functional_id, mom, tuple(x[s] + a[s] for s in range(law.d)), n + 1, z)
            for a, p in law.atoms()
        ]
        return math.fsum(acc) - _f_scalar(functional_id, mom, x, n, z)
    comps = [[] for _ in range(law.d)]
    for a, p in law.atoms():
        val = _f_vector(functional_id, mom, tuple(x[s] + a[s] for s in range(law.d)), n + 1)
        for s in range(law.d):
            comps[s].append(p * val[s])
    base = _f_vector(functional_id, mom, x, n)
    return max(abs(math.fsum(comps[s]) - base[s]) for s in range(law.d))


def f1_eval(est: LimitEstimates, c: ExpansionConstants, mom: Moments, z) -> float:
    """First-order correction term of the occupation-count expansion."""
    d = mom.d
    q = quad_form(mom, z)
    v1_term = math.fsum(est.V1[s] * float(z[s]) / mom.gamma2[s] for s in range(d))
    v2_term = math.fsum(est.V2[s] / mom.gamma2[s] for s in range(d))
    return (c.tau_d - 0.5 * q) * est.W_inf + v1_term - 0.5 * v2_term


def f2_eval(est: LimitEstimates, c: ExpansionConstants, mom: Moments, z) -> float:
    """Second-order correction term of the occupation-count expansion.

    The <Lambda z, z> contribution uses the printed Lambda; the exact
    arbiter (see the coefficient fit) endorses this sign against the
    alternative display.
    """
    d = mom.d
    q = quad_form(mom, z)
    lam = c.lambda_d
    lam_q = math.fsum(lam[s] * float(z[s]) ** 2 for s in range(d))
    w_term = (q * q / 8.0 - lam_q + c.chi_d) * est.W_inf
    v1_term = math.fsum(
        est.V1[s] * (2.0 * lam[s] - 0.5 * q / mom.gamma2[s]) * float(z[s])
        for s in range(d)
    )
    v2_term = math.fsum(
        est.V2[s] * (0.25 * q / mom.gamma2[s] - lam[s]) for s in range(d)
    )
    v3_term = math.fsum(est.V3[s] * float(z[s]) / mom.gamma2[s] for s in range(d))
    return w_term + v1_term + v2_term + 0.5 * est.V2z - 0.5 * v3_term + 0.125 * est.V4


def theorem_prediction(
    est: LimitEstimates,
    c: ExpansionConstants,
    mom: Moments,
    n: int,
    z,
) -> float:
    """Predicted m^{-n} Z_n(z); 0 on a bipartite parity mismatch."""
    if c.walk_class is WalkClass.BIPARTITE and not parity_matched(n, z):
        return 0.0
    return leading_factor(c, n) * (
        est.W_inf + f1_eval(est, c, mom, z) / n + f2_eval(est, c, mom, z) / n**2
    )


def brw_residual(
    snapshot: GenerationState,
    est: LimitEstimates,
    c: ExpansionConstants,
    mom: Moments,
    m: float,
    z,
) -> float:
    """n^{d/2+2} * (observed normalized count - theorem prediction)."""
    n = snapshot.n
    observed = m ** (-n) * snapshot.counts.get(tuple(int(s) for s in z), 0)
    return n ** (mom.d / 2.0 + 2.0) * (observed - theorem_prediction(est, c, mom, n, z))


def mu_sigma_d(sigma: float, d: int) -> float:
    """The printed second-order |z|^2 coefficient of the lazy-walk corollary.

    Carries a sign typo relative to the general display; the empirical
    arbiter favors the negated value.  Kept as printed so the discrepancy
    is measurable.
    """
    return -(1.0 + 4.0 / d) / 8.0 + sigma * (d / 16.0 + 3.0 / 8.0 + 1.0 / (2.0 * d))


def chi_sigma_d(sigma: float, d: int) -> float:
    return (
        d / 48.0
        - 1.0 / 32.0
        + 1.0 / (24.0 * d)
        + sigma * (d + 2) * (d + 4) / 64.0 * (sigma / 2.0 + (sigma - 2.0) / (3.0 * d))
    )


def corollary_eval(
    sigma: float, d: int, est: LimitEstimates, z
) -> tuple[float, float]:
    """(H1, H2) of the lazy nearest-neighbour specialization, as printed.

    ``est`` holds the general-normalization limits; the tilde limits of the
    specialization are recovered by scaling with powers of (1 - sigma)/d.
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma = {sigma} outside [0, 1)")
    g = (1.0 - sigma) / d  # the common per-axis second moment
    z2 = math.fsum(float(c) ** 2 for c in z)
    v1z = math.fsum(est.V1[s] * float(z[s]) for s in range(d))
    v2one = math.fsum(est.V2)
    h1 = (1.0 / g) * (
        (sigma * (d + 2) / 8.0 - 0.25 - 0.5 * z2) * est.W_inf + v1z - 0.5 * v2one
    )
    mu = mu_sigma_d(sigma, d)
    v2z_t = g * g * est.V2z
    v3_t = tuple(g * v for v in est.V3)
    v4_t = g * g * est.V4
    v3z = math.fsum(v3_t[s] * float(z[s]) for s in range(d))
    h2 = (1.0 / g) ** 2 * (
        (z2 * z2 / 8.0 + mu * z2 + chi_sigma_d(sigma, d)) * est.W_inf
        + (2.0 * mu - 0.5 * z2) * v1z
        + (z2 / 4.0 - mu) * v2one
        + 0.5 * v2z_t
        - 0.5 * v3z
        + 0.125 * v4_t
    )
    return h1, h2


__all__ = [
    "FUNCTIONALS",
    "MartingaleReadout",
    "LimitEstimates",
    "freeze",
    "functional_value",
    "readout",
    "harmonicity_defect",
    "f1_eval",
    "f2_eval",
    "theorem_prediction",
    "brw_residual",
    "mu_sigma_d",
    "chi_sigma_d",
    "corollary_eval",
    "expansion_bracket",
]
