"""Martingale functionals of a branching-random-walk generation.

Each functional is a per-particle polynomial f(x, n) whose one-step
annealed expectation over the step law reproduces f exactly (harmonicity);
the normalized particle sums m^{-n} sum_u f(S_u, n) are then martingales
and their limits feed the first- and second-order correction terms of the
occupation-count expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gw_brw import GenerationState
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


def readout(
    state: GenerationState, m: float, mom: Moments, z
) -> MartingaleReadout:
    """Evaluate every functional on a generation, scaled by m^{-n}.

    Per-site terms are accumulated with compensated summation; counts up
    to 2^53 convert to float exactly, and the m^{-n} scaling is applied
    once at the end.
    """
    d = mom.d
    scale = m ** (-state.n)
    w_terms = []
    n1_terms = [[] for _ in range(d)]
    n2_terms = [[] for _ in range(d)]
    n2z_terms = []
    n3_terms = [[] for _ in range(d)]
    n4_terms = []
    for site in sorted(state.counts):
        c = float(state.counts[site])
        w_terms.append(c)
        v1 = _f_vector("N1", mom, site, state.n)
        v2 = _f_vector("N2", mom, site, state.n)
        v3 = _f_vector("N3", mom, site, state.n)
        for s in range(d):
            n1_terms[s].append(c * v1[s])
            n2_terms[s].append(c * v2[s])
            n3_terms[s].append(c * v3[s])
        n2z_terms.append(c * _f_scalar("N2z", mom, site, state.n, z))
        n4_terms.append(c * _f_scalar("N4", mom, site, state.n, None))
    return MartingaleReadout(
        n=state.n,
        W=scale * math.fsum(w_terms),
        N1=tuple(scale * math.fsum(t) for t in n1_terms),
        N2=tuple(scale * math.fsum(t) for t in n2_terms),
        N2z=scale * math.fsum(n2z_terms),
        N3=tuple(scale * math.fsum(t) for t in n3_terms),
        N4=scale * math.fsum(n4_terms),
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
