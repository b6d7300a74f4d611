"""Second-order local-limit expansion for the plain walk.

Provides the expansion constants, the predicted point probability, the
scaled residual against the exact distribution, an empirical fit of the
1/n and 1/n^2 correction coefficients, and exact Gauss-Hermite quadrature
checks of the Gaussian moment identities behind the expansion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exact_dist import cf_invert_box, charge, dist_at, walk_dist
from .step_law import Moments, StepLaw, WalkClass, classify, moments

# Gauss-Hermite nodes per axis: exact for degree <= 11 per axis, and the
# identity integrands reach degree 8.
IDENTITY_NODES = 6
# Node-grid-sized float arrays charged to the element budget per identity
# check: an upper bound on what one holds at its peak (tracemalloc measured
# at most 5 at d = 7).
IDENTITY_GRID_ARRAYS = 7


@dataclass(frozen=True)
class ExpansionConstants:
    """Constants of the 1/n and 1/n^2 correction brackets."""

    tau_d: float
    lambda_d: tuple[float, ...]
    chi_d: float
    norm: float  # (det Gamma_2)^{-1/2}
    walk_class: WalkClass

    @property
    def d(self) -> int:
        return len(self.lambda_d)

    @property
    def factor(self) -> float:
        return 2.0 if self.walk_class is WalkClass.BIPARTITE else 1.0


def constants(m: Moments, walk_class: WalkClass) -> ExpansionConstants:
    d = m.d
    t4 = m.tr_g4g2m2
    tau = t4 / 8.0 - d * (d + 2) / 8.0
    lam = tuple(
        (t4 - (d + 2) * (d + 4)) / (16.0 * m.gamma2[s])
        + m.gamma4[s] / (4.0 * m.gamma2[s] ** 3)
        for s in range(d)
    )
    chi = (
        -(d + 2) * (d + 4) * t4 / 64.0
        + m.tr_g4sq_g2m4 / 12.0
        + t4**2 / 128.0
        - m.tr_g6g2m3 / 48.0
        + d * (d + 2) * (d + 4) * (3 * d + 2) / 384.0
    )
    return ExpansionConstants(
        tau_d=tau,
        lambda_d=lam,
        chi_d=chi,
        norm=1.0 / math.sqrt(m.det_gamma2),
        walk_class=walk_class,
    )


def constants_for(law: StepLaw) -> ExpansionConstants:
    return constants(moments(law), classify(law))


def parity_matched(n: int, z) -> bool:
    return (n - sum(int(zs) for zs in z)) % 2 == 0


def parity_forbidden(walk_class: WalkClass, n: int, z) -> bool:
    """P(S_n = z) = 0 by parity: a bipartite walk cannot reach z in n steps."""
    return walk_class is WalkClass.BIPARTITE and not parity_matched(n, z)


def quad_form(m: Moments, z) -> float:
    """<z, Gamma_2^{-1} z>."""
    return math.fsum(float(zs) ** 2 / g for zs, g in zip(z, m.gamma2))


def bracket_coefficients(c: ExpansionConstants, m: Moments, z) -> tuple[float, float, float]:
    """(c1, c2, c2 with Lambda flipped) at z, with q = <z, Gamma_2^{-1} z>:
    c1 = tau - q/2 and c2 = q^2/8 -+ <Lambda z,z> + chi, the printed sign
    first."""
    q = quad_form(m, z)
    lam_q = math.fsum(l * float(zs) ** 2 for l, zs in zip(c.lambda_d, z))
    return c.tau_d - 0.5 * q, q * q / 8.0 - lam_q + c.chi_d, q * q / 8.0 + lam_q + c.chi_d


def expansion_bracket(c: ExpansionConstants, m: Moments, n: int, z) -> float:
    """1 + c1/n + c2/n^2 with the printed Lambda sign."""
    first, second, _ = bracket_coefficients(c, m, z)
    return 1.0 + first / n + second / n**2


def leading_factor(c: ExpansionConstants, n: int) -> float:
    """factor * (2 pi n)^{-d/2} * (det Gamma_2)^{-1/2}, the Gaussian term at z = 0."""
    return c.factor * (2.0 * math.pi * n) ** (-c.d / 2.0) * c.norm


def rw_expansion(c: ExpansionConstants, m: Moments, n: int, z) -> float:
    """Predicted P(S_n = z) to second order; 0 on a bipartite parity mismatch."""
    if parity_forbidden(c.walk_class, n, z):
        return 0.0
    return leading_factor(c, n) * expansion_bracket(c, m, n, z)


def gamma_residual(law: StepLaw, n: int, z, dist=None) -> float:
    """n^{d/2+2} * (exact probability - second-order prediction).

    ``dist`` may carry a precomputed n-step distribution for the same law.
    """
    if dist is None:
        dist = walk_dist(law, n)
    m = moments(law)
    c = constants(m, classify(law))
    exact = dist_at(dist, z)
    pred = rw_expansion(c, m, n, z)
    return n ** (law.d / 2.0 + 2.0) * (exact - pred)


@dataclass(frozen=True)
class CoefficientFit:
    """Empirical 1/n and 1/n^2 coefficients from exact probabilities.

    ``c1_seq``/``c2_seq`` track n*rho_n and n^2*(rho_n - c1_exact/n) along
    ``n_list``; the point estimates are the largest-n entries.
    """

    n_list: tuple[int, ...]
    c1_seq: tuple[float, ...]
    c2_seq: tuple[float, ...]
    c1_hat: float
    c2_hat: float
    c1_exact: float
    c2_theorem: float
    c2_flipped: float


def fit_correction_coefficients(law: StepLaw, z, n_list) -> CoefficientFit:
    """Estimate the correction coefficients from exact probabilities.

    Each probe n is read from its own CF box (:func:`cf_invert_box`), so
    the cost follows the probes, not every n up to the largest; raises
    ``CapacityExceeded`` when a box exceeds the element budget.  For
    bipartite laws every n in ``n_list`` must be parity-compatible
    with z.  Needs at least 3 entries in increasing order.
    """
    n_list = tuple(int(n) for n in n_list)
    if len(n_list) < 3:
        raise ValueError("need at least 3 probe values of n")
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    if n_list[0] < 1:
        raise ValueError(f"every probe n must be >= 1, got {n_list[0]}")
    m = moments(law)
    c = constants(m, classify(law))
    for n in n_list:
        if parity_forbidden(c.walk_class, n, z):
            raise ValueError(f"n={n} parity-incompatible with z={tuple(z)}")
    c1_exact, c2_theorem, c2_flipped = bracket_coefficients(c, m, z)

    c1_seq, c2_seq = [], []
    for n in n_list:
        p = dist_at(cf_invert_box(law, n), z)
        rho = p / leading_factor(c, n) - 1.0
        c1_seq.append(n * rho)
        c2_seq.append(n * n * (rho - c1_exact / n))
    return CoefficientFit(
        n_list=n_list,
        c1_seq=tuple(c1_seq),
        c2_seq=tuple(c2_seq),
        c1_hat=c1_seq[-1],
        c2_hat=c2_seq[-1],
        c1_exact=c1_exact,
        c2_theorem=c2_theorem,
        c2_flipped=c2_flipped,
    )


def _g4g2m3(m: Moments, z) -> float:
    """<z, Gamma_4 Gamma_2^{-3} z>."""
    return math.fsum(float(zs) ** 2 * g4 / g2**3 for zs, g2, g4 in zip(z, m.gamma2, m.gamma4))


# Gaussian identity k is row k - 1: the exponents (p2, p4, p6, pz) of its
# polynomial factor a2^p2 a4^p4 a6^p6 tz^pz in the sums
# a2 = sum zeta_s(2) theta_s^2, a4, a6 (likewise) and tz = <theta, z>, and
# its closed form without the common (2 pi)^{d/2} (det Gamma_2)^{-1/2}
# factor.  Identities 1-4 need a lattice point z.
_IDENTITIES = (
    ((0, 0, 0, 2), lambda m, z: quad_form(m, z)),
    ((0, 0, 0, 4), lambda m, z: 3.0 * quad_form(m, z) ** 2),
    ((2, 0, 0, 2), lambda m, z: (m.d + 2) * (m.d + 4) * quad_form(m, z)),
    ((0, 1, 0, 2), lambda m, z: 3.0 * (4.0 * _g4g2m3(m, z) + m.tr_g4g2m2 * quad_form(m, z))),
    ((0, 0, 0, 0), lambda m, z: 1.0),
    ((0, 1, 0, 0), lambda m, z: 3.0 * m.tr_g4g2m2),
    ((2, 0, 0, 0), lambda m, z: float(m.d * (m.d + 2))),
    ((1, 1, 0, 0), lambda m, z: 3.0 * (m.d + 4) * m.tr_g4g2m2),
    ((0, 0, 1, 0), lambda m, z: 15.0 * m.tr_g6g2m3),
    ((3, 0, 0, 0), lambda m, z: float(m.d * (m.d + 2) * (m.d + 4))),
    ((4, 0, 0, 0), lambda m, z: float(m.d * (m.d + 2) * (m.d + 4) * (m.d + 6))),
    ((0, 2, 0, 0), lambda m, z: 96.0 * m.tr_g4sq_g2m4 + 9.0 * m.tr_g4g2m2**2),
    ((2, 1, 0, 0), lambda m, z: 3.0 * (m.d + 4) * (m.d + 6) * m.tr_g4g2m2),
)
# Power of theta_s in each term of a2, a4, a6 and tz.
_SUM_DEGREES = (2, 4, 6, 1)


@functools.cache
def _hermite_rule():
    from numpy.polynomial.hermite_e import hermegauss  # imported on first use only

    return hermegauss(IDENTITY_NODES)


def gaussian_identity_check(m: Moments, identity_index: int, z=None) -> float:
    """Relative error of one Gaussian moment identity under product quadrature.

    The integrand is a polynomial of degree <= 8 per axis times
    exp(-a2/2).  Gauss-Hermite nodes scaled by 1/sqrt(zeta_s(2)) have that
    Gaussian as their weight, so the rule is exact up to rounding; the result
    is compared to the displayed closed form.  Only the sums the identity's
    factor reads are built.  Raises ``CapacityExceeded``, before
    allocating, if IDENTITY_GRID_ARRAYS arrays of IDENTITY_NODES^d nodes
    exceed the element budget, that is for d >= 10.
    """
    d = m.d
    grids = f"{IDENTITY_GRID_ARRAYS} arrays of {IDENTITY_NODES}^{d} quadrature nodes"
    charge(grids, IDENTITY_GRID_ARRAYS * IDENTITY_NODES**d)
    if identity_index not in range(1, len(_IDENTITIES) + 1):
        raise ValueError(f"identity index must be 1..{len(_IDENTITIES)}, got {identity_index}")
    if identity_index <= 4 and z is None:
        raise ValueError(f"identity {identity_index} needs a lattice point z")
    exponents, closed_form = _IDENTITIES[identity_index - 1]
    closed = (2.0 * math.pi) ** (d / 2.0) / math.sqrt(m.det_gamma2) * closed_form(m, z)
    nodes, weights = _hermite_rule()
    coords, weight = [], 1.0
    for s in range(d):
        shape = [1] * d
        shape[s] = IDENTITY_NODES
        scale = 1.0 / math.sqrt(m.gamma2[s])
        coords.append((nodes * scale).reshape(shape))
        weight = weight * (weights * scale).reshape(shape)
    coefs = (m.gamma2, m.gamma4, m.gamma6, z)
    factors = [
        sum(float(coefs[k][s]) * coords[s] ** _SUM_DEGREES[k] for s in range(d)) ** p
        for k, p in enumerate(exponents)
        if p
    ]
    # At most two factors: their product does not depend on their order.
    integral = float(np.sum(weight * math.prod(factors)))
    if closed == 0.0:
        return abs(integral)
    return abs(integral - closed) / abs(closed)
