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

from .errors import CapacityExceeded
from .exact_dist import DEFAULT_ELEMENT_BUDGET, cf_invert_box, dist_at, walk_dist
from .step_law import Moments, StepLaw, WalkClass, classify, moments

# Gauss-Hermite nodes per axis: exact for degree <= 11 per axis, and the
# identity integrands reach degree 8.
IDENTITY_NODES = 6


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


def quad_form(m: Moments, z) -> float:
    """<z, Gamma_2^{-1} z>."""
    return math.fsum(float(zs) ** 2 / g for zs, g in zip(z, m.gamma2))


def expansion_bracket(c: ExpansionConstants, m: Moments, n: int, z) -> float:
    """1 + (1/n)[tau - q/2] + (1/n^2)[q^2/8 - <Lambda z,z> + chi]."""
    q = quad_form(m, z)
    lam_q = math.fsum(l * float(zs) ** 2 for l, zs in zip(c.lambda_d, z))
    first = c.tau_d - 0.5 * q
    second = q * q / 8.0 - lam_q + c.chi_d
    return 1.0 + first / n + second / n**2


def leading_factor(c: ExpansionConstants, n: int) -> float:
    """factor * (2 pi n)^{-d/2} * (det Gamma_2)^{-1/2}, the Gaussian term at z = 0."""
    return c.factor * (2.0 * math.pi * n) ** (-c.d / 2.0) * c.norm


def rw_expansion(c: ExpansionConstants, m: Moments, n: int, z) -> float:
    """Predicted P(S_n = z) to second order; 0 on a bipartite parity mismatch."""
    if c.walk_class is WalkClass.BIPARTITE and not parity_matched(n, z):
        return 0.0
    return leading_factor(c, n) * expansion_bracket(c, m, n, z)


def gamma_residual(
    law: StepLaw,
    n: int,
    z,
    dist=None,
    max_elements: int = DEFAULT_ELEMENT_BUDGET,
) -> float:
    """n^{d/2+2} * (exact probability - second-order prediction).

    ``dist`` may carry a precomputed n-step distribution for the same law.
    """
    if dist is None:
        dist = walk_dist(law, n, max_elements=max_elements)
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


def second_order_candidates(c: ExpansionConstants, m: Moments, z) -> tuple[float, float]:
    """The 1/n^2 bracket with the printed Lambda sign and with it flipped."""
    q = quad_form(m, z)
    lam_q = math.fsum(l * float(zs) ** 2 for l, zs in zip(c.lambda_d, z))
    return q * q / 8.0 - lam_q + c.chi_d, q * q / 8.0 + lam_q + c.chi_d


def fit_correction_coefficients(
    law: StepLaw,
    z,
    n_list,
    max_elements: int = DEFAULT_ELEMENT_BUDGET,
) -> CoefficientFit:
    """Estimate the correction coefficients from exact probabilities.

    Each probe n is read from its own CF box (:func:`cf_invert_box`), so
    the cost follows the probes, not every n up to the largest; raises
    ``CapacityExceeded`` when a box exceeds ``max_elements``.  For
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
    if c.walk_class is WalkClass.BIPARTITE:
        for n in n_list:
            if not parity_matched(n, z):
                raise ValueError(f"n={n} parity-incompatible with z={tuple(z)}")
    c1_exact = c.tau_d - 0.5 * quad_form(m, z)
    c2_theorem, c2_flipped = second_order_candidates(c, m, z)

    c1_seq, c2_seq = [], []
    for n in n_list:
        p = dist_at(cf_invert_box(law, n, max_elements=max_elements), z)
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


def _identity_closed_form(m: Moments, index: int, z) -> float:
    """Closed form of Gaussian identity ``index``, without the common
    (2 pi)^{d/2} (det Gamma_2)^{-1/2} factor."""
    d = m.d
    t4 = m.tr_g4g2m2
    if index in (1, 2, 3, 4) and z is None:
        raise ValueError(f"identity {index} needs a lattice point z")
    if index == 1:
        return quad_form(m, z)
    if index == 2:
        return 3.0 * quad_form(m, z) ** 2
    if index == 3:
        return (d + 2) * (d + 4) * quad_form(m, z)
    if index == 4:
        g4g2m3 = math.fsum(
            float(zs) ** 2 * g4 / g2**3
            for zs, g2, g4 in zip(z, m.gamma2, m.gamma4)
        )
        return 3.0 * (4.0 * g4g2m3 + t4 * quad_form(m, z))
    if index == 5:
        return 1.0
    if index == 6:
        return 3.0 * t4
    if index == 7:
        return float(d * (d + 2))
    if index == 8:
        return 3.0 * (d + 4) * t4
    if index == 9:
        return 15.0 * m.tr_g6g2m3
    if index == 10:
        return float(d * (d + 2) * (d + 4))
    if index == 11:
        return float(d * (d + 2) * (d + 4) * (d + 6))
    if index == 12:
        return 96.0 * m.tr_g4sq_g2m4 + 9.0 * t4**2
    if index == 13:
        return 3.0 * (d + 4) * (d + 6) * t4
    raise ValueError(f"identity index must be 1..13, got {index}")


def _identity_integrand(m: Moments, index: int, z, a2, a4, a6, tz):
    """Polynomial factor of identity ``index`` from the precomputed sums
    a2 = sum zeta_s(2) theta_s^2, a4 = sum zeta_s(4) theta_s^4,
    a6 = sum zeta_s(6) theta_s^6 and tz = <theta, z>."""
    if index == 1:
        return tz**2
    if index == 2:
        return tz**4
    if index == 3:
        return a2**2 * tz**2
    if index == 4:
        return a4 * tz**2
    if index == 5:
        return np.ones_like(a2)
    if index == 6:
        return a4
    if index == 7:
        return a2**2
    if index == 8:
        return a2 * a4
    if index == 9:
        return a6
    if index == 10:
        return a2**3
    if index == 11:
        return a2**4
    if index == 12:
        return a4**2
    if index == 13:
        return a4 * a2**2
    raise ValueError(f"identity index must be 1..13, got {index}")


@functools.cache
def _hermite_rule():
    from numpy.polynomial.hermite_e import hermegauss  # imported on first use only

    return hermegauss(IDENTITY_NODES)


def gaussian_identity_check(m: Moments, identity_index: int, z=None) -> float:
    """Relative error of one Gaussian moment identity under product quadrature.

    The integrand is a polynomial of degree <= 8 per axis times
    exp(-a2/2).  Gauss-Hermite nodes scaled by 1/sqrt(zeta_s(2)) have that
    Gaussian as their weight, so the rule is exact up to rounding; the result
    is compared to the displayed closed form.  Raises ``CapacityExceeded``,
    before allocating, if the IDENTITY_NODES^d grid exceeds the element budget.
    """
    d = m.d
    if IDENTITY_NODES**d > DEFAULT_ELEMENT_BUDGET:
        raise CapacityExceeded(
            f"{IDENTITY_NODES}^{d} quadrature nodes exceed budget {DEFAULT_ELEMENT_BUDGET}"
        )
    closed = (
        (2.0 * math.pi) ** (d / 2.0)
        / math.sqrt(m.det_gamma2)
        * _identity_closed_form(m, identity_index, z)
    )
    nodes, weights = _hermite_rule()
    coords, weight = [], 1.0
    for s in range(d):
        shape = [1] * d
        shape[s] = IDENTITY_NODES
        scale = 1.0 / math.sqrt(m.gamma2[s])
        coords.append((nodes * scale).reshape(shape))
        weight = weight * (weights * scale).reshape(shape)
    a2 = sum(m.gamma2[s] * coords[s] ** 2 for s in range(d))
    a4 = sum(m.gamma4[s] * coords[s] ** 4 for s in range(d))
    a6 = sum(m.gamma6[s] * coords[s] ** 6 for s in range(d))
    tz = np.zeros_like(a2) if z is None else sum(float(z[s]) * coords[s] for s in range(d))
    integral = float(np.sum(weight * _identity_integrand(m, identity_index, z, a2, a4, a6, tz)))
    if closed == 0.0:
        return abs(integral)
    return abs(integral - closed) / abs(closed)
