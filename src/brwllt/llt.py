"""Second-order local-limit expansion for the plain walk.

Provides the expansion constants (one ``ExpansionConstants``, which holds
only the ``Moments`` and walk class of a step law and derives tau, Lambda,
chi and the norm from them, is the only input of every expansion function
besides n and the point z), the predicted point probability, the
scaled residual against the exact distribution, an empirical fit of the
1/n and 1/n^2 correction coefficients, and the Gaussian moment identities
behind the expansion, checked in any dimension by one exact Gauss-Hermite
rule per axis whose moment tables are multiplied as truncated power series.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exact_dist import cf_invert_box, dist_at, walk_dist
from .step_law import Moments, StepLaw, WalkClass, classify, lattice_point, moments, parity_forbidden, step_count


@dataclass(frozen=True)
class ExpansionConstants:
    """Constants of the 1/n and 1/n^2 correction brackets, derived from the
    moments of a step law; the walk class gives the leading factor."""

    moments: Moments
    walk_class: WalkClass

    @property
    def d(self) -> int:
        return self.moments.d

    @property
    def factor(self) -> float:
        return 2.0 if self.walk_class is WalkClass.BIPARTITE else 1.0

    @functools.cached_property
    def tau_d(self) -> float:
        return self.moments.tr_g4g2m2 / 8.0 - self.d * (self.d + 2) / 8.0

    @functools.cached_property
    def lambda_d(self) -> tuple[float, ...]:
        m, d = self.moments, self.d
        t4 = m.tr_g4g2m2
        return tuple(
            (t4 - (d + 2) * (d + 4)) / (16.0 * m.gamma2[s])
            + m.gamma4[s] / (4.0 * m.gamma2[s] ** 3)
            for s in range(d)
        )

    @functools.cached_property
    def chi_d(self) -> float:
        m, d = self.moments, self.d
        t4 = m.tr_g4g2m2
        return (
            -(d + 2) * (d + 4) * t4 / 64.0
            + m.tr_g4sq_g2m4 / 12.0
            + t4**2 / 128.0
            - m.tr_g6g2m3 / 48.0
            + d * (d + 2) * (d + 4) * (3 * d + 2) / 384.0
        )

    @functools.cached_property
    def norm(self) -> float:
        """(det Gamma_2)^{-1/2}."""
        return 1.0 / math.sqrt(self.moments.det_gamma2)


def constants_for(law: StepLaw) -> ExpansionConstants:
    return ExpansionConstants(moments(law), classify(law))


def quad_form(m: Moments, z) -> float:
    """<z, Gamma_2^{-1} z>, z read by ``lattice_point``."""
    return math.fsum(float(zs) ** 2 / g for zs, g in zip(lattice_point(z, m.d), m.gamma2))


def bracket_coefficients(c: ExpansionConstants, z) -> tuple[float, float, float]:
    """(c1, c2, c2 with Lambda flipped) at z, with q = <z, Gamma_2^{-1} z>:
    c1 = tau - q/2 and c2 = q^2/8 -+ <Lambda z,z> + chi, the printed sign
    first."""
    q = quad_form(c.moments, z)
    lam_q = math.fsum(l * float(zs) ** 2 for l, zs in zip(c.lambda_d, z))
    return c.tau_d - 0.5 * q, q * q / 8.0 - lam_q + c.chi_d, q * q / 8.0 + lam_q + c.chi_d


def _expansion_steps(n) -> int:
    """n read by ``step_count``, and required to be >= 1: the expansion is
    in powers of 1/n.  Anything else is a ``ValueError`` naming n."""
    n = step_count(n)
    if n < 1:
        raise ValueError(f"the expansion needs n >= 1, got {n}")
    return n


def expansion_bracket(c: ExpansionConstants, n: int, z) -> float:
    """1 + c1/n + c2/n^2 with the printed Lambda sign; n is read by
    ``step_count`` and must be >= 1."""
    n = _expansion_steps(n)
    first, second, _ = bracket_coefficients(c, z)
    return 1.0 + first / n + second / n**2


def leading_factor(c: ExpansionConstants, n: int) -> float:
    """factor * (2 pi n)^{-d/2} * (det Gamma_2)^{-1/2}, the Gaussian term at
    z = 0; n is read by ``step_count`` and must be >= 1."""
    n = _expansion_steps(n)
    return c.factor * (2.0 * math.pi * n) ** (-c.d / 2.0) * c.norm


def rw_expansion(c: ExpansionConstants, n: int, z) -> float:
    """Predicted P(S_n = z) to second order; 0 on a bipartite parity mismatch."""
    bracket = expansion_bracket(c, n, z)
    return 0.0 if parity_forbidden(c.walk_class, n, z) else leading_factor(c, n) * bracket


def gamma_residual(law: StepLaw, n: int, z) -> float:
    """n^{d/2+2} * (exact probability - second-order prediction)."""
    exact = dist_at(walk_dist(law, n), z)
    return n ** (law.d / 2.0 + 2.0) * (exact - rw_expansion(constants_for(law), n, z))


@dataclass(frozen=True)
class CoefficientFit:
    """Empirical 1/n and 1/n^2 coefficients from exact probabilities.

    ``c1_seq``/``c2_seq`` track n*rho_n and n^2*(rho_n - c1_exact/n) along
    ``n_list``; the point estimates ``c1_hat``/``c2_hat`` are the largest-n
    entries.
    """

    n_list: tuple[int, ...]
    c1_seq: tuple[float, ...]
    c2_seq: tuple[float, ...]
    c1_exact: float
    c2_theorem: float
    c2_flipped: float

    @property
    def c1_hat(self) -> float:
        return self.c1_seq[-1]

    @property
    def c2_hat(self) -> float:
        return self.c2_seq[-1]


def fit_correction_coefficients(law: StepLaw, z, n_list) -> CoefficientFit:
    """Estimate the correction coefficients from exact probabilities.

    Each probe n is read from its own CF inversion (:func:`cf_invert_box`,
    at orthant cell |z| by :func:`dist_at`), so the cost follows the
    probes, not every n up to the largest; raises ``CapacityExceeded`` when
    a CF grid exceeds the element budget.  For bipartite laws every n in
    ``n_list`` must be parity-compatible with z.  Needs at least 3 entries
    in increasing order.
    """
    (fit,) = fit_points(law, [z], n_list)
    return fit


def fit_points(law: StepLaw, points, n_list) -> tuple[CoefficientFit, ...]:
    """:func:`fit_correction_coefficients` at each of ``points``, all read
    from one CF inversion per probe n."""
    points, n_list = [lattice_point(z, law.d) for z in points], tuple(map(step_count, n_list))
    if len(n_list) < 3:
        raise ValueError("need at least 3 probe values of n")
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    if n_list[0] < 1:
        raise ValueError(f"every probe n must be >= 1, got {n_list[0]}")
    c = constants_for(law)
    for z in points:
        for n in n_list:
            if parity_forbidden(c.walk_class, n, z):
                raise ValueError(f"n={n} parity-incompatible with z={z}")
    # rho[i][j] = P(S_n = z) / leading factor - 1 at probe n_list[i], point j.
    rho = []
    for n in n_list:
        box = cf_invert_box(law, n)
        rho.append([dist_at(box, z) / leading_factor(c, n) - 1.0 for z in points])
    fits = []
    for z, rho_z in zip(points, zip(*rho)):
        c1_exact, c2_theorem, c2_flipped = bracket_coefficients(c, z)
        c1_seq = tuple(n * r for n, r in zip(n_list, rho_z))
        c2_seq = tuple(n * n * (r - c1_exact / n) for n, r in zip(n_list, rho_z))
        fits.append(CoefficientFit(n_list, c1_seq, c2_seq, c1_exact, c2_theorem, c2_flipped))
    return tuple(fits)


def _g4g2m3(m: Moments, z) -> float:
    """<z, Gamma_4 Gamma_2^{-3} z>."""
    return math.fsum(float(zs) ** 2 * g4 / g2**3 for zs, g2, g4 in zip(z, m.gamma2, m.gamma4))


# Gaussian identity k is row k - 1: the exponents (p2, p4, p6, pz) of its
# polynomial factor a2^p2 a4^p4 a6^p6 tz^pz in the sums
# a2 = sum zeta_s(2) theta_s^2, a4, a6 (likewise) and tz = <theta, z>, and
# its closed form, the factor's expectation when theta has density
# proportional to exp(-a2/2).  Identities 1-4 read the lattice point z.
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
# The highest power of each sum that an identity reads; the moment table's shape is _TOP + 1.
_TOP = tuple(max(exponents[k] for exponents, _ in _IDENTITIES) for k in range(len(_SUM_DEGREES)))


@functools.cache
def _hermite_rule():
    """The standard normal's 6-node Gauss-Hermite rule, exact to degree 11."""
    from numpy.polynomial.hermite_e import hermegauss  # imported on first use only

    nodes, weights = hermegauss(6)
    return nodes, weights / weights.sum()


@functools.cache
def _moment_table():
    """The moment table's fixed layout: (row, col, lag), the flat cells with
    exponents row = col + lag, so that the truncated product of tables t and
    u sums t[lag] * u[col] into row; j_1! j_2! j_3! j_4! of each cell j; and
    the cell each identity reads.  A flat cell is linear in its exponents,
    so lag = row - col."""
    shape = tuple(p + 1 for p in _TOP)
    row = col = np.zeros(1, dtype=int)
    factorials = np.ones(1)
    for n in shape:
        j, l = np.tril_indices(n)
        row, col = (row[:, None] * n + j).ravel(), (col[:, None] * n + l).ravel()
        factorials = np.outer(factorials, [math.factorial(i) for i in range(n)]).ravel()
    read = np.ravel_multi_index(tuple(np.transpose([exponents for exponents, _ in _IDENTITIES])), shape)
    return row, col, row - col, factorials, read


def identity_expectations(m: Moments, z) -> np.ndarray:
    """E[a2^p2 a4^p4 a6^p6 tz^pz] of each identity, in ``_IDENTITIES`` order.

    The theta_s are independent N(0, 1/zeta_s(2)) and each sum adds one term
    X_{s,k} = c_{k,s} theta_s^{deg_k} per axis, so the expectation over p!
    is the t^p coefficient of prod_s E[exp(sum_k t_k X_{s,k})].  Each axis's
    table of E[X_s^j] / j!, j <= _TOP, comes from the 6-node rule, and the
    tables are multiplied as power series truncated at _TOP.  The cells the
    identities read, and those that feed them, have per-axis degree <= 8, so
    they are exact up to rounding; the unread top cells are not.  Memory
    does not grow with d.  z is read by ``lattice_point``.
    """
    z = lattice_point(z, m.d)
    nodes, weights = _hermite_rule()
    row, col, lag, factorials, read = _moment_table()
    table = np.eye(1, factorials.size).ravel()
    for s in range(m.d):
        theta = nodes / math.sqrt(m.gamma2[s])
        powers = [
            (float(c[s]) * theta**deg)[:, None] ** np.arange(p + 1)
            for c, deg, p in zip((m.gamma2, m.gamma4, m.gamma6, z), _SUM_DEGREES, _TOP)
        ]
        axis = np.einsum("i,ia,ib,ic,ie->abce", weights, *powers).ravel() / factorials
        table = np.bincount(row, axis[lag] * table[col], table.size)
    return (table * factorials)[read]


def gaussian_identity_check(m: Moments, z) -> tuple[float, ...]:
    """Relative errors of the Gaussian moment identities, in ``_IDENTITIES``
    order: each :func:`identity_expectations` entry against its closed form,
    or its absolute value where the closed form is 0."""
    return tuple(
        abs(value - closed) / abs(closed) if closed else abs(value)
        for value, closed in zip(identity_expectations(m, z).tolist(), (form(m, z) for _, form in _IDENTITIES))
    )
