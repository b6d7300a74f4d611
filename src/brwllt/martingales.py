"""Martingale functionals of a branching-random-walk generation.

Each functional is a per-particle polynomial f(x, n) whose one-step
annealed expectation over the step law reproduces f exactly (harmonicity);
the normalized particle sums m^{-n} sum_u f(S_u, n) are then martingales
and their limits feed the first- and second-order correction terms of the
occupation-count expansion.  One table of exact rational coefficients
(``_polynomials``) defines all six: per-particle values and harmonicity
defects evaluate it in float, ``readout`` exactly on integer power sums.
The correction terms F1 and F2, and the predictions built from them, take
the readout and one ``ExpansionConstants``, which carries the moments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gw_brw import GenerationState
from .llt import ExpansionConstants, bracket_coefficients, leading_factor, parity_forbidden, quad_form
from .step_law import Moments, StepLaw, lattice_point, moments

FUNCTIONALS = ("W", "N1", "N2", "N2z", "N3", "N4")


@dataclass(frozen=True)
class MartingaleReadout:
    """All martingale functionals evaluated on one generation.

    A readout of a late generation stands in for the martingale limits
    (W_inf, V1, V2, V2z, V3, V4) in the correction terms; N2z, and with it
    every prediction built from the readout, belongs to its point ``z``.
    """

    n: int
    W: float
    N1: tuple[float, ...]
    N2: tuple[float, ...]
    N2z: float
    N3: tuple[float, ...]
    N4: float
    z: tuple[int, ...]  # designated point for N2z


_SCALARS = ("W", "N2z", "N4")


class _Polynomial(NamedTuple):
    """A functional as rows of exact coefficients, one row per component,
    over the monomials x^alpha n^j written as (alpha_1, ..., alpha_d, j);
    ``exps`` and ``fcoefs`` are the same table as float arrays."""

    monomials: tuple
    coefs: tuple
    exps: np.ndarray
    fcoefs: np.ndarray

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Float values at rows (x_1, ..., x_d, n), one column per component."""
        return (points[:, np.newaxis, :] ** self.exps).prod(axis=2) @ self.fcoefs.T


@functools.cache
def _polynomials(mom: Moments, z) -> dict[str, _Polynomial]:
    """The one definition of the six functionals.  With g_s = gamma2[s] and
    q = sum_s x_s^2 / g_s:

        W = 1,  N1_s = x_s,  N2_s = x_s^2 - n g_s,
        N2z = (sum_s z_s x_s / g_s)^2 - n sum_s z_s^2 / g_s,
        N3_s = (q - (d+2) n) x_s,
        N4 = q^2 - (4+2d) n q + d(d+2)(n^2+n) - tr(G4 G2^-2) n.

    Coefficients are exact rationals of the float moments, built once per
    (moments, z) and cached; ``z`` is a tuple of ints, or None to leave
    N2z out.
    """
    from fractions import Fraction

    d = mom.d
    inv = [1 / Fraction(g) for g in mom.gamma2]
    pairs = [(s, t, 1 if s == t else 2) for s in range(d) for t in range(s, d)]

    def x(*axes, n=0):
        return tuple(map(axes.count, range(d))) + (n,)

    q2 = {x(s, s, t, t): k * inv[s] * inv[t] for s, t, k in pairs}
    nq = {x(s, s, n=1): -(4 + 2 * d) * inv[s] for s in range(d)}
    rows = {
        "W": [{x(): 1}],
        "N1": [{x(s): 1} for s in range(d)],
        "N2": [{x(s, s): 1, x(n=1): -Fraction(mom.gamma2[s])} for s in range(d)],
        "N3": [{**{x(t, t, s): inv[t] for t in range(d)}, x(s, n=1): -(d + 2)} for s in range(d)],
        "N4": [{**q2, **nq, x(n=2): d * (d + 2), x(n=1): d * (d + 2) - Fraction(mom.tr_g4g2m2)}],
    }
    if z is not None:
        gz = [z[s] * inv[s] for s in range(d)]
        zz = {x(s, t): k * gz[s] * gz[t] for s, t, k in pairs}
        rows["N2z"] = [{**zz, x(n=1): -sum(gz[s] * z[s] for s in range(d))}]
    table = {}
    for fid, comps in rows.items():
        monomials = tuple(sorted(set().union(*comps)))
        coefs = tuple(tuple(c.get(mono, 0) for mono in monomials) for c in comps)
        table[fid] = _Polynomial(monomials, coefs, np.array(monomials), np.array(coefs, dtype=float))
    return table


def _polynomial(functional_id: str, mom: Moments, z) -> _Polynomial:
    if functional_id not in FUNCTIONALS:
        raise ValueError(f"unknown functional: {functional_id}")
    if functional_id == "N2z" and z is None:
        raise ValueError("functional N2z needs a lattice point z")
    return _polynomials(mom, None if z is None else lattice_point(z, mom.d))[functional_id]


def _shape(functional_id: str, values):
    """A float for a scalar functional, a tuple of floats otherwise."""
    return float(values[0]) if functional_id in _SCALARS else tuple(map(float, values))


def functional_value(functional_id: str, mom: Moments, x, n: int, z=None):
    """f(x, n) of one functional; x and z are read by ``lattice_point``."""
    poly = _polynomial(functional_id, mom, z)
    return _shape(functional_id, poly.evaluate(np.array([[*lattice_point(x, mom.d), n]], dtype=float))[0])


def readout(
    state: GenerationState, m: float, mom: Moments, z
) -> MartingaleReadout:
    """Evaluate every functional on a generation, scaled by m^{-n}.

    Every functional is a polynomial of degree <= 4 in the position, so a
    generation enters only through its exact integer power sums
    sum_u S_u^alpha, |alpha| <= 4, which a ``SiteCounts`` box computes once
    for all readouts of it, at any z.  These meet the exact coefficients of
    the functional table in rational arithmetic; the only roundings are the
    final conversion to float and the m^{-n} scaling, so counts above 2^53
    lose nothing before that.  z is read by ``lattice_point``; a generation
    whose dimension is not that of ``mom`` is a ``ValueError``.
    """
    if state.d != mom.d:
        raise ValueError(f"a {state.d}-dimensional generation read with {mom.d}-dimensional moments")
    n, z = state.n, lattice_point(z, mom.d)
    sums = state.counts.power_sums(4)
    values = {}
    for fid, poly in _polynomials(mom, z).items():
        weights = [n ** mono[-1] * sums[mono[:-1]] for mono in poly.monomials]
        exact = [sum(c * w for c, w in zip(row, weights)) for row in poly.coefs]
        values[fid] = _shape(fid, [m ** (-n) * float(v) for v in exact])
    return MartingaleReadout(n=n, z=z, **values)


def harmonicity_defect(functional_id: str, law: StepLaw, x, n: int, z=None) -> float:
    """sum_atoms P(L = l) f(x + l, n + 1) - f(x, n), evaluated in float,
    with f built from the moments of ``law``; x and z are read by
    ``lattice_point``.

    Zero up to rounding for every functional; vector functionals report
    the largest componentwise |defect|.
    """
    poly = _polynomial(functional_id, moments(law), z)
    steps, probs = zip(*law.atoms())
    points = np.array([(*a, 1) for a in steps] + [(0,) * (law.d + 1)], dtype=float) + [*lattice_point(x, law.d), n]
    defect = np.array([*probs, -1.0]) @ poly.evaluate(points)
    return float(defect[0]) if functional_id in _SCALARS else float(np.abs(defect).max())


def f1_eval(ro: MartingaleReadout, c: ExpansionConstants) -> float:
    """First-order correction term of the occupation-count expansion at ``ro.z``."""
    z, mom = ro.z, c.moments
    c1, _, _ = bracket_coefficients(c, z)
    v1_term = math.fsum(ro.N1[s] * float(z[s]) / mom.gamma2[s] for s in range(mom.d))
    v2_term = math.fsum(ro.N2[s] / mom.gamma2[s] for s in range(mom.d))
    return c1 * ro.W + v1_term - 0.5 * v2_term


def f2_eval(ro: MartingaleReadout, c: ExpansionConstants) -> float:
    """Second-order correction term of the occupation-count expansion at ``ro.z``.

    The <Lambda z, z> contribution uses the printed Lambda; the exact
    arbiter (see the coefficient fit) endorses this sign against the
    alternative display.
    """
    z, lam, mom = ro.z, c.lambda_d, c.moments
    q = quad_form(mom, z)
    _, c2, _ = bracket_coefficients(c, z)
    v1_term = math.fsum(
        ro.N1[s] * (2.0 * lam[s] - 0.5 * q / mom.gamma2[s]) * float(z[s])
        for s in range(mom.d)
    )
    v2_term = math.fsum(ro.N2[s] * (0.25 * q / mom.gamma2[s] - lam[s]) for s in range(mom.d))
    v3_term = math.fsum(ro.N3[s] * float(z[s]) / mom.gamma2[s] for s in range(mom.d))
    return c2 * ro.W + v1_term + v2_term + 0.5 * ro.N2z - 0.5 * v3_term + 0.125 * ro.N4


def theorem_prediction(ro: MartingaleReadout, c: ExpansionConstants, n: int) -> float:
    """Predicted m^{-n} Z_n(ro.z); 0 on a bipartite parity mismatch.  n is
    read as by ``leading_factor``, before any division by it."""
    lead = leading_factor(c, n)
    bracket = ro.W + f1_eval(ro, c) / n + f2_eval(ro, c) / n**2
    return 0.0 if parity_forbidden(c.walk_class, n, ro.z) else lead * bracket


def brw_residual(snapshot: GenerationState, ro: MartingaleReadout, c: ExpansionConstants, m: float) -> float:
    """n^{d/2+2} * (observed normalized count at ro.z - theorem prediction)."""
    n = snapshot.n
    observed = m ** (-n) * snapshot.counts.get(ro.z, 0)
    return n ** (c.d / 2.0 + 2.0) * (observed - theorem_prediction(ro, c, n))


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


def corollary_eval(sigma: float, ro: MartingaleReadout) -> tuple[float, float]:
    """(H1, H2) at ``ro.z`` of the lazy nearest-neighbour specialization in
    d = len(ro.z) dimensions, as printed.

    ``ro`` holds the general-normalization limits; the tilde limits of the
    specialization are recovered by scaling with powers of (1 - sigma)/d.
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma = {sigma} outside [0, 1)")
    z = ro.z
    d = len(z)
    g = (1.0 - sigma) / d  # the common per-axis second moment
    z2 = math.fsum(float(c) ** 2 for c in z)
    v1z = math.fsum(ro.N1[s] * float(z[s]) for s in range(d))
    v2one = math.fsum(ro.N2)
    h1 = (1.0 / g) * (
        (sigma * (d + 2) / 8.0 - 0.25 - 0.5 * z2) * ro.W + v1z - 0.5 * v2one
    )
    mu = mu_sigma_d(sigma, d)
    v2z_t = g * g * ro.N2z
    v3_t = tuple(g * v for v in ro.N3)
    v4_t = g * g * ro.N4
    v3z = math.fsum(v3_t[s] * float(z[s]) for s in range(d))
    h2 = (1.0 / g) ** 2 * (
        (z2 * z2 / 8.0 + mu * z2 + chi_sigma_d(sigma, d)) * ro.W
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
]
