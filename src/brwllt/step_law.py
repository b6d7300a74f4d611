"""Symmetric finite-range step laws on the integer lattice and their moments.

A step law puts weight ``zeta0`` on staying put and weight ``zeta[s][r-1]/2``
on each of the two moves ``+-r*e_s`` along axis ``s``.  The law is symmetric
by construction, so its mean is exactly zero.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass

from .errors import (
    DegenerateLazy,
    NegativeWeight,
    NonNormalized,
    Reducible,
    ZeroTopWeight,
)

NORMALIZATION_TOL = 1e-12
ZERO_WEIGHT_TOL = 1e-15


def json_number(value):
    """``value`` unchanged unless it is a bool or a str, which ``int()`` and
    ``float()`` would otherwise turn into numbers (JSON ``true``, ``"0.5"``)."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def json_keys(doc: dict, known) -> None:
    """Refuse the first key of ``doc`` that is not in ``known``, naming it."""
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown key {key!r}; expected one of {tuple(known)}")


def json_int(value) -> int:
    """An integer value; a float, or a NumPy number, must be integral."""
    integral = int(json_number(value))
    if integral != value:
        raise ValueError(f"{value!r} is not an integer")
    return integral


def lattice_point(z, d: int) -> tuple[int, ...]:
    """The one reader of a point of Z^d: ``z`` as a tuple of d ints, each
    read by ``json_int``; anything else is a ``ValueError``."""
    try:
        point = tuple(map(json_int, z))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"z = {z!r} is not a lattice point") from None
    if len(point) != d:
        raise ValueError(f"every point needs {d} coordinates")
    return point


def step_count(n) -> int:
    """The one reader of a number of steps: ``n`` as an int >= 0, read by
    ``json_int``; anything else is a ``ValueError`` naming n."""
    try:
        steps = json_int(n)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"number of steps must be an integer, got {n!r}") from None
    if steps < 0:
        raise ValueError(f"number of steps must be >= 0, got {n}")
    return steps


class WalkClass(enum.Enum):
    APERIODIC = "aperiodic"
    BIPARTITE = "bipartite"


@dataclass(frozen=True)
class StepLaw:
    """Validated symmetric finite-range increment law on Z^d.

    Attributes:
        zeta0: probability of not moving, in [0, 1).
        weights: per-axis tuples; ``weights[s][r-1]`` is the total weight of
            the pair ``+-r*e_s`` (split evenly between the two signs).
        d: the lattice dimension, read from the number of weight rows.
    """

    zeta0: float
    weights: tuple[tuple[float, ...], ...]

    @functools.cached_property
    def d(self) -> int:
        return len(self.weights)

    @property
    def ranges(self) -> tuple[int, ...]:
        """Maximal range t_s per axis."""
        return tuple(len(w) for w in self.weights)

    @property
    def max_range(self) -> int:
        return max(self.ranges)

    def atoms(self):
        """Yield (point, probability) in the fixed canonical order.

        Order: axis-major, increasing r, minus before plus, lazy atom last.
        Only atoms with strictly positive probability are yielded.
        """
        for s in range(self.d):
            for r, w in enumerate(self.weights[s], start=1):
                if w > 0.0:
                    minus = tuple(-r if t == s else 0 for t in range(self.d))
                    plus = tuple(r if t == s else 0 for t in range(self.d))
                    yield minus, w / 2.0
                    yield plus, w / 2.0
        if self.zeta0 > 0.0:
            yield (0,) * self.d, self.zeta0


@dataclass(frozen=True)
class Moments:
    """Per-axis even moments of a step law; the determinant and trace
    scalars of the expansion constants are derived from them."""

    gamma2: tuple[float, ...]
    gamma4: tuple[float, ...]
    gamma6: tuple[float, ...]

    @property
    def d(self) -> int:
        return len(self.gamma2)

    @property
    def det_gamma2(self) -> float:
        return math.prod(self.gamma2)

    @property
    def tr_g4g2m2(self) -> float:
        return math.fsum(a / b**2 for a, b in zip(self.gamma4, self.gamma2))

    @property
    def tr_g6g2m3(self) -> float:
        return math.fsum(a / b**3 for a, b in zip(self.gamma6, self.gamma2))

    @property
    def tr_g4sq_g2m4(self) -> float:
        return math.fsum(a**2 / b**4 for a, b in zip(self.gamma4, self.gamma2))


def validate(d: int, zeta0: float, weights) -> StepLaw:
    """Validate a raw step-law candidate and return the normalized law.

    ``weights`` is a sequence of per-axis sequences: ``weights[s][r-1]`` is
    the weight of the pair ``+-r*e_s``.  The weight sum is checked against 1
    to 1e-12 and then the law is renormalized exactly by dividing by the sum.

    ``d`` is read by ``json_int``: 1.0 reads as 1, and ``True``, ``"1"`` or
    1.5 is a ``ValueError`` that names it.

    Raises:
        NegativeWeight: some weight is negative.
        DegenerateLazy: zeta0 is not below 1.
        ZeroTopWeight: the top range on some axis has zero weight.
        Reducible: supported ranges on some axis have gcd > 1.
        NonNormalized: weights do not sum to 1 within tolerance.
    """
    try:
        d = json_int(d)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"dimension must be an integer, got {d!r}") from None
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    zeta0 = float(zeta0)
    if zeta0 < 0.0:
        raise NegativeWeight(f"zeta0 = {zeta0} is negative")
    if zeta0 >= 1.0:
        raise DegenerateLazy(f"zeta0 = {zeta0} leaves no mass for moves")
    rows = [tuple(float(w) for w in axis) for axis in weights]
    if len(rows) != d:
        raise ValueError(f"expected {d} axis weight rows, got {len(rows)}")

    tiny = []
    for s, row in enumerate(rows):
        if not row:
            raise ZeroTopWeight(f"axis {s}: no ranges declared")
        for r, w in enumerate(row, start=1):
            if w < 0.0:
                raise NegativeWeight(f"axis {s}, range {r}: weight {w} < 0")
            if 0.0 < w < ZERO_WEIGHT_TOL:
                tiny.append((s, r))
    if tiny:
        warnings.warn(
            f"weights below {ZERO_WEIGHT_TOL} treated as zero at {tiny}",
            stacklevel=2,
        )
        rows = [
            tuple(0.0 if 0.0 < w < ZERO_WEIGHT_TOL else w for w in row)
            for row in rows
        ]

    total = zeta0 + sum(w for row in rows for w in row)
    if not abs(total - 1.0) <= NORMALIZATION_TOL:  # also refuses NaN weights
        raise NonNormalized(f"weights sum to {total!r}, expected 1")

    for s, row in enumerate(rows):
        if row[-1] <= 0.0:
            raise ZeroTopWeight(f"axis {s}: top range {len(row)} has weight 0")
        support = [r for r, w in enumerate(row, start=1) if w > 0.0]
        if math.gcd(*support) != 1:
            raise Reducible(
                f"axis {s}: gcd of supported ranges {support} is > 1"
            )

    zeta0 /= total
    rows = tuple(tuple(w / total for w in row) for row in rows)
    return StepLaw(zeta0=zeta0, weights=rows)


def classify(law: StepLaw) -> WalkClass:
    """Bipartite iff the law cannot stay put and every supported range is odd."""
    if law.zeta0 > 0.0:
        return WalkClass.APERIODIC
    for row in law.weights:
        for r, w in enumerate(row, start=1):
            if w > 0.0 and r % 2 == 0:
                return WalkClass.APERIODIC
    return WalkClass.BIPARTITE


def moments(law: StepLaw) -> Moments:
    """Per-axis moments zeta_s(k) = sum_r zeta_{s,r} r^k for k = 2, 4, 6."""

    def axis_moment(row, k):
        return math.fsum(w * float(r) ** k for r, w in enumerate(row, start=1))

    return Moments(*(tuple(axis_moment(row, k) for row in law.weights) for k in (2, 4, 6)))


def law_from_dict(spec: dict) -> StepLaw:
    """Build a validated law from its JSON form.

    Expected shape: ``{"d": int, "zeta0": number, "axes": [[w1, ..., wt], ...]}``.

    Raises:
        TypeError: ``spec`` is not a mapping, or a number is a bool or a str.
        ValueError: ``d`` is not an integer, or a key other than ``d``,
            ``zeta0`` and ``axes`` is present.
        KeyError: ``d`` or ``axes`` is missing.
        plus everything ``validate`` raises.
    """
    if not isinstance(spec, dict):
        raise TypeError(f"expected an object with d, zeta0 and axes, got {type(spec).__name__}")
    json_keys(spec, ("d", "zeta0", "axes"))
    weights = [[json_number(w) for w in axis] for axis in spec["axes"]]
    return validate(spec["d"], json_number(spec.get("zeta0", 0.0)), weights)


def law_to_dict(law: StepLaw) -> dict:
    return {
        "d": law.d,
        "zeta0": law.zeta0,
        "axes": [list(row) for row in law.weights],
    }


def lazy_simple_law(d: int, sigma: float) -> StepLaw:
    """The nearest-neighbour law: stay with prob sigma, else +-e_s uniformly."""
    return validate(d, sigma, [[(1.0 - sigma) / d] for _ in range(d)])
