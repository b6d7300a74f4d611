"""Count-based branching random walk driven by a Galton-Watson offspring law.

A generation is a dense box of exact integer particle counts over the
bounding box of its occupied sites.  One step splits every occupied cell's
count over offspring values by exact multinomial, then splits each cell's
offspring over the displacement atoms of the step law, again by exact
multinomial (both are sequential exact binomials, with no normal
approximation), and shifts the displaced counts into the next box atom by
atom.  Both splits of all cells are drawn at once from one counter-based
Philox stream keyed by (base seed, replicate, generation), in the style of
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11).
Cells are drawn in lexicographic order of their coordinates, so a step
depends only on which sites hold how many particles, not on the box that
stores them.

Counts are exact at any size.  A box keeps every count as base-2^32
digits, and a count too large for one int64 draw is split into blocks of
2^s particles, with s chosen so that the offspring of a block still fit
in int64; independent blocks realize the exact law of the whole count.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded, CountOverflow, HasExtinction, NonNormalized, SubcriticalOrCritical
from .exact_dist import charge
from .step_law import NORMALIZATION_TOL, StepLaw, json_number

# An offspring table longer than this is refused: every occupied cell
# draws one count per offspring value.
MAX_OFFSPRING = 2**16
_DIGIT = 32
_DIGIT_MASK = (1 << _DIGIT) - 1
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class OffspringLaw:
    """Finite offspring distribution with p_0 = 0 and mean > 1.

    ``probs[k-1]`` is P(N = k) for k = 1..K.
    """

    probs: tuple[float, ...]
    mean: float


class SiteCounts(Mapping):
    """Exact particle counts on the box prod_s [-radius[s], radius[s]].

    ``digits[k]`` holds base-2^32 digit k of every cell's count, so the
    count of a cell is sum_k digits[k] * 2**(32 k), 0 <= digits[k] < 2**32;
    the lattice origin sits at index ``radius`` on each axis.  As a mapping
    it reads site tuple -> exact int over the occupied sites, in
    lexicographic order; empty sites are absent.
    """

    __slots__ = ("radius", "digits")

    def __init__(self, radius, digits: np.ndarray):
        self.radius = tuple(int(r) for r in radius)
        self.digits = digits

    @classmethod
    def from_mapping(cls, counts, d: int) -> SiteCounts:
        """The smallest box that holds every occupied site of a site ->
        count mapping.

        Raises:
            ValueError: a negative count.
            CapacityExceeded: the box's digits exceed the element
                budget; raised before allocating.
        """
        if isinstance(counts, SiteCounts):
            return counts
        occupied = {tuple(int(x) for x in site): int(c) for site, c in counts.items() if c}
        if any(c < 0 for c in occupied.values()):
            raise ValueError("particle counts must be nonnegative")
        radius = tuple(max((abs(site[s]) for site in occupied), default=0) for s in range(d))
        n_digits = max(1, -(-max(occupied.values(), default=0).bit_length() // _DIGIT))
        charge(f"a box of radius {radius}", n_digits * math.prod(2 * r + 1 for r in radius))
        digits = np.zeros((n_digits, *(2 * r + 1 for r in radius)), dtype=np.int64)
        for site, c in occupied.items():
            cell = tuple(x + r for x, r in zip(site, radius))
            for k in range(len(digits)):
                digits[(k, *cell)] = (c >> (_DIGIT * k)) & _DIGIT_MASK
        return cls(radius, digits)

    def total(self) -> int:
        """Exact sum of all counts."""
        return sum(int(dg.sum()) << (_DIGIT * k) for k, dg in enumerate(self.digits))

    def bit_length(self) -> int:
        """Bit length of the largest count."""
        return _DIGIT * (len(self.digits) - 1) + int(self.digits[-1].max()).bit_length()

    def pieces(self, width: int) -> Iterator[tuple[int, np.ndarray]]:
        """The counts cut into int64 arrays of at most ``width`` bits:
        yields pairs (shift, piece) whose sum of piece * 2**shift is every
        count, one piece at a time."""
        width = min(width, _DIGIT)
        for k, digit in enumerate(self.digits):
            for j in range(0, _DIGIT, width):
                yield _DIGIT * k + j, (digit >> j) & ((1 << width) - 1)

    def _occupied(self) -> np.ndarray:
        return np.flatnonzero(self.digits.any(axis=0))

    def _sites(self, flat) -> list[tuple[int, ...]]:
        axes = np.unravel_index(flat, self.digits.shape[1:])
        return list(zip(*((a - r).tolist() for a, r in zip(axes, self.radius))))

    def _values(self, flat) -> list[int]:
        values = self.digits[0].reshape(-1)[flat].tolist()
        for k in range(1, len(self.digits)):
            upper = self.digits[k].reshape(-1)[flat].tolist()
            values = [v + (u << (_DIGIT * k)) for v, u in zip(values, upper)]
        return values

    def __getitem__(self, site) -> int:
        cell = tuple(int(x) + r for x, r in zip(site, self.radius))
        if len(cell) != len(self.radius) or any(not 0 <= i <= 2 * r for i, r in zip(cell, self.radius)):
            raise KeyError(site)
        value = sum(int(dg[cell]) << (_DIGIT * k) for k, dg in enumerate(self.digits))
        if not value:
            raise KeyError(site)
        return value

    def __iter__(self):
        return iter(self._sites(self._occupied()))

    def __len__(self) -> int:
        return len(self._occupied())

    # Lists in site order, built in one pass over the box.
    def values(self) -> list[int]:
        return self._values(self._occupied())

    def items(self) -> list[tuple[tuple[int, ...], int]]:
        flat = self._occupied()
        return list(zip(self._sites(flat), self._values(flat)))

    def __repr__(self) -> str:
        return f"SiteCounts({dict(self.items())!r})"


@dataclass(frozen=True)
class GenerationState:
    """Exact site occupancy of one generation.

    ``counts`` maps lattice tuples to exact int counts: any mapping, such
    as a dict, or the ``SiteCounts`` box that ``evolve_generation`` returns.
    """

    n: int
    d: int
    counts: Mapping
    total: int


@dataclass(frozen=True)
class ReplicateSeed:
    base_seed: int
    replicate_index: int


def validate_offspring(raw) -> OffspringLaw:
    """Validate an offspring table and return the normalized law.

    ``raw`` is either a mapping {k: P(N = k)} or a sequence of
    probabilities for k = 1..K.

    Raises:
        TypeError: a probability is a bool or a str.
        ValueError: an empty table or a negative offspring number.
        CapacityExceeded: an offspring number above ``MAX_OFFSPRING``.
        HasExtinction: positive mass on zero offspring.
        NonNormalized: negative entries, or sum != 1 within 1e-12.
        SubcriticalOrCritical: mean offspring number is <= 1.
    """
    if isinstance(raw, dict):
        ks = [int(k) for k in raw]
        if not ks:
            raise ValueError("empty offspring table")
        if any(k < 0 for k in ks):
            raise ValueError("offspring counts must be nonnegative")
        if max(ks) > MAX_OFFSPRING:
            raise CapacityExceeded(f"offspring number {max(ks)} above {MAX_OFFSPRING}")
        p0 = float(json_number(raw.get(0, raw.get("0", 0.0))))
        if p0 > 0.0:
            raise HasExtinction(f"P(N=0) = {p0} > 0")
        dense = [0.0] * max(ks)
        for k, p in raw.items():
            if int(k) >= 1:
                dense[int(k) - 1] = float(json_number(p))
        probs = dense
    else:
        probs = [float(json_number(p)) for p in raw]
        if len(probs) > MAX_OFFSPRING:
            raise CapacityExceeded(f"offspring number {len(probs)} above {MAX_OFFSPRING}")
    if any(p < 0.0 for p in probs):
        raise NonNormalized("offspring probabilities must be nonnegative")
    total = math.fsum(probs)
    if not abs(total - 1.0) <= NORMALIZATION_TOL:  # also refuses NaN entries
        raise NonNormalized(f"offspring probabilities sum to {total!r}")
    probs = [p / total for p in probs]
    mean = math.fsum(k * p for k, p in enumerate(probs, start=1))
    if mean <= 1.0:
        raise SubcriticalOrCritical(f"offspring mean {mean} <= 1")
    return OffspringLaw(probs=tuple(probs), mean=mean)


def _mix64(x: int) -> int:
    """splitmix64 finalizer; a bijective 64-bit mixing function."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def derive_stream(seed: ReplicateSeed, generation: int) -> np.random.Generator:
    """Philox stream of one generation, a pure function of (base seed,
    replicate, generation)."""
    k0 = _mix64(seed.base_seed & 0xFFFFFFFFFFFFFFFF)
    k0 = _mix64(k0 ^ _mix64(seed.replicate_index))
    k1 = _mix64(k0 ^ _mix64(generation))
    key = np.array([k0, k1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(digits: np.ndarray, s: int, per_block: int, reserved: int):
    """Counts, given as base-2^32 digits of shape (digits, cells), cut into
    blocks of at most 2^s particles, 32 <= s < 63.

    A count q * 2^s + r becomes q blocks of 2^s and, if r > 0, one of r.
    Returns the block sizes cell after cell and the index of each cell's
    first block.  Each block is charged ``per_block`` elements on top of
    ``reserved`` ones, before the blocks are allocated.
    """
    bits = _DIGIT * (len(digits) - 1) + int(digits[-1].max(initial=0)).bit_length()
    if bits - s > _DIGIT:
        raise CapacityExceeded(f"counts of {bits} bits need over 2^32 blocks each")
    rest = digits[0]
    full = np.zeros_like(rest)
    if len(digits) > 1:
        rest = rest | ((digits[1] & ((1 << (s - _DIGIT)) - 1)) << _DIGIT)
        full = digits[1] >> (s - _DIGIT)
        for k in range(2, len(digits)):
            full = full + (digits[k] << (_DIGIT * k - s))
    has_rest = rest > 0
    n_blocks = full + has_rest
    total = int(n_blocks.sum())
    charge("the next generation's box and count blocks", reserved + total * per_block)
    starts = np.cumsum(n_blocks) - n_blocks
    sizes = np.full(total, 1 << s, dtype=np.int64)
    sizes[(starts + full)[has_rest]] = rest[has_rest]
    return sizes, starts


def _carry(parts) -> np.ndarray:
    """Base-2^32 digits of sum_k parts[k] * 2^(32 k), for nonnegative parts."""
    digits = []
    carry = np.zeros_like(parts[0])
    for part in parts:
        value = part + carry
        digits.append(value & _DIGIT_MASK)
        carry = value >> _DIGIT
    while carry.any():
        digits.append(carry & _DIGIT_MASK)
        carry = carry >> _DIGIT
    while len(digits) > 1 and not digits[-1].any():
        digits.pop()
    return np.stack(digits)


def _check_width(counts: SiteCounts, count_width: int, generation: int) -> None:
    bits = counts.bit_length()
    if bits >= count_width:
        raise CountOverflow(
            f"a count of {bits} bits exceeds the signed {count_width}-bit limit in generation {generation}"
        )


def evolve_generation(
    state: GenerationState,
    off: OffspringLaw,
    law: StepLaw,
    seed: ReplicateSeed,
    count_width: int = 64,
) -> GenerationState:
    """One branching-and-displacement step.

    Offspring and displacement splits of every occupied block are drawn
    from the generation's stream in lexicographic site order.  The new
    total equals the integer sum of all sampled offspring exactly.

    Raises:
        CountOverflow: a count of the state or of the new generation does
            not fit a signed ``count_width``-bit integer.
        CapacityExceeded: a count needs 2^32 blocks or more, or the blocks
            times the larger of the offspring and atom numbers, plus the
            cells of the new box, exceed the element budget; raised
            before the blocks are allocated.  With binary offspring that is
            about 2^27 blocks of 2^61 particles, enough for counts near
            2^80 on each of 150 sites.  The new box alone must fit the
            budget too: in d = 5 an occupied reach of 22 per axis is the
            most a nearest-neighbour walk can step from.
    """
    box = SiteCounts.from_mapping(state.counts, state.d)
    _check_width(box, count_width, state.n)
    n_values = len(off.probs)
    atoms = list(law.atoms())
    digits = box.digits.reshape(len(box.digits), -1)
    occupied = np.flatnonzero(digits.any(axis=0))
    # The new box is the bounding box of the occupied sites grown by one
    # step, whatever box holds them now.
    sites = [c - r for c, r in zip(np.unravel_index(occupied, box.digits.shape[1:]), box.radius)]
    radius = tuple(int(np.abs(x).max(initial=0)) + t for x, t in zip(sites, law.ranges))
    shape = tuple(2 * r + 1 for r in radius)
    charge("the next generation's box", math.prod(shape))
    # Blocks of 2^s <= (2^63 - 1) // K particles: a block's offspring fit int64.
    block_bits = (_INT64_MAX // n_values).bit_length() - 1
    sizes, starts = _blocks(digits[:, occupied], block_bits, max(n_values, len(atoms)), math.prod(shape))

    rng = derive_stream(seed, state.n)
    per_value = rng.multinomial(sizes, off.probs)
    offspring = per_value @ np.arange(1, n_values + 1, dtype=np.int64)
    placed = rng.multinomial(offspring, [p for _, p in atoms])

    # Each displaced block count (< 2^63) enters as two base-2^32 digits,
    # summed per cell far below 2^63 and carried at the end.  Shifting the
    # box by an atom shifts every flat index of the new box by one offset.
    low = np.add.reduceat(placed & _DIGIT_MASK, starts, axis=0)
    high = np.add.reduceat(placed >> _DIGIT, starts, axis=0)
    origin = np.ravel_multi_index(tuple(x + r for x, r in zip(sites, radius)), shape)
    strides = [math.prod(shape[s + 1 :]) for s in range(len(shape))]
    parts = np.zeros((2, math.prod(shape)), dtype=np.int64)
    for a, (point, _) in enumerate(atoms):
        dest = origin + sum(p * st for p, st in zip(point, strides))
        parts[0, dest] += low[:, a]
        parts[1, dest] += high[:, a]
    parts = parts.reshape(2, *shape)
    counts = SiteCounts(radius, _carry(parts))
    _check_width(counts, count_width, state.n + 1)
    return GenerationState(n=state.n + 1, d=state.d, counts=counts, total=counts.total())


def initial_state(d: int) -> GenerationState:
    """A single ancestor at the origin."""
    counts = SiteCounts((0,) * d, np.ones((1,) * (d + 1), dtype=np.int64))
    return GenerationState(n=0, d=d, counts=counts, total=1)


def simulate(
    off: OffspringLaw,
    law: StepLaw,
    n_max: int,
    seed: ReplicateSeed,
    probe_schedule,
    count_width: int = 64,
) -> list[GenerationState]:
    """Run to generation ``n_max`` and snapshot the scheduled generations."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    probes = set(int(n) for n in probe_schedule)
    state = initial_state(law.d)
    out = []
    if 0 in probes:
        out.append(state)
    for _ in range(n_max):
        state = evolve_generation(state, off, law, seed, count_width=count_width)
        if state.n in probes:
            out.append(state)
    return out
