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

Independent replicates are stepped together: their boxes share one
bounding box behind a leading replicate axis, and everything but the two
multinomial draws (occupancy, blocks, shifts, carries and width checks)
runs once for all of them.  Each replicate still draws its own cells, in
lexicographic order, from its own stream, so a replicate's counts do not
depend on which replicates share its box; this is stream version 2, the
same draws as stepping each replicate alone.

A stream is fully defined by its 128-bit key, so ``simulate`` builds one
generator and, before each replicate's draws of a generation, resets it to
the start of that (replicate, generation) stream instead of building a new
one; the keys are those of ``derive_stream``.  An offspring law with all
its mass on its largest offspring number skips the offspring split, which
would draw nothing.  Neither changes a draw: the stream version stays 2.

Counts are exact at any size.  A box keeps every count as base-2^32
digits, and a count too large for one int64 draw is split into blocks of
2^s particles, with s chosen so that the offspring of a block still fit
in int64; independent blocks realize the exact law of the whole count.
A step does only the work its counts need.  While every count is below
2^s, each cell is one block, and the blocks are the counts themselves:
no block sums run.  A cell of the new box then receives at most one
displaced count per atom, so while A times the largest displaced count
is below 2^63 the counts are scattered and carried as one int64 part.
Otherwise, and always once a cell is cut into several blocks, each
displaced count is split into low and high 32-bit halves, summed per
cell and carried apart.  None of this changes a draw.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import config
from .config import OffspringLaw, charge
from .errors import CapacityExceeded, CountOverflow
from .step_law import StepLaw, lattice_point, step_count

_DIGIT = 32
_DIGIT_MASK = (1 << _DIGIT) - 1
_INT64_MAX = 2**63 - 1


class SiteCounts(Mapping):
    """Exact particle counts on the box prod_s [-radius[s], radius[s]].

    ``digits[k]`` holds base-2^32 digit k of every cell's count, so the
    count of a cell is sum_k digits[k] * 2**(32 k), 0 <= digits[k] < 2**32.
    The radius is read from the cell axes, of extent 2 radius[s] + 1 (an
    even extent is a ``ValueError``), and the lattice origin sits at their
    middle cell.  As a mapping it reads site tuple -> exact int over the
    occupied sites, in lexicographic order; empty sites, and keys
    ``lattice_point`` refuses, are absent.  A box is never changed after
    construction, so what is derived from it is kept.
    """

    __slots__ = ("radius", "digits", "_sums", "_total")

    def __init__(self, digits: np.ndarray):
        if any(e % 2 == 0 for e in digits.shape[1:]):
            raise ValueError(f"a box needs an odd extent on every cell axis, got {digits.shape[1:]}")
        self.radius = tuple(e // 2 for e in digits.shape[1:])
        self.digits = digits
        self._sums = {}
        self._total = None

    @classmethod
    def from_mapping(cls, counts, d: int) -> SiteCounts:
        """The smallest box that holds every occupied site of a site ->
        count mapping, such as a dict.

        Raises:
            ValueError: a site ``lattice_point`` refuses, or a negative count.
            CapacityExceeded: the box's digits exceed the element
                budget; raised before allocating.
        """
        occupied = {lattice_point(site, d): int(c) for site, c in counts.items() if c}
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
        return cls(digits)

    def total(self) -> int:
        """Exact sum of all counts; computed once."""
        if self._total is None:
            self._total = sum(int(dg.sum()) << (_DIGIT * k) for k, dg in enumerate(self.digits))
        return self._total

    def bit_length(self) -> int:
        """Bit length of the largest count."""
        return _bit_length(self.digits)

    def power_sums(self, degree: int) -> dict:
        """Exact sums sum_x c(x) x^alpha over the box, as python ints, for every
        multi-index alpha with |alpha| <= degree; computed once per degree.

        The counts are cut into pieces narrow enough that every needed sum of
        piece * x^alpha over the box fits int64; the sums are contracted one
        axis at a time and recombined as python ints.  Entries with |alpha| >
        degree may wrap, but they never feed a needed one.  A box too wide for
        even one-bit pieces is summed in python ints throughout.
        """
        if degree in self._sums:
            return self._sums[degree]
        width = 62 - (self.digits[0].size * max(max(self.radius), 1) ** degree).bit_length()
        dtype = np.int64 if width >= 1 else object
        width = min(width, _DIGIT) if width >= 1 else _DIGIT
        powers = [
            np.arange(-r, r + 1).astype(dtype)[:, np.newaxis] ** np.arange(degree + 1).astype(dtype)
            for r in self.radius
        ]
        alphas = [a for a in itertools.product(range(degree + 1), repeat=len(self.radius)) if sum(a) <= degree]
        sums = dict.fromkeys(alphas, 0)
        for k, digit in enumerate(self.digits):
            for j in range(0, _DIGIT, width):
                piece = (digit >> j) & ((1 << width) - 1)
                if not piece.any():
                    continue
                piece = piece.astype(dtype, copy=False)
                for v in powers:
                    piece = np.tensordot(piece, v, axes=([0], [0]))
                for a in alphas:
                    sums[a] += int(piece[a]) << (_DIGIT * k + j)
        self._sums[degree] = sums
        return sums

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
        try:
            cell = tuple(x + r for x, r in zip(lattice_point(site, len(self.radius)), self.radius))
        except ValueError:
            raise KeyError(site) from None
        if any(not 0 <= i <= 2 * r for i, r in zip(cell, self.radius)):
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
    """Exact site occupancy of generation ``n``: its ``SiteCounts`` box,
    which gives the dimension ``d`` and the exact ``total``.  ``n`` is read
    by ``step_count``, so 2.0 reads as 2 and 2.5 is a ``ValueError``.  Any
    other ``counts``, such as a dict, is a ``TypeError``; ``from_mapping``
    boxes it.
    """

    n: int
    counts: SiteCounts

    def __post_init__(self):
        object.__setattr__(self, "n", step_count(self.n))
        if not isinstance(self.counts, SiteCounts):
            raise TypeError(
                f"counts must be a SiteCounts box, got {type(self.counts).__name__}; "
                "build one with SiteCounts.from_mapping(counts, d)"
            )

    @property
    def d(self) -> int:
        return len(self.counts.radius)

    @property
    def total(self) -> int:
        return self.counts.total()


@dataclass(frozen=True)
class ReplicateSeed:
    base_seed: int
    replicate_index: int


def _mix64(x: int) -> int:
    """splitmix64 finalizer; a bijective 64-bit mixing function."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _seed_key(seed: ReplicateSeed) -> int:
    """k0, the half of a replicate's stream keys shared by its generations."""
    return _mix64(_mix64(seed.base_seed & 0xFFFFFFFFFFFFFFFF) ^ _mix64(seed.replicate_index))


def _rekeyer(rng: np.random.Generator):
    """A function ``rekey(k0, mixed)`` that resets ``rng`` to the start of
    the Philox stream keyed (k0, k1 = mix(k0 ^ mixed)), ``mixed`` being
    mix(generation), and returns it: the draws of a new generator of that
    key.

    The state dict is built once, with plain int lists, which the state
    setter reads faster than arrays; a call writes only its key.  A
    Generator keeps no other state that changes a draw; its cached binomial
    set-up depends only on the binomial's (n, p).
    """
    key = [0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0] * 4, "key": key},
        "buffer": [0] * 4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_generator = rng.bit_generator

    def rekey(k0: int, mixed: int) -> np.random.Generator:
        key[0], key[1] = k0, _mix64(k0 ^ mixed)
        bit_generator.state = state
        return rng

    return rekey


def derive_stream(seed: ReplicateSeed, generation: int) -> np.random.Generator:
    """Philox stream of one generation, a pure function of (base seed,
    replicate, generation)."""
    # A fixed seed, unlike Philox(key=...), draws no OS entropy.
    rekey = _rekeyer(np.random.Generator(np.random.Philox(0)))
    return rekey(_seed_key(seed), _mix64(generation))


def _bit_length(digits: np.ndarray) -> int:
    """Bit length of the largest count held as base-2^32 digits along axis 0,
    read from the highest digit that is nonzero anywhere."""
    for k in range(len(digits) - 1, -1, -1):
        top = int(digits[k].max(initial=0))
        if top:
            return _DIGIT * k + top.bit_length()
    return 0


def _block_bits(n_values: int) -> int:
    """s of the blocks of 2^s <= (2^63 - 1) // K particles: a block's
    offspring fit int64."""
    return (_INT64_MAX // n_values).bit_length() - 1


def _blocks(digits: np.ndarray, bits: int, s: int, per_block: int, reserved: int):
    """Positive counts, given as base-2^32 digits of shape (digits, cells),
    the largest of ``bits`` bits, cut into blocks of at most 2^s particles,
    32 <= s < 63.

    A count q * 2^s + r becomes q blocks of 2^s and, if r > 0, one of r.
    Returns the block sizes cell after cell and the index of each cell's
    first block.  When every count is below 2^s, each cell is one block: the
    sizes are the counts themselves and the starts ``arange``.  Each block
    is charged ``per_block`` elements on top of ``reserved`` ones, on either
    route, before the blocks are allocated.
    """
    if bits - s > _DIGIT:
        raise CapacityExceeded(f"counts of {bits} bits need over 2^32 blocks each")
    if bits <= s:
        charge("the next generation's box and count blocks", reserved + digits.shape[1] * per_block)
        sizes = digits[0] | (digits[1] << _DIGIT) if len(digits) > 1 else digits[0]
        return sizes, np.arange(digits.shape[1])
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


def _check_width(digits: np.ndarray, count_width: int, generation: int) -> int:
    """The bit length of the largest count, checked against ``count_width``."""
    bits = _bit_length(digits)
    if bits >= count_width:
        raise CountOverflow(
            f"a count of {bits} bits exceeds the signed {count_width}-bit limit in generation {generation}"
        )
    return bits


def _step(digits: np.ndarray, bits: int, n: int, off: OffspringLaw, walk, keys, count_width: int, rekey):
    """Generation ``n`` -> ``n + 1`` of ``len(keys)`` replicates held in one box.

    ``digits`` has shape (digits, replicates, *cells): replicate r's counts,
    digit by digit as in ``SiteCounts``, on a box whose radius is read from
    its odd cell extents; its largest count has ``bits`` bits.  ``walk`` is
    the step law's (points, probabilities, ranges), its atoms in canonical
    order.  Returns the digits of the next generation in the same layout
    and the bit length of its largest count; the new box is the bounding box
    of every replicate's occupied sites grown by one step, whatever box
    holds them now.  Replicate r draws its offspring and displacement
    splits from the generator ``rekey`` (``_rekeyer``) resets to
    ``keys[r]``, the ``_seed_key`` of its seed: the draws of
    ``derive_stream(seed, n)``.
    The block sums per cell run only when some cell is cut into more than
    one block, and the displaced counts are split into low and high 32-bit
    halves only when some sum into a cell of the new box could reach 2^63.
    The new box's counts are checked against ``count_width``, and the
    width checked is the next step's ``bits``.
    """
    points, probs, ranges = walk
    n_values = len(off.probs)
    # Occupied cells in lexicographic order of (replicate, site): each
    # replicate's cells, and so its blocks, form one run in site order.
    rep, *cells = np.nonzero(digits.any(axis=0))
    sites = [c - e // 2 for c, e in zip(cells, digits.shape[2:])]
    radius = tuple(int(np.abs(x).max(initial=0)) + t for x, t in zip(sites, ranges))
    shape = (len(keys), *(2 * r + 1 for r in radius))
    charge("the next generation's box", math.prod(shape))
    sizes, starts = _blocks(
        digits[(slice(None), rep, *cells)], bits, _block_bits(n_values), max(n_values, len(points)), math.prod(shape)
    )
    bounds = np.append(starts, len(sizes))[np.searchsorted(rep, np.arange(len(keys) + 1))]

    # With all its mass on the largest offspring number K, a block of b
    # particles has K b children, and the offspring split would draw
    # nothing: numpy's multinomial draws a binomial per category but the
    # last, and a binomial of p = 0 returns before drawing.  A point mass on
    # a smaller number draws, at its binomial of p = 1.
    one_point = not any(off.probs[:-1])
    values = np.arange(1, n_values + 1, dtype=np.int64)
    placed = np.empty((len(sizes), len(points)), dtype=np.int64)
    mixed = _mix64(n)
    for key, lo, hi in zip(keys, bounds[:-1], bounds[1:]):
        rng = rekey(key, mixed)
        if one_point:
            offspring = sizes[lo:hi] * n_values
        else:
            offspring = rng.multinomial(sizes[lo:hi], off.probs) @ values
        placed[lo:hi] = rng.multinomial(offspring, probs)

    # A cell of the new box receives at most one displaced count per atom.
    # When every cell is one block, those are single entries of ``placed``,
    # so with A atoms the cell's sum is at most A max(placed): below 2^63,
    # the counts are scattered as one part.  Otherwise each displaced count
    # (< 2^63) enters as its low and high 32-bit halves, summed over the
    # blocks of a cell when some cell is cut; their sums per cell stay far
    # below 2^63, as the element budget holds fewer than 2^28 blocks.  The
    # parts are carried at the end.  Shifting the box by an atom shifts
    # every flat index of the new box by one offset.
    split = len(sizes) > len(starts)
    if split or int(placed.max(initial=0)) > _INT64_MAX // len(points):
        parts = [placed & _DIGIT_MASK, placed >> _DIGIT]
        if split:
            parts = [np.add.reduceat(part, starts, axis=0) for part in parts]
    else:
        parts = [placed]
    origin = np.ravel_multi_index((rep, *(x + r for x, r in zip(sites, radius))), shape)
    strides = [math.prod(shape[s + 1 :]) for s in range(1, len(shape))]
    sums = np.zeros((len(parts), math.prod(shape)), dtype=np.int64)
    for a, point in enumerate(points):
        dest = origin + sum(p * st for p, st in zip(point, strides))
        for sum_, part in zip(sums, parts):
            sum_[dest] += part[:, a]
    digits = _carry(sums.reshape(len(parts), *shape))
    return digits, _check_width(digits, count_width, n + 1)


def _batch_size(box: SiteCounts, steps: int, off: OffspringLaw, walk, count_width: int) -> int:
    """How many replicates of ``box`` one batch can step ``steps``
    generations on within the element budget; ``walk`` is as for ``_step``.

    A step charges each replicate at most the cells it can reach, C =
    prod_s (2 (radius_s + steps t_s) + 1), plus max(K, atoms) elements per
    count block: at most one block per occupied cell plus total // 2^s, the
    total being at most box.total() K^(steps - 1) and below C 2^count_width.
    A batch holds the budget's worth of that bound, and at least one
    replicate, which is charged only what it uses.
    """
    points, _, ranges = walk
    cells = math.prod(2 * (r + steps * t) + 1 for r, t in zip(box.radius, ranges))
    n_values = len(off.probs)
    # From this exponent on, K^e >= 2^e exceeds C 2^count_width.
    e = min(steps - 1, count_width + cells.bit_length())
    total = min(box.total() * n_values**e, cells << count_width)
    blocks = cells + (total >> _block_bits(n_values))
    per_replicate = cells + max(n_values, len(points)) * blocks
    return max(1, config.ELEMENT_BUDGET // per_replicate)


def initial_state(d: int) -> GenerationState:
    """A single ancestor at the origin."""
    return GenerationState(n=0, counts=SiteCounts(np.ones((1,) * (d + 1), dtype=np.int64)))


def simulate(
    off: OffspringLaw,
    law: StepLaw,
    seeds: Sequence[ReplicateSeed],
    probe_schedule,
    count_width: int = 64,
    start: GenerationState | None = None,
) -> list[list[GenerationState]]:
    """Run one replicate per seed from ``start`` (by default a single
    ancestor at the origin) to the last scheduled generation, and return
    per seed its snapshots of the scheduled generations.

    The replicates are stepped together, in batches sized up front so that
    every step of a batch fits the element budget (``_batch_size``); a
    replicate's snapshots do not depend on the batching.  Each snapshot
    keeps only its replicate's nonzero digits, on the batch's box, and so
    keeps that whole box alive; the kept boxes are charged to the element
    budget as they are kept.

    Raises:
        ValueError: ``step_count`` refuses a scheduled generation, one lies
            before the start generation, the last does not exceed it (an
            empty schedule included), or ``start`` and ``law`` differ in
            dimension.
        CountOverflow: a count of ``start`` or of a stepped generation does
            not fit a signed ``count_width``-bit integer.
        CapacityExceeded: in a step, a count needs 2^32 blocks or more, or
            the blocks times the larger of the offspring and atom numbers,
            plus the cells of the new box, exceed the element budget;
            raised before the blocks are allocated.  With binary offspring
            that is about 2^27 blocks of 2^61 particles, enough for counts
            near 2^80 on each of 150 sites.  The new box alone must fit the
            budget too: in d = 5 an occupied reach of 22 per axis is the
            most a nearest-neighbour walk can step from.
        CapacityExceeded: the boxes behind the kept snapshots exceed the
            element budget.
    """
    if start is None:
        start = initial_state(law.d)
    if start.d != law.d:
        raise ValueError(f"the start generation is {start.d}-dimensional but the step law is {law.d}-dimensional")
    probes = set(map(step_count, probe_schedule))
    if max(probes, default=start.n) <= start.n:
        raise ValueError(f"the last scheduled generation must exceed the start generation {start.n}")
    if min(probes) < start.n:
        raise ValueError(f"scheduled generation {min(probes)} lies before the start generation {start.n}")
    n_max = max(probes)
    keys = [_seed_key(seed) for seed in seeds]
    box = start.counts
    start_bits = _check_width(box.digits, count_width, start.n)
    points, probs = zip(*law.atoms())
    walk = (points, probs, law.ranges)
    batch = _batch_size(box, n_max - start.n, off, walk, count_width)
    rekey = _rekeyer(np.random.Generator(np.random.Philox(0)))
    runs = []
    kept = 0
    for lo in range(0, len(keys), batch):
        chunk = keys[lo : lo + batch]
        snaps = [[start] if start.n in probes else [] for _ in chunk]
        digits = np.broadcast_to(box.digits[:, np.newaxis], (len(box.digits), len(chunk), *box.digits.shape[1:]))
        bits = start_bits
        for n in range(start.n, n_max):
            digits, bits = _step(digits, bits, n, off, walk, chunk, count_width, rekey)
            if n + 1 not in probes:
                continue
            # Each snapshot is a view that keeps this whole box alive.
            kept += digits.size
            charge("the kept snapshots' boxes", kept)
            nonzero = digits.reshape(len(digits), len(chunk), -1).any(axis=2)
            for r, run in enumerate(snaps):
                counts = SiteCounts(digits[: max(np.flatnonzero(nonzero[:, r]), default=0) + 1, r])
                run.append(GenerationState(n=n + 1, counts=counts))
        runs.extend(snaps)
    return runs
