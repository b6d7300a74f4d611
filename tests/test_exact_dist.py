import tracemalloc

import numpy as np
import pytest

from brwllt import errors
from brwllt.exact_dist import (
    cf_invert_box,
    convolve_step,
    delta_dist,
    dist_at,
    dump_csv,
    walk_dist,
)
from brwllt.step_law import WalkClass, classify, lazy_simple_law, validate

SIMPLE = validate(1, 0.0, [[1.0]])
LAZY = validate(1, 0.5, [[0.5]])


def test_delta_dist():
    d = delta_dist(SIMPLE)
    assert d.n == 0
    assert dist_at(d, (0,)) == 1.0
    assert d.total() == 1.0


def test_one_step_simple():
    d = convolve_step(delta_dist(SIMPLE), SIMPLE)
    assert dist_at(d, (1,)) == 0.5
    assert dist_at(d, (-1,)) == 0.5
    assert dist_at(d, (0,)) == 0.0


def test_two_steps_simple():
    # brute force: 4 equally likely paths
    d = walk_dist(SIMPLE, 2)
    assert dist_at(d, (0,)) == 0.5
    assert dist_at(d, (2,)) == 0.25
    assert dist_at(d, (-2,)) == 0.25
    assert dist_at(d, (1,)) == 0.0  # parity


def test_one_step_lazy():
    d = convolve_step(delta_dist(LAZY), LAZY)
    assert dist_at(d, (0,)) == 0.5
    assert dist_at(d, (1,)) == 0.25
    assert dist_at(d, (-1,)) == 0.25


def test_out_of_box_is_zero():
    d = walk_dist(SIMPLE, 3)
    assert dist_at(d, (100,)) == 0.0
    assert dist_at(d, (-4,)) == 0.0


def test_normalization_drift():
    n = 200
    d = walk_dist(LAZY, n)
    assert abs(d.total() - 1.0) <= n * 1e-12


def test_symmetry_bit_exact():
    law = validate(2, 0.1, [[0.2, 0.3], [0.15, 0.25]])
    d = walk_dist(law, 12)
    rev = d.mass[::-1, ::-1]
    assert np.array_equal(d.mass, rev)


def test_bipartite_parity_zero_pattern():
    assert classify(SIMPLE) is WalkClass.BIPARTITE
    d = walk_dist(SIMPLE, 9)
    for z in range(-9, 10):
        if (9 - z) % 2:
            assert dist_at(d, (z,)) == 0.0


def test_capacity_budget():
    with pytest.raises(errors.CapacityExceeded):
        walk_dist(SIMPLE, 10, max_elements=10)


def test_negative_steps_refused():
    with pytest.raises(ValueError):
        walk_dist(SIMPLE, -3)
    with pytest.raises(ValueError):
        cf_invert_box(SIMPLE, -3)


def test_cf_invert_n0():
    assert abs(dist_at(cf_invert_box(SIMPLE, 0), (0,)) - 1.0) <= 1e-12


def test_cf_invert_simple_n2():
    assert abs(dist_at(cf_invert_box(SIMPLE, 2), (0,)) - 0.5) <= 1e-10


def test_cf_invert_parity_zero():
    assert abs(dist_at(cf_invert_box(SIMPLE, 3), (0,))) <= 1e-10


def test_cf_budget_checked_before_allocating():
    # A (2*10^5 + 1)^2 grid exceeds the element budget; the check must come first.
    law = lazy_simple_law(2, 1.0 / 3.0)
    tracemalloc.start()
    try:
        with pytest.raises(errors.CapacityExceeded):
            cf_invert_box(law, 10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(errors.CapacityExceeded):
        cf_invert_box(SIMPLE, 10, max_elements=10)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("sigma", [0.0, 1.0 / 3.0])
def test_oracle_equivalence(d, sigma):
    # convolution vs sampled-CF inversion on the whole box, all n <= 50
    law = lazy_simple_law(d, sigma)
    dist = delta_dist(law)
    for n in range(1, 51):
        dist = convolve_step(dist, law)
        box = cf_invert_box(law, n)
        assert box.radius == dist.radius
        assert np.abs(dist.mass - box.mass).max() <= 1e-9


def test_longer_range_law_oracles_agree():
    law = validate(1, 0.0, [[0.5, 0.0, 0.5]])
    d = walk_dist(law, 20)
    box = cf_invert_box(law, 20)
    for z in [(0,), (2,), (6,), (-10,)]:
        assert abs(dist_at(d, z) - dist_at(box, z)) <= 1e-9


def test_dump_csv(tmp_path):
    d = walk_dist(SIMPLE, 2)
    path = tmp_path / "dist.csv"
    dump_csv(d, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "z1,probability"
    rows = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert rows == {-2: 0.25, 0: 0.5, 2: 0.25}
