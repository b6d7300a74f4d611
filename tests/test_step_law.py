import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brwllt import errors, step_law
from brwllt.config import load_config, validate_offspring
from brwllt.exact_dist import delta_dist, walk_dist
from brwllt.harness import run_experiment
from brwllt.llt import constants_for, fit_correction_coefficients
from brwllt.step_law import WalkClass, classify, lazy_simple_law, moments, validate


def test_simple_walk_valid():
    law = validate(1, 0.0, [[1.0]])
    assert law.d == 1
    assert law.zeta0 == 0.0
    assert law.weights == ((1.0,),)
    assert law.ranges == (1,)


def test_dimension_read_from_rows():
    # d = 1.0 was stored as given, and atoms() and walk_dist raised TypeError
    law = validate(1.0, 0.0, [[1.0]])
    assert type(law.d) is int and law.d == 1
    assert list(law.atoms()) == [((-1,), 0.5), ((1,), 0.5)]
    assert walk_dist(law, 2).mass.tolist() == [0.5, 0.0, 0.25]
    # A law built from another's rows reads its own d.
    assert dataclasses.replace(law, weights=((0.5,), (0.5,))).d == 2


@pytest.mark.parametrize("d", [True, "1", 1.5, float("nan")], ids=["bool", "str", "fractional", "nan"])
def test_dimension_must_be_an_integer(d):
    # d must be an integer, not merely compare like one: True, "1" and 1.5
    # are refused by a message that names them.
    with pytest.raises(ValueError, match=rf"^dimension must be an integer, got {re.escape(repr(d))}$"):
        validate(d, 0.0, [[1.0]])


@pytest.mark.parametrize(
    "make, names, derived",
    [
        (lambda: validate(2, 0.2, [[0.4], [0.4]]), ["zeta0", "weights"], ["d"]),
        (lambda: delta_dist(validate(2, 0.2, [[0.4], [0.4]])), ["n", "mass"], ["d", "radius"]),
        (lambda: validate_offspring({2: 1.0}), ["probs"], ["mean"]),
        (
            lambda: constants_for(validate(1, 0.0, [[1.0]])),
            ["moments", "walk_class"],
            ["d", "tau_d", "lambda_d", "chi_d", "norm"],
        ),
        (
            lambda: fit_correction_coefficients(validate(1, 0.5, [[0.5]]), (0,), (4, 8, 16)),
            ["n_list", "c1_seq", "c2_seq", "c1_exact", "c2_theorem", "c2_flipped"],
            ["c1_hat", "c2_hat"],
        ),
    ],
    ids=["StepLaw", "LatticeDist", "OffspringLaw", "ExpansionConstants", "CoefficientFit"],
)
def test_derived_values_are_not_fields(make, names, derived):
    # Each value read from another field is derived, not stored, so no
    # object can hold a value that disagrees with its data: the keyword is
    # refused, also by dataclasses.replace (replace(c, tau_d=0.0) changed
    # rw_expansion).
    obj = make()
    assert [f.name for f in dataclasses.fields(obj)] == names
    for name in derived:
        with pytest.raises(TypeError):
            dataclasses.replace(obj, **{name: getattr(obj, name)})


def test_reducible_gcd_two():
    with pytest.raises(errors.Reducible):
        validate(1, 0.0, [[0.0, 1.0]])


def test_lazy_2d_valid():
    law = validate(2, 0.2, [[0.4], [0.4]])
    assert classify(law) is WalkClass.APERIODIC


def test_non_normalized():
    with pytest.raises(errors.NonNormalized):
        validate(1, 0.0, [[0.9]])


def test_negative_weight():
    with pytest.raises(errors.NegativeWeight):
        validate(1, 0.5, [[0.7, -0.2]])


def test_negative_zeta0():
    with pytest.raises(errors.NegativeWeight, match=r"^zeta0 = -0.1 is negative$"):
        validate(1, -0.1, [[1.1]])


def test_zero_top_weight():
    with pytest.raises(errors.ZeroTopWeight):
        validate(1, 0.5, [[0.5, 0.0]])


def test_empty_axis_row():
    with pytest.raises(errors.ZeroTopWeight, match="^axis 1: no ranges declared$"):
        validate(2, 0.2, [[0.8], []])


def test_degenerate_lazy():
    with pytest.raises(errors.DegenerateLazy):
        validate(1, 1.0, [[0.0]])


def test_renormalization_is_exact():
    # A sum within tolerance but not exactly 1 gets divided out.
    eps = 4e-13
    law = validate(1, 0.0, [[1.0 + eps]])
    assert law.weights[0][0] == 1.0


@pytest.mark.parametrize(
    "zeta0,axes,expected",
    [
        (0.0, [[1.0]], WalkClass.BIPARTITE),
        (1.0 / 3.0, [[2.0 / 3.0]], WalkClass.APERIODIC),
        (0.0, [[0.5, 0.5]], WalkClass.APERIODIC),
        (0.0, [[0.5, 0.0, 0.5]], WalkClass.BIPARTITE),
    ],
)
def test_classify(zeta0, axes, expected):
    assert classify(validate(1, zeta0, axes)) is expected


def test_classify_exclusive_2d():
    # One even-supported axis makes the whole law aperiodic.
    law = validate(2, 0.0, [[0.25, 0.25], [0.5]])
    assert classify(law) is WalkClass.APERIODIC


def test_moments_simple_walk():
    m = moments(validate(1, 0.0, [[1.0]]))
    assert m.gamma2 == (1.0,)
    assert m.gamma4 == (1.0,)
    assert m.gamma6 == (1.0,)
    assert m.det_gamma2 == 1.0


def test_moments_range_three():
    # zeta_{1,1} = zeta_{1,3} = 1/2: (1 + 3^k)/2.
    m = moments(validate(1, 0.0, [[0.5, 0.0, 0.5]]))
    assert m.gamma2 == (5.0,)
    assert m.gamma4 == (41.0,)
    assert m.gamma6 == (365.0,)


def test_moments_lazy():
    m = moments(validate(1, 0.5, [[0.5]]))
    assert m.gamma2 == (0.5,)


def test_moments_direct_summation_agrees():
    law = validate(2, 0.1, [[0.2, 0.3], [0.15, 0.25]])
    m = moments(law)
    for s in range(2):
        for k, g in ((2, m.gamma2), (4, m.gamma4), (6, m.gamma6)):
            direct = sum(w * r**k for r, w in enumerate(law.weights[s], start=1))
            assert abs(g[s] - direct) <= 1e-14
    assert m.det_gamma2 == m.gamma2[0] * m.gamma2[1]


def test_moments_derive_traces():
    # only the three moment tuples are stored; the scalars follow from them
    m = moments(validate(2, 0.1, [[0.2, 0.3], [0.15, 0.25]]))
    assert [f.name for f in dataclasses.fields(m)] == ["gamma2", "gamma4", "gamma6"]
    g2, g4, g6 = m.gamma2, m.gamma4, m.gamma6
    assert abs(m.tr_g4g2m2 - sum(a / b**2 for a, b in zip(g4, g2))) <= 1e-15 * m.tr_g4g2m2
    assert abs(m.tr_g6g2m3 - sum(a / b**3 for a, b in zip(g6, g2))) <= 1e-15 * m.tr_g6g2m3
    assert abs(m.tr_g4sq_g2m4 - sum(a**2 / b**4 for a, b in zip(g4, g2))) <= 1e-15 * m.tr_g4sq_g2m4


def test_gamma2_leq_gamma4():
    law = validate(2, 0.1, [[0.2, 0.3], [0.15, 0.25]])
    m = moments(law)
    for s in range(2):
        assert m.gamma2[s] <= m.gamma4[s]


def test_atoms_sum_to_one_and_symmetric():
    law = validate(2, 0.1, [[0.2, 0.3], [0.15, 0.25]])
    atoms = dict(law.atoms())
    assert abs(math.fsum(atoms.values()) - 1.0) <= 1e-15
    for point, p in atoms.items():
        neg = tuple(-c for c in point)
        assert atoms[neg] == p
    # mean step is exactly zero by pairing
    for s in range(2):
        assert math.fsum(p * point[s] for point, p in atoms.items()) == 0.0


def test_tiny_weight_warning():
    with pytest.warns(UserWarning):
        law = validate(1, 0.0, [[0.5, 1e-16, 0.5]])
    assert law.weights[0][1] == 0.0


def test_round_trip_dict():
    law = lazy_simple_law(2, 0.25)
    again = step_law.law_from_dict(step_law.law_to_dict(law))
    assert again == law


def test_law_from_dict_refuses_unknown_key():
    with pytest.raises(ValueError, match="unknown key 'zeta'"):
        step_law.law_from_dict({"d": 1, "zeta": 0.5, "axes": [[0.5]]})


def test_lattice_point():
    # An integral float or NumPy number is read as its int, never truncated.
    point = step_law.lattice_point([2.0, np.int64(-3), np.float32(4)], 3)
    assert point == (2, -3, 4) and all(type(c) is int for c in point)
    for z in [(0.5, 0), (True, 0), ("1", 0), (np.float32(0.5), 0), (math.inf, 0), (math.nan, 0), 7, "12"]:
        with pytest.raises(ValueError, match="is not a lattice point$"):
            step_law.lattice_point(z, 2)
    for z in [(), (1,), (1, 2, 3)]:
        with pytest.raises(ValueError, match="^every point needs 2 coordinates$"):
            step_law.lattice_point(z, 2)


def test_step_count():
    for n in (0, 7, 7.0, np.int64(7)):
        assert step_law.step_count(n) == int(n) and type(step_law.step_count(n)) is int
    for n in (2.5, True, "2", None, math.inf):
        with pytest.raises(ValueError, match=f"^number of steps must be an integer, got {n!r}$"):
            step_law.step_count(n)
    with pytest.raises(ValueError, match="^number of steps must be >= 0, got -1$"):
        step_law.step_count(-1)


BROKEN = st.sampled_from([0.0, 1e-16, 1e-14, -0.1, 0.7, float("nan"), float("inf")])


@st.composite
def law_candidates(draw):
    """(d, zeta0, weights), normalized, sometimes with one entry replaced
    by a zero, tiny, negative, too large or non-finite value."""
    d = draw(st.integers(1, 2))
    rows = [draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)) for _ in range(d)]
    zeta0 = draw(st.floats(0.0, 1.0))
    total = zeta0 + sum(map(sum, rows))
    if total > 0.0:
        zeta0, rows = zeta0 / total, [[w / total for w in row] for row in rows]
    if draw(st.booleans()):
        s = draw(st.integers(-1, d - 1))
        if s < 0:
            zeta0 = draw(BROKEN)
        else:
            rows[s][draw(st.integers(0, len(rows[s]) - 1))] = draw(BROKEN)
    return d, zeta0, rows


@settings(derandomize=True, max_examples=120, deadline=None)
@given(candidate=law_candidates())
def test_validated_laws_run(candidate):
    # validate refuses a candidate with a package error, or its law runs a
    # tiny llt-check to the end or stops with a package error.
    d, zeta0, rows = candidate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # weights below ZERO_WEIGHT_TOL
        try:
            law = validate(d, zeta0, rows)
        except errors.BrwlltError:
            return
    doc = {"experiment": "llt-check", "step_law": step_law.law_to_dict(law), "n_values": [1, 2, 3]}
    try:
        run_experiment(load_config({**doc, "z_set": [[0] * d, [1] + [0] * (d - 1)]}))
    except errors.BrwlltError:
        pass
