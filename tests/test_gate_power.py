"""What each gate rejects: one table of (config, planted fault, gate that
must fail).

Every row first runs its config as it is and requires it to pass, then
plants the fault and requires the named gate to fail.  Where the fault
touches one gate only, every other gate of the run must still pass.
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from brwllt import harness, llt
from brwllt.config import load_config
from brwllt.harness import Gate, RunResult, run_experiment

DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
LAW_1D_LAZY = {"d": 1, "zeta0": 0.5, "axes": [[0.5]]}


def demo(name):
    return json.loads((DEMO_CONFIGS / name).read_text())


def doc(experiment, **extra):
    return {"experiment": experiment, "step_law": dict(LAW_1D_LAZY), "base_seed": 7, **extra}


LLT_2D = demo("llt_check_2d.json")
LLT_LAZY_1D = demo("llt_check_lazy_1d.json")
LLT_TWO_PROBES = doc("llt-check", n_values=[16, 64], z_set=[[0], [1]], kappa=0.15)
IDENTITIES = demo("identities_12d.json")
COEFF_FIT = doc("coeff-fit", n_values=[64, 128, 256], z_set=[[0]])
MARTINGALE = doc("martingale-check", offspring={"2": 1.0}, n_values=[10])
BRW = doc("brw-check", offspring={"2": 1.0}, replicates=8, n_values=[8, 16], z_set=[[0]])


def plant(module, name, change, calls=lambda k: True):
    """A fault: ``module.name`` returns ``change(result)`` on the calls whose
    0-based index k satisfies ``calls(k)``, and its own result otherwise."""

    def install(monkeypatch):
        real, count = getattr(module, name), []

        def planted(*args, **kwargs):
            out = real(*args, **kwargs)
            count.append(None)
            return change(out) if calls(len(count) - 1) else out

        monkeypatch.setattr(module, name, planted)

    return install


def first_call(k):
    return k == 0


def shift_c2(delta):
    return plant(llt, "bracket_coefficients", lambda c: (c[0], c[1] + delta, c[2]))


def flip_lambda():
    # The expansion reads c2 with Lambda's sign flipped.
    return plant(llt, "bracket_coefficients", lambda c: (c[0], c[2], c[1]))


def identity_9_reads_gamma2_squared(monkeypatch):
    # 15 tr(Gamma6 Gamma2^-3) read as 15 tr(Gamma6 Gamma2^-2).
    table = list(llt._IDENTITIES)
    exponents, _ = table[8]
    table[8] = (exponents, lambda m, z: 15.0 * math.fsum(a / b**2 for a, b in zip(m.gamma6, m.gamma2)))
    monkeypatch.setattr(llt, "_IDENTITIES", tuple(table))


def c1_hat_nan(fits):
    return tuple(dataclasses.replace(fit, c1_seq=fit.c1_seq[:-1] + (math.nan,)) for fit in fits)


def failing_value_is_nan(gate):
    def check(res):
        assert math.isnan(next(g.value for g in res.gates if g.name == gate))

    return check


def every_harmonicity_row_above_the_bound(res):
    assert all(row[-1] > harness.HARMONICITY_REL for row in res.rows if row[0] == "harmonicity")


def one_step_w_misses_by_one(res):
    (w_row,) = [row for row in res.rows if row[:2] == ("one-step", "W")]
    assert w_row[-2] == pytest.approx(1.0, rel=1e-12)


def band_note_last(res):
    assert res.notes[-1].startswith("z=(0,): n*(ratio) median ")


def oracle_gap_reads_nan(res):
    failing_value_is_nan("cf_agreement")(res)
    assert math.isnan(res.audit["oracle_gap_max"])


def sup_row_reads_nan(res):
    # A trend's value is its last figure and its bound its first.
    assert math.isnan(next(g.bound for g in res.gates if g.name == "gamma_trend"))
    sups = {row[0]: row[-1] for row in res.rows if row[1] == "sup"}
    assert math.isnan(sups[16]) and not math.isnan(sups[64])


def trend_note_reads_nan(res):
    assert res.notes[0] == "z=(0,): median|ratio| nan (n=8) -> nan (n=16)"


def trend_bound_reads_nan(res):
    # One replicate's ratio at n = 8 is NaN: the median at n = 8 is NaN,
    # the one at n = 16 is not.
    gate = next(g for g in res.gates if g.name == "ratio_trend z=(0,)")
    assert math.isnan(gate.bound) and not math.isnan(gate.value)


def no_check(res):
    pass


ROWS = [
    # (config, planted fault, gate that must fail, the fault touches that gate only, further check)
    pytest.param(LLT_2D, flip_lambda(), "gamma_trend", False, no_check, id="lambda-flip-llt-2d"),
    pytest.param(LLT_LAZY_1D, flip_lambda(), "gamma_trend", False, no_check, id="lambda-flip-lazy-1d"),
    pytest.param(LLT_2D, shift_c2(0.01), "n_gamma_converges", True, no_check, id="c2-plus-llt-2d"),
    pytest.param(LLT_2D, shift_c2(-0.01), "n_gamma_converges", True, no_check, id="c2-minus-llt-2d"),
    pytest.param(LLT_LAZY_1D, shift_c2(0.01), "n_gamma_converges", True, no_check, id="c2-plus-lazy-1d"),
    pytest.param(LLT_LAZY_1D, shift_c2(-0.01), "n_gamma_converges", True, no_check, id="c2-minus-lazy-1d"),
    pytest.param(
        LLT_2D, plant(harness, "dist_at", lambda v: v + 1e-8, first_call), "cf_agreement", True, no_check,
        id="cf-moved",
    ),
    pytest.param(IDENTITIES, identity_9_reads_gamma2_squared, "identity_rel_err", True, no_check, id="identity-9"),
    pytest.param(
        MARTINGALE, plant(harness, "harmonicity_defect", lambda v: 1.0), "harmonicity", True,
        every_harmonicity_row_above_the_bound, id="harmonicity-defect",
    ),
    pytest.param(
        # Every readout after the parent's reads W 1.0 too high.
        MARTINGALE, plant(harness, "readout", lambda ro: dataclasses.replace(ro, W=ro.W + 1.0), lambda k: k > 0),
        "one_step W", True, one_step_w_misses_by_one, id="one-step-mean",
    ),
    pytest.param(
        # Every F1 readout up by 100: the scaled median falls below the band.
        BRW, plant(harness, "f1_eval", lambda v: v + 100.0), "f1_band z=(0,)", True, band_note_last, id="f1-band",
    ),
    pytest.param(
        LLT_2D, plant(harness, "dist_at", lambda v: math.nan, first_call), "cf_agreement", True,
        oracle_gap_reads_nan, id="nan-cf",
    ),
    pytest.param(
        LLT_TWO_PROBES, plant(harness, "rw_expansion", lambda v: math.nan, first_call), "gamma_trend", True,
        sup_row_reads_nan, id="nan-gamma",
    ),
    pytest.param(
        COEFF_FIT, plant(harness, "fit_points", c1_hat_nan), "c1_rel_err z=(0,)", True,
        failing_value_is_nan("c1_rel_err z=(0,)"), id="nan-c1",
    ),
    pytest.param(
        MARTINGALE, plant(harness, "harmonicity_defect", lambda v: math.nan), "harmonicity", True,
        failing_value_is_nan("harmonicity"), id="nan-harmonicity",
    ),
    pytest.param(
        # Too few replicates for the F1 band, so the trend is the only gate.
        {**BRW, "replicates": 2}, plant(harness, "leading_factor", lambda v: math.nan), "ratio_trend z=(0,)", True,
        trend_note_reads_nan, id="nan-leading-factor",
    ),
    pytest.param(
        # One replicate's leading factor NaN at the first probe, among 8: a
        # sorted median would move it out of the middle.
        BRW, plant(harness, "leading_factor", lambda v: math.nan, first_call), "ratio_trend z=(0,)", True,
        trend_bound_reads_nan, id="nan-one-replicate",
    ),
]


@pytest.mark.parametrize("config, fault, gate, isolated, check", ROWS)
def test_planted_fault_fails_its_gate(monkeypatch, config, fault, gate, isolated, check):
    cfg = load_config(config)
    assert run_experiment(cfg).passed
    fault(monkeypatch)
    res = run_experiment(cfg)
    verdicts = {g.name: g.passed for g in res.gates}
    assert verdicts[gate] is False
    assert not res.passed
    if isolated:
        assert [name for name, ok in verdicts.items() if not ok] == [gate]
    check(res)


@pytest.mark.parametrize("at", range(3))
def test_a_nan_fails_a_limit_wherever_it_stands(at):
    values = [1e-12, 2e-12, 3e-12]
    values[at] = math.nan
    gate = harness._limit("g", values, 1.0)
    assert not gate.passed and math.isnan(gate.value)


def test_passed_is_read_from_the_gates():
    res = RunResult(("a",), [], [Gate("x", 0.0, 1.0, True), Gate("y", 2.0, 1.0, False)])
    assert not res.passed
    assert RunResult(("a",), [], [Gate("x", 0.0, 1.0, True)]).passed
    with pytest.raises(AttributeError):
        res.passed = True


@pytest.mark.parametrize(
    "config, names",
    [
        (LLT_2D, ["cf_agreement", "gamma_trend", "n_gamma_converges"]),
        (LLT_TWO_PROBES, ["cf_agreement", "gamma_trend"]),
        (IDENTITIES, ["identity_rel_err"]),
        (COEFF_FIT, ["c1_rel_err z=(0,)"]),
        (MARTINGALE, ["harmonicity", "one_step W", "one_step N2z", "one_step N4"]),
        (BRW, ["ratio_trend z=(0,)", "f1_band z=(0,)"]),
        ({**BRW, "replicates": 3}, ["ratio_trend z=(0,)"]),
    ],
)
def test_each_run_names_its_gates(config, names):
    assert [g.name for g in run_experiment(load_config(config)).gates] == names


@pytest.mark.parametrize(
    "config",
    [
        LLT_2D,
        LLT_LAZY_1D,
        doc("llt-check", n_values=[10, 20, 40], z_set=[[0], [1]]),
        doc("llt-check", n_values=[4, 8, 16], z_set=[[0]], kappa=0.15),
        doc("llt-check", n_values=[4, 10, 8], z_set=[[0]]),
        doc("llt-check", step_law={"d": 2, "zeta0": 0.2, "axes": [[0.3, 0.1], [0.4]]}, n_values=[4, 10, 8], z_set=[[0, 0]]),
    ],
)
def test_n_gamma_converges_on_the_true_expansion(config):
    # The gate is formed with 3 or more probes, and passes on the code as it stands.
    gates = {g.name: g for g in run_experiment(load_config(config)).gates}
    assert gates["n_gamma_converges"].passed
