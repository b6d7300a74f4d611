import argparse
import json
import tracemalloc
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brwllt import cli, config, exact_dist, harness, llt
from brwllt.config import EXPERIMENTS, load_config
from brwllt.errors import BrwlltError, ConfigError, NonNormalized
from brwllt.harness import run_experiment, write_csv

LAW_1D_LAZY = {"d": 1, "zeta0": 0.5, "axes": [[0.5]]}
LAW_1D_SIMPLE = {"d": 1, "zeta0": 0.0, "axes": [[1.0]]}
LAW_2D = {"d": 2, "zeta0": 0.2, "axes": [[0.4], [0.4]]}


def base_doc(experiment, **extra):
    doc = {"experiment": experiment, "step_law": dict(LAW_1D_LAZY), "base_seed": 7}
    doc.update(extra)
    return doc


# A valid value for every config field; own_doc keeps the fields that one
# experiment reads, the only keys load_config accepts for it.
EVERY_FIELD = {
    "step_law": LAW_1D_LAZY,
    "offspring": {"1": 0.5, "3": 0.5},
    "n_values": [4, 8, 16],
    "n_est": 8,
    "replicates": 2,
    "z_set": [[0]],
    "kappa": 0.15,
    "count_width": 64,
    "base_seed": 7,
    "output": "out.csv",
}


def own_doc(experiment, **extra):
    fields = EXPERIMENTS[experiment]
    doc = {key: value for key, value in {**EVERY_FIELD, **extra}.items() if key in fields}
    return {"experiment": experiment, **doc}


UNREAD_FIELDS = [
    (experiment, key)
    for experiment in EXPERIMENTS
    for key in EVERY_FIELD
    if key not in EXPERIMENTS[experiment]
]


# Configs whose (n, z) grid some probe cannot check, each refused at load
# naming z_set.  A trend gate over such a grid compares a value with a
# parity-forbidden 0, or with a point missing at another probe, so it
# passes or fails whatever the law does; a repeated point doubles rows.
GRID_REFUSALS = {
    "llt_check_parity": base_doc("llt-check", step_law=LAW_1D_SIMPLE, n_values=[16, 33], z_set=[[0]]),
    "brw_check_parity_at_last_probe": base_doc(
        "brw-check", step_law=LAW_1D_SIMPLE, offspring={"2": 1.0}, replicates=8, base_seed=3,
        n_values=[15, 16], z_set=[[1]],
    ),
    "llt_check_point_admitted_late": base_doc("llt-check", n_values=[2, 200], z_set=[[0], [2]]),
    "llt_check_no_checkable_point": base_doc("llt-check", n_values=[16, 64], z_set=[[5]]),
    "brw_check_parity_at_every_probe": base_doc(
        "brw-check", step_law=LAW_1D_SIMPLE, offspring={"2": 1.0}, n_values=[8, 16], z_set=[[1]]
    ),
    "repeated_point": base_doc(
        "brw-check", offspring={"2": 1.0}, replicates=5, base_seed=3, n_values=[8, 16], z_set=[[0], [0.0]]
    ),
}


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
OFFSPRING_KEYS = ["-1", "0", "1", "2", "3", "x", str(2**40)]
NUMBER = st.integers(-2, 4) | st.floats(-0.5, 1.5) | st.sampled_from([float("nan"), float("inf"), 10**30])


@st.composite
def config_docs(draw):
    """A valid config document, holding the fields its experiment reads,
    with one to three of them broken: replaced by a near-valid value, by
    arbitrary JSON, or removed."""
    rows = st.lists(st.lists(NUMBER, max_size=3), max_size=3)
    near = {
        "experiment": st.text(max_size=10),
        "step_law": st.fixed_dictionaries({}, optional={"d": NUMBER, "zeta0": NUMBER, "axes": rows | JSON}),
        "offspring": st.dictionaries(st.sampled_from(OFFSPRING_KEYS), NUMBER, max_size=3)
        | st.lists(NUMBER, max_size=3),
        "n_values": st.lists(NUMBER, max_size=3),
        "n_est": NUMBER,
        "replicates": NUMBER,
        "z_set": st.lists(st.lists(NUMBER, max_size=2) | JSON, max_size=2),
        "kappa": NUMBER,
        "count_width": NUMBER,
        "base_seed": NUMBER,
        "output": JSON,
    }
    doc = own_doc(draw(st.sampled_from(tuple(EXPERIMENTS))))
    for key in draw(st.lists(st.sampled_from(sorted(doc)), min_size=1, max_size=3, unique=True)):
        kind = draw(st.sampled_from(["near", "json", "absent"]))
        if kind == "absent":
            del doc[key]
        else:
            doc[key] = draw(near[key] if kind == "near" else JSON)
    return doc


class TestConfig:
    def test_minimal(self):
        cfg = load_config(base_doc("identities"))
        assert cfg.experiment == "identities"
        assert cfg.law.d == 1
        assert cfg.z_set == ((0,),)
        gates = (harness.CF_AGREEMENT, harness.IDENTITY_REL_ERR, harness.HARMONICITY_REL, harness.C1_REL_ERR)
        assert gates == (1e-9, 1e-8, 1e-9, 0.01)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            load_config(base_doc("nonsense"))

    def test_document_must_be_an_object(self):
        for doc, kind in (([base_doc("identities")], "list"), ("identities", "str"), (None, "NoneType")):
            with pytest.raises(ConfigError, match=f"^config: expected a JSON object, got {kind}$"):
                load_config(doc)

    def test_kappa_gate(self):
        for bad in (0.0, 1.0 / 6.0, 0.3, -0.1):
            with pytest.raises(ValueError):
                load_config(base_doc("llt-check", n_values=[16, 64], kappa=bad))
        # 4096^0.1 ~ 2.30 and 4096^0.15 ~ 3.48: kappa = 0.1 admits z = 2 and
        # refuses z = 3, which the default 0.15 admits.
        doc = base_doc("llt-check", n_values=[4096, 8192], kappa=0.1)
        assert load_config({**doc, "z_set": [[2]]}).z_set == ((2,),)
        assert load_config({**doc, "kappa": 0.15, "z_set": [[3]]}).z_set == ((3,),)
        with pytest.raises(ConfigError, match=r"^z_set: z = \(3,\) has"):
            load_config({**doc, "z_set": [[3]]})

    def test_z_dimension_gate(self):
        with pytest.raises(ValueError):
            load_config(base_doc("identities", z_set=[[0, 0]]))

    def test_brw_requires_offspring(self):
        with pytest.raises(ValueError):
            load_config(base_doc("brw-check", n_values=[4]))

    def test_count_width_gate(self):
        with pytest.raises(ValueError):
            load_config(base_doc("brw-check", offspring={"2": 1.0}, n_values=[8, 16], count_width=32))

    @pytest.mark.parametrize("experiment, key", UNREAD_FIELDS, ids=[f"{e}-{k}" for e, k in UNREAD_FIELDS])
    def test_unread_field_refused(self, tmp_path, capsys, experiment, key):
        # A field the experiment does not read is refused, naming the key and
        # the experiment, at load and by `brwllt validate` (exit 2).
        assert load_config(own_doc(experiment)).experiment == experiment
        doc = {**own_doc(experiment), key: EVERY_FIELD[key]}
        refusal = f"config: unknown key {key!r} for {experiment}; "
        with pytest.raises(ConfigError, match=f"^{refusal}"):
            load_config(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"brwllt: {refusal}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("experiment", ["martingale-check", "brw-check"])
    def test_offspring_required(self, experiment):
        doc = own_doc(experiment)
        del doc["offspring"]
        with pytest.raises(ConfigError, match=f"^offspring: {experiment} requires an offspring spec$"):
            load_config(doc)

    @pytest.mark.parametrize("experiment", ["martingale-check", "brw-check"])
    def test_base_seed_range(self, experiment):
        # A seed outside [0, 2^64) would overflow the martingale-check stream
        # key, or be masked to the stream of another seed by brw-check.
        for bad in (-1, 2**64):
            with pytest.raises(ConfigError, match=rf"^base_seed: {bad} outside \[0, 2\^64\)$"):
                load_config(own_doc(experiment, base_seed=bad))
        assert load_config(own_doc(experiment, base_seed=2**64 - 1)).base_seed == 2**64 - 1

    @pytest.mark.parametrize("experiment", ["martingale-check", "brw-check"])
    def test_z_coordinates_fit_a_float(self, experiment):
        for bad in (2**53, -(2**53)):
            with pytest.raises(ConfigError, match=r"^z_set: a coordinate of 2\^53 or more"):
                load_config(own_doc(experiment, z_set=[[bad]]))
        assert load_config(own_doc(experiment, z_set=[[2**53 - 1]])).z_set == ((2**53 - 1,),)

    def test_hash_stable_and_order_independent(self):
        a = load_config({"experiment": "identities", "step_law": LAW_1D_LAZY, "base_seed": 7})
        b = load_config({"base_seed": 7, "step_law": LAW_1D_LAZY, "experiment": "identities"})
        assert a.config_hash == b.config_hash
        c = load_config(base_doc("identities", base_seed=8))
        assert a.config_hash != c.config_hash

    @pytest.mark.parametrize(
        "field, doc",
        [
            ("n_est", base_doc("brw-check", offspring={"2": 1.0}, n_values=[8, 16], n_est=20)),
            ("replicates", base_doc("brw-check", offspring={"2": 1.0}, n_values=[8, 16], replicates=0)),
            ("n_values", base_doc("brw-check", offspring={"2": 1.0}, n_values=[])),
            ("n_values", base_doc("llt-check", n_values=[])),
            ("n_values", base_doc("brw-check", offspring={"2": 1.0}, n_values=[0, 8])),
            ("z_set", base_doc("identities", z_set=[])),
            ("step_law", {"experiment": "identities"}),
            ("step_law", {"experiment": "identities", "step_law": {"d": 1}}),
            ("step_law", {"experiment": "identities", "step_law": {"zeta0": 0.5, "axes": [[0.5]]}}),
            ("step_law", {"experiment": "identities", "step_law": [1, 0.5, [[0.5]]]}),
            ("step_law", {"experiment": "identities", "step_law": {"d": 2, "zeta0": 0.5, "axes": [[0.5]]}}),
            ("offspring", base_doc("brw-check", offspring={}, n_values=[4])),
            ("offspring", base_doc("brw-check", offspring={"-1": 0.5, "2": 0.5}, n_values=[4])),
            ("step_law", base_doc("identities", step_law={"d": True, "zeta0": 0.5, "axes": [[0.5]]})),
            ("step_law", base_doc("identities", step_law={"d": 1.5, "zeta0": 0.5, "axes": [[0.5]]})),
            ("step_law", base_doc("identities", step_law={"d": 1, "zeta0": "0.5", "axes": [[0.5]]})),
            ("step_law", base_doc("identities", step_law={"d": 1, "zeta0": 0.5, "axes": [["0.5"]]})),
            ("n_values", base_doc("llt-check", n_values=[True, "8"])),
            ("n_values", base_doc("llt-check", n_values=["8"])),
            ("z_set", base_doc("identities", z_set=[[False]])),
            ("kappa", base_doc("llt-check", n_values=[16, 64], kappa="0.1")),
            ("replicates", base_doc("brw-check", offspring={"2": 1.0}, n_values=[4, 8], replicates=True)),
            ("base_seed", base_doc("identities", base_seed="7")),
            ("count_width", base_doc("brw-check", offspring={"2": 1.0}, n_values=[8, 16], count_width="64")),
            ("offspring", base_doc("brw-check", offspring={"2": "1.0"}, n_values=[4])),
            ("offspring", base_doc("brw-check", offspring=[0.0, True], n_values=[4])),
            ("n_values", base_doc("coeff-fit", n_values=[64, 128])),
            ("n_values", base_doc("coeff-fit")),
            ("n_values", base_doc("coeff-fit", n_values=[64, 256, 128])),
            ("z_set", base_doc("coeff-fit", step_law=LAW_1D_SIMPLE, n_values=[64, 128, 256], z_set=[[0], [1]])),
            ("config", base_doc("brw-check", offspring={"2": 1.0}, n_values=[4], replicats=16)),
            ("step_law", base_doc("identities", step_law={"d": 1, "zeta": 0.5, "axes": [[0.5]]})),
            ("config", base_doc("identities", thresholds={"identity_rel_err": 1e-6})),
            ("config", base_doc("llt-check", n_values=[16, 64], z_radius_constant=1.0)),
            ("z_set", base_doc("identities", z_set=[[0], [1]])),
            ("z_set", base_doc("martingale-check", offspring={"2": 1.0}, z_set=[[0], [2]])),
            ("z_set", base_doc("llt-check", step_law=LAW_2D, n_values=[4, 8], z_set=[[0.5, 0]])),
            ("z_set", base_doc("llt-check", step_law=LAW_2D, n_values=[4, 8], z_set=[[1]])),
            ("n_values", base_doc("llt-check", n_values=[64])),
            ("n_values", base_doc("llt-check", n_values=[64, 64])),
            ("n_values", base_doc("brw-check", offspring={"2": 1.0}, n_values=[8], replicates=4)),
            *(("z_set", doc) for doc in GRID_REFUSALS.values()),
        ],
        ids=[
            "n_est_above_max",
            "zero_replicates",
            "empty_brw_probes",
            "empty_llt_probes",
            "probe_n_zero",
            "empty_z_set",
            "missing_step_law",
            "step_law_missing_axes",
            "step_law_missing_d",
            "step_law_not_object",
            "step_law_axis_rows",
            "empty_offspring",
            "negative_offspring",
            "step_law_bool_d",
            "step_law_fractional_d",
            "step_law_str_zeta0",
            "step_law_str_weight",
            "bool_and_str_probes",
            "str_probe",
            "bool_z",
            "str_kappa",
            "bool_replicates",
            "str_base_seed",
            "str_count_width",
            "str_offspring_probability",
            "bool_offspring_probability",
            "coeff_fit_two_probes",
            "coeff_fit_no_probes",
            "coeff_fit_probes_not_increasing",
            "coeff_fit_bipartite_parity",
            "unknown_top_level_key",
            "unknown_step_law_key",
            "removed_thresholds",
            "removed_z_radius_constant",
            "identities_two_points",
            "martingale_check_two_points",
            "fractional_z",
            "short_z",
            "llt_check_one_probe",
            "llt_check_one_distinct_probe",
            "brw_check_one_probe",
            *GRID_REFUSALS,
        ],
    )
    def test_config_error_names_field(self, field, doc):
        with pytest.raises(ConfigError, match=f"^{field}:"):
            load_config(doc)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_repeated_point_refused(self, experiment):
        # One point named twice, once as a float, would double its rows.
        doc = own_doc(experiment, n_values=[8, 16, 32], z_set=[[1], [0], [1.0]])
        with pytest.raises(ConfigError, match=r"^z_set: z = \(1,\) is named more than once$"):
            load_config(doc)

    def test_unknown_keys_are_named(self):
        docs = {
            "replicats": base_doc("identities", replicats=16),
            "zeta": base_doc("identities", step_law={"d": 1, "zeta": 0.5, "axes": [[0.5]]}),
            "thresholds": base_doc("identities", thresholds={"identity_rel_err": 1e-6}),
            "z_radius_constant": base_doc("llt-check", n_values=[16, 64], z_radius_constant=1.0),
        }
        for key, doc in docs.items():
            with pytest.raises(ConfigError, match=key):
                load_config(doc)

    def test_typed_errors_name_field(self):
        with pytest.raises(NonNormalized, match="^offspring:"):
            load_config(base_doc("brw-check", offspring={"2": 0.9}, n_values=[4]))
        with pytest.raises(NonNormalized, match="^step_law:"):
            load_config(base_doc("identities", step_law={"d": 1, "zeta0": float("nan"), "axes": [[0.5]]}))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(doc=config_docs())
    def test_rejections_are_typed(self, doc):
        # Whatever the document, load_config accepts it or raises a package
        # error; never a bare KeyError, TypeError, IndexError or ValueError.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                load_config(doc)
            except BrwlltError:
                pass

    def test_probe_box_budget(self):
        # A 2-d CF grid of 40500^2 cells exceeds ELEMENT_BUDGET; the config
        # is refused at load time, before any grid is allocated.
        law_2d = {"d": 2, "zeta0": 0.2, "axes": [[0.4], [0.4]]}
        tracemalloc.start()
        try:
            for experiment in ("llt-check", "coeff-fit"):
                with pytest.raises(ConfigError, match="^n_values:"):
                    load_config(base_doc(experiment, step_law=law_2d, n_values=[60, 20000], z_set=[[0, 0]]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert load_config(base_doc("llt-check", n_values=[60, 20000])).n_values == (60, 20000)

    @pytest.mark.parametrize("experiment, n_values", [("llt-check", [100, 200]), ("coeff-fit", [50, 100, 200])])
    def test_cf_grid_budget_at_the_edge(self, monkeypatch, experiment, n_values):
        # At n = 200 the lazy 2-d box is 401^2 cells and its CF grid 405^2.
        # A budget that holds the box but not the grid refuses the config at
        # load time; one that holds the grid loads it, and the run's CF boxes
        # fit.
        law_2d = {"d": 2, "zeta0": 0.2, "axes": [[0.4], [0.4]]}
        doc = base_doc(experiment, step_law=law_2d, n_values=n_values, z_set=[[0, 0]])
        monkeypatch.setattr(config, "ELEMENT_BUDGET", 405**2 - 1)
        with pytest.raises(ConfigError, match=r"^n_values: the 200-step CF grid \(405, 405\) exceeds element budget"):
            load_config(doc)
        monkeypatch.setattr(config, "ELEMENT_BUDGET", 405**2)
        assert run_experiment(load_config(doc)).rows


class TestGrid:
    def test_kappa_reads_the_smallest_probe(self):
        # 2 <= n^0.15 needs n >= 2^(1/0.15) ~ 101.6: a grid from 102 on
        # admits z = 2; one from 101 refuses it, whatever its largest probe.
        assert load_config(base_doc("llt-check", n_values=[102, 200], z_set=[[0], [2]])).z_set == ((0,), (2,))
        refusal = r"^z_set: z = \(2,\) has \|\|z\|\| > n\^kappa at the smallest probe n = 101$"
        with pytest.raises(ConfigError, match=refusal):
            load_config(base_doc("llt-check", n_values=[101, 10**4], z_set=[[0], [2]]))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        experiment=st.sampled_from(["llt-check", "brw-check"]),
        law=st.sampled_from([LAW_1D_LAZY, LAW_1D_SIMPLE, LAW_2D, {"d": 2, "zeta0": 0.0, "axes": [[0.5], [0.5]]}]),
        n_values=st.lists(st.integers(1, 9), min_size=2, max_size=4),
        points=st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)), min_size=1, max_size=4),
        replicates=st.integers(1, 4),
    )
    def test_accepted_run_computes_the_full_grid(self, experiment, law, n_values, points, replicates):
        # Whatever grid load_config accepts, the run has one data row per
        # replicate, probe and point: no cell is dropped or forced.
        # Only brw-check reads an offspring law and a replicate count.
        brw = {"offspring": {"1": 0.5, "2": 0.5}, "replicates": replicates} if experiment == "brw-check" else {}
        z_set = [list(z) for z in dict.fromkeys(z[: law["d"]] for z in points)]
        doc = base_doc(experiment, step_law=law, n_values=n_values, z_set=z_set, **brw)
        try:
            cfg = load_config(doc)
        except ConfigError:
            assume(False)
        res = run_experiment(cfg)
        probes = sorted(set(cfg.n_values))
        if experiment == "llt-check":
            cells = [(n, tuple(z)) for n, *z, _, _, _, _ in res.rows if z[0] != "sup"]
            grid = [(n, z) for n in probes for z in cfg.z_set]
        else:
            cells = [(rep, n, tuple(z)) for rep, n, *z, _, _, _, _ in res.rows if rep != "agg"]
            grid = [(rep, n, z) for rep in range(cfg.replicates) for n in probes for z in cfg.z_set]
        assert sorted(cells) == sorted(grid)


class TestRunners:
    def test_llt_check(self):
        cfg = load_config(
            base_doc("llt-check", n_values=[16, 64], z_set=[[0], [1]], kappa=0.15)
        )
        res = run_experiment(cfg)
        assert res.passed
        assert res.columns[0] == "n"
        assert any(r[0] == 16 for r in res.rows)

    def test_coeff_fit(self):
        cfg = load_config(base_doc("coeff-fit", n_values=[64, 128, 256], z_set=[[0]]))
        res = run_experiment(cfg)
        assert res.passed
        verdicts = [r for r in res.rows if r[0] == "verdict"]
        assert len(verdicts) == 1
        assert verdicts[0][-1] in ("theorem", "flipped")

    def test_identities(self):
        res = run_experiment(load_config(base_doc("identities")))
        assert res.passed
        assert len(res.rows) == 13
        assert all(err <= 1e-8 for _, err in res.rows)

    def test_identities_d4(self):
        law = {"d": 4, "zeta0": 0.2, "axes": [[0.2]] * 4}
        res = run_experiment(load_config(base_doc("identities", step_law=law, z_set=[[1, 0, -2, 3]])))
        assert res.passed
        assert len(res.rows) == 13
        assert all(err <= 1e-8 for _, err in res.rows)

    def test_martingale_check(self):
        cfg = load_config(
            base_doc("martingale-check", offspring={"2": 1.0}, n_values=[10])
        )
        res = run_experiment(cfg)
        assert res.passed
        kinds = [r[0] for r in res.rows]
        assert kinds.count("harmonicity") == harness.HARMONICITY_POINTS * len(harness.FUNCTIONALS)
        assert kinds.count("one-step") == 3
        assert kinds.count("trajectory") == 10

    def test_brw_check_shape(self):
        cfg = load_config(
            base_doc(
                "brw-check",
                offspring={"2": 1.0},
                replicates=8,
                n_values=[8, 16],
                n_est=16,
                z_set=[[0]],
            )
        )
        res = run_experiment(cfg)
        assert res.columns[:2] == ("replicate", "n")
        per_rep = [r for r in res.rows if r[0] != "agg"]
        assert len(per_rep) == 8 * 2
        aggs = [r for r in res.rows if r[0] == "agg"]
        assert len(aggs) == 2
        assert [note.split(":")[0] for note in res.notes if "F1" in note] == ["z=(0,)"]
        assert "vs F1 IQR" in res.notes[-1]

    @pytest.mark.parametrize("replicates", [1, 3])
    def test_brw_check_says_band_not_checked(self, replicates):
        # Too few replicates for an F1 quartile band: one note per z says so.
        cfg = load_config(
            base_doc(
                "brw-check",
                offspring={"2": 1.0},
                replicates=replicates,
                n_values=[8, 16],
                z_set=[[0], [2]],
            )
        )
        notes = run_experiment(cfg).notes
        assert [note for note in notes if "F1" in note] == [
            f"z={z}: F1 band not checked ({replicates} replicates, needs 4)" for z in ((0,), (2,))
        ]

    @pytest.mark.parametrize("replicates", [2, 4])
    def test_brw_check_reads_out_only_for_the_band(self, monkeypatch, replicates):
        # The readouts at n_est feed only the F1 band, which needs 4 replicates.
        calls = []
        original = harness.readout

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(harness, "readout", spy)
        z_set = [[0], [1], [2]]
        cfg = load_config(
            base_doc("brw-check", offspring={"2": 1.0}, replicates=replicates, n_values=[8, 16], z_set=z_set)
        )
        run_experiment(cfg)
        assert len(calls) == (replicates * len(z_set) if replicates >= 4 else 0)

    @pytest.mark.parametrize("replicates", [2, 4])
    def test_brw_check_quartiles_only_with_band(self, replicates):
        # An agg row's IQR cells are written only where the F1 band is
        # checked, with 4 or more replicates; else they are left empty.
        doc = base_doc("brw-check", offspring={"2": 1.0}, replicates=replicates, n_values=[8, 16], z_set=[[0], [2]])
        aggs = [row for row in run_experiment(load_config(doc)).rows if row[0] == "agg"]
        assert len(aggs) == 4
        for _, _, _, median, q1, q3, _ in aggs:
            if replicates < 4:
                assert (q1, q3) == ("", "")
            else:
                assert isinstance(q1, float) and q1 <= q3

    def test_coeff_fit_inverts_each_probe_once(self, monkeypatch):
        # Every point is read from one CF box per probe, not one per point.
        probes = []
        real = llt.cf_invert_box
        monkeypatch.setattr(llt, "cf_invert_box", lambda law, n: probes.append(n) or real(law, n))
        doc = {
            "experiment": "coeff-fit",
            "step_law": {"d": 2, "zeta0": 0.2, "axes": [[0.3, 0.1], [0.4]]},
            "n_values": [40, 80, 160, 240],
            "z_set": [[0, 0], [1, -1], [-3, 2], [0, 250]],
            "base_seed": 1,
        }
        rows = run_experiment(load_config(doc)).rows
        assert probes == [40, 80, 160, 240]
        assert len([row for row in rows if row[0] == "verdict"]) == 4

    def test_unknown_runner_rejected(self):
        # one runner per experiment, in the order load_config names them
        assert tuple(EXPERIMENTS) == ("llt-check", "coeff-fit", "identities", "martingale-check", "brw-check")
        assert tuple(harness.RUNNERS) == tuple(EXPERIMENTS)


class TestCsvAndDeterminism:
    def test_csv_header(self, tmp_path):
        cfg = load_config(base_doc("identities"))
        res = run_experiment(cfg)
        path = tmp_path / "out.csv"
        write_csv(cfg, res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# config_hash={cfg.config_hash}"
        assert lines[1].startswith("# tool_version=")
        assert lines[2] == "# stream_version=2"
        assert lines[3] == "# base_seed=7"
        assert lines[4] == "# experiment=identities"
        assert lines[5] == "# passed=True"
        assert lines[6] == "identity,relative_error"
        assert len(lines) == 7 + 13

    def test_llt_audit_header(self, tmp_path):
        doc = base_doc("llt-check", n_values=[10, 20, 40], z_set=[[0], [1]])
        texts = []
        for tag in ("a", "b"):
            cfg = load_config(json.loads(json.dumps(doc)))
            path = tmp_path / f"{tag}.csv"
            write_csv(cfg, run_experiment(cfg), path)
            texts.append(path.read_text())
        assert texts[0] == texts[1]
        lines = texts[0].splitlines()
        assert lines[5] == "# passed=True"
        keys = [line[2:].partition("=")[0] for line in lines[6:9]]
        assert keys == ["oracle_gap_max", "cf_negative_mass", "exact_mass_drift"]
        gap, negative, drift = (float(line.partition("=")[2]) for line in lines[6:9])
        assert 0.0 <= gap <= 1e-9
        assert 0.0 <= negative <= 1e-12
        assert abs(drift) <= 40 * 1e-12
        assert lines[9] == "n,z1,exact,cf_invert,predicted,gamma"

    @pytest.mark.parametrize(
        "law, n_values, z_set",
        [
            (LAW_1D_SIMPLE, [1, 3, 5], [[1], [-1]]),
            ({"d": 2, "zeta0": 0.0, "axes": [[0.3, 0.0, 0.2], [0.5]]}, [1, 3, 5], [[1, 0], [0, -1], [-1, 0]]),
            ({"d": 2, "zeta0": 1.0 / 3.0, "axes": [[1.0 / 3.0], [1.0 / 3.0]]}, [1, 2, 5], [[0, 0], [-1, 0], [0, 1]]),
            ({"d": 3, "zeta0": 0.25, "axes": [[0.25], [0.25], [0.25]]}, [1, 2, 5], [[0, 0, 0], [0, -1, 0], [0, 0, 1]]),
        ],
        ids=["simple-1d", "bipartite-2d", "lazy-2d", "lazy-3d"],
    )
    def test_cf_column_reads_the_cf_box(self, law, n_values, z_set):
        # Every cf_invert cell is the CF box's P(S_n = z) bit for bit.  Each
        # point has ||z|| <= 1 = 1^kappa and, on a bipartite law, an odd
        # coordinate sum like every probe, so it is checked at every probe.
        cfg = load_config(base_doc("llt-check", step_law=law, n_values=n_values, z_set=z_set))
        rows = [row for row in run_experiment(cfg).rows if row[1] != "sup"]
        assert len(rows) == 3 * len(z_set)
        for n, *z, _, cf, _, _ in rows:
            assert cf == exact_dist.dist_at(exact_dist.cf_invert_box(cfg.law, n), z)

    def test_llt_2d_memory(self):
        # The bench's llt-2d law at n = 240: the CF route builds no mirrored
        # box, which used to take the traced peak to ~8 MiB.
        axes = [[0.3296621700897042, 0.218853015312865], [0.20500276118966793]]
        law = {"d": 2, "zeta0": 0.24648205340776283, "axes": axes}
        z_set = [[0, 0], [-1, 0], [0, 1], [-1, -1]]
        cfg = load_config(base_doc("llt-check", step_law=law, n_values=[60, 120, 240], z_set=z_set))
        run_experiment(cfg)
        tracemalloc.start()
        try:
            assert run_experiment(cfg).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 << 20

    def test_exact_mass_drift_reads_the_mixture(self, monkeypatch):
        # A kernel step that keeps half the mass leaves q^n in the axis
        # mixture at n, so the audit line reads 1 - q^n at the largest probe.
        q = 0.5
        real = exact_dist._orthant_steps

        def leaky(start, t, zeta0, terms, n):
            return real(start, t, q * zeta0, [(s, r, q * c) for s, r, c in terms], n)

        monkeypatch.setattr(exact_dist, "_orthant_steps", leaky)
        for law, z in ((LAW_1D_LAZY, [0]), ({"d": 2, "zeta0": 0.2, "axes": [[0.3, 0.1], [0.4]]}, [0, 0])):
            cfg = load_config(base_doc("llt-check", step_law=law, n_values=[4, 10, 8], z_set=[z]))
            drift = run_experiment(cfg).audit["exact_mass_drift"]
            assert drift == pytest.approx(1.0 - q**10, rel=1e-12, abs=0.0)

    def test_repeated_runs_byte_identical(self, tmp_path):
        doc = base_doc(
            "brw-check",
            offspring={"2": 1.0},
            replicates=6,
            n_values=[6, 12],
            n_est=12,
            z_set=[[0]],
        )
        paths = []
        for tag in ("a", "b"):
            cfg = load_config(json.loads(json.dumps(doc)))
            res = run_experiment(cfg)
            p = tmp_path / f"{tag}.csv"
            write_csv(cfg, res, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestCli:
    def write_cfg(self, tmp_path, doc, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_version(self, capsys):
        assert cli.main(["version"]) == 0
        from brwllt import __version__

        assert capsys.readouterr().out.strip() == __version__

    def test_validate(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, base_doc("identities"))
        assert cli.main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "experiment: identities" in out
        assert "ok" in out

    def test_run_writes_csv(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, base_doc("identities"))
        out = tmp_path / "res.csv"
        assert cli.main(["run", path, "--output", str(out)]) == 0
        assert out.exists()
        assert "passed=True" in capsys.readouterr().out

    def test_run_failure_exit_code(self, tmp_path):
        # Probes 1, 2 and 3 are too early for the 1/n fit: c1 is off by 2.5 %.
        doc = base_doc("coeff-fit", n_values=[1, 2, 3])
        path = self.write_cfg(tmp_path, doc)
        out = tmp_path / "res.csv"
        assert cli.main(["run", path, "--output", str(out)]) == 1

    def test_override(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, base_doc("coeff-fit", n_values=[64, 128, 256]))
        out = tmp_path / "res.csv"
        assert cli.main(["run", path, "--output", str(out)]) == 0
        code = cli.main(["run", path, "--output", str(out), "--override", "n_values=[1,2,3]"])
        assert code == 1
        # The parser is shared between calls: one call's overrides never reach the next.
        assert cli.main(["run", path, "--output", str(out)]) == 0

    def test_help_keeps_the_verbs_table(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "    dump-dist  write the exact n-step distribution of the config's law as CSV" in lines

    def test_parser_built_once(self, tmp_path, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        path = self.write_cfg(tmp_path, base_doc("identities"))
        assert cli.main(["version"]) == 0
        assert cli.main(["validate", path]) == 0
        assert built == []

    @pytest.mark.parametrize(
        "override, key",
        [
            ("thresholds.identity_rel_err=1e-30", "thresholds"),
            ('thresholds={"c1_rel_err": 1e9}', "thresholds"),
            ("z_radius_constant=50", "z_radius_constant"),
        ],
    )
    def test_removed_keys_refused(self, tmp_path, capsys, override, key):
        # The gates and the z radius are fixed by the code; naming them in a
        # config is refused like any unknown key.
        path = self.write_cfg(tmp_path, base_doc("llt-check", n_values=[16, 64]))
        for verb in ("validate", "run"):
            assert cli.main([verb, path, "--override", override]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"brwllt: config: unknown key {key!r}")
            assert captured.err.count("\n") == 1

    def test_output_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BRWLLT_OUTPUT_DIR", str(tmp_path))
        path = self.write_cfg(tmp_path, base_doc("identities", output="env.csv"))
        assert cli.main(["run", path]) == 0
        assert (tmp_path / "env.csv").exists()

    def test_dump_dist(self, tmp_path, capsys):
        doc = base_doc("identities")
        doc["step_law"] = dict(LAW_1D_SIMPLE)
        path = self.write_cfg(tmp_path, doc)
        out = tmp_path / "dist.csv"
        assert cli.main(["dump-dist", path, "--n", "2", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "z1,probability"
        assert len(lines) == 4  # z in {-2, 0, 2}

    def test_dump_dist_negative_n(self, tmp_path, capsys):
        doc = base_doc("identities")
        path = self.write_cfg(tmp_path, doc)
        out = tmp_path / "dist.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["dump-dist", path, "--n", "-3", "--output", str(out)])
        assert exc.value.code == 2
        assert "--n must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing_dir", [True, False], ids=["missing-dir", "directory"])
    @pytest.mark.parametrize("verb", ["run", "dump-dist"])
    def test_unwritable_output(self, tmp_path, monkeypatch, capsys, verb, missing_dir):
        # An output path that cannot be written ends the command with one
        # stderr line naming it and exit code 2; a missing directory is
        # refused before the experiment runs.
        doc = base_doc("identities")
        doc["step_law"] = dict(LAW_1D_SIMPLE)
        path = self.write_cfg(tmp_path, doc)
        out = str(tmp_path / "missing" / "out.csv") if missing_dir else str(tmp_path)
        if missing_dir:
            def never(*args):
                raise AssertionError("the experiment ran")

            monkeypatch.setattr(harness, "run_experiment", never)
            monkeypatch.setattr(exact_dist, "walk_dist", never)
        extra = ["--n", "2"] if verb == "dump-dist" else []
        assert cli.main([verb, path, *extra, "--output", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("brwllt: ")
        assert out in captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_bad_override_form(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, base_doc("identities"))
        assert cli.main(["run", path, "--override", "nonsense"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "brwllt: override 'nonsense' is not of the form key=value\n"

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_override_through_non_object(self, tmp_path, capsys, verb):
        path = self.write_cfg(tmp_path, base_doc("identities"))
        assert cli.main([verb, path, "--override", "step_law.d.x=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "brwllt: override 'step_law.d.x=1': step_law.d is not an object\n"

    def test_coeff_fit_refused_at_load(self, tmp_path, capsys):
        doc = base_doc("coeff-fit", step_law=LAW_1D_SIMPLE, n_values=[32, 64, 128], z_set=[[1]])
        for verb in ("validate", "run"):
            assert cli.main([verb, self.write_cfg(tmp_path, doc)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("brwllt: z_set: z = (1,) is parity-incompatible with n = 32")
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("doc", GRID_REFUSALS.values(), ids=GRID_REFUSALS)
    def test_grid_refused_at_load(self, tmp_path, capsys, doc):
        assert cli.main(["validate", self.write_cfg(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("brwllt: z_set: ")
        assert captured.err.count("\n") == 1

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, base_doc("llt-check", n_values=[16, 64], kappa=0.9))
        assert cli.main(["validate", path]) == 2
        assert capsys.readouterr().err == "brwllt: kappa: 0.9 outside (0, 1/6)\n"

    @pytest.mark.parametrize("verb", ["validate", "run", "dump-dist"])
    def test_package_error_one_line(self, tmp_path, capsys, verb):
        # A BrwlltError ends every verb with one stderr line and exit code 2.
        path = self.write_cfg(tmp_path, {"experiment": "llt-check", "step_law": {"d": 1}})
        extra = ["--n", "3", "--output", str(tmp_path / "dist.csv")] if verb == "dump-dist" else []
        assert cli.main([verb, path, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "brwllt: step_law: missing key 'axes'\n"

    def test_unreadable_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{bad")
        for path in (str(bad), str(tmp_path / "missing.json")):
            assert cli.main(["validate", path]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"brwllt: config file {path}: ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("case", ["digits-in-file", "digits-in-override", "not-utf8"])
    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_unreadable_config_refused(self, tmp_path, capsys, verb, case):
        # A JSON integer of more digits than int() reads, in the file or in
        # an override, and a file that is not UTF-8 each end the command in
        # one stderr line naming the file or the override, exit code 2.
        huge = "9" * 5000
        good = json.dumps(base_doc("identities")).encode()
        long_seed = json.dumps(base_doc("identities", base_seed="@")).replace('"@"', huge).encode()
        path, out = tmp_path / "cfg.json", tmp_path / "res.csv"
        text, overrides, named = {
            "digits-in-file": (long_seed, [], f"config file {path}: "),
            "digits-in-override": (good, ["--override", f"z_set=[[{huge}]]"], "override z_set: "),
            "not-utf8": (good.replace(b"identities", b"identit\xe9s"), [], f"config file {path}: "),
        }[case]
        path.write_bytes(text)
        argv = [verb, str(path), *overrides] + (["--output", str(out)] if verb == "run" else [])
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"brwllt: {named}")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_dump_dist_budget(self, tmp_path, capsys):
        doc = base_doc("identities", step_law={"d": 2, "zeta0": 0.2, "axes": [[0.4], [0.4]]}, z_set=[[0, 0]])
        path = self.write_cfg(tmp_path, doc)
        out = tmp_path / "dist.csv"
        assert cli.main(["dump-dist", path, "--n", "20000", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("brwllt: two stepping buffers (20003, 20003) exceeds element budget")
        assert err.count("\n") == 1
        assert not out.exists()
