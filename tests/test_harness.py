import json
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brwllt import cli
from brwllt.errors import BrwlltError, ConfigError, NonNormalized
from brwllt.harness import (
    DEFAULT_THRESHOLDS,
    EXPERIMENTS,
    admissible_z,
    load_config,
    load_config_file,
    run_experiment,
    write_csv,
)

LAW_1D_LAZY = {"d": 1, "zeta0": 0.5, "axes": [[0.5]]}
LAW_1D_SIMPLE = {"d": 1, "zeta0": 0.0, "axes": [[1.0]]}


def base_doc(experiment, **extra):
    doc = {"experiment": experiment, "step_law": dict(LAW_1D_LAZY), "base_seed": 7}
    doc.update(extra)
    return doc


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
OFFSPRING_KEYS = ["-1", "0", "1", "2", "3", "x", str(2**40)]
NUMBER = st.integers(-2, 4) | st.floats(-0.5, 1.5) | st.sampled_from([float("nan"), float("inf"), 10**30])


@st.composite
def config_docs(draw):
    """A valid config document with one to three fields broken: replaced by
    a near-valid value, by arbitrary JSON, or removed."""
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
        "thresholds": st.dictionaries(st.sampled_from(sorted(DEFAULT_THRESHOLDS)), NUMBER | JSON, max_size=2),
        "base_seed": NUMBER,
        "z_radius_constant": NUMBER,
        "output": JSON,
    }
    doc = {
        "experiment": draw(st.sampled_from(EXPERIMENTS)),
        "step_law": dict(LAW_1D_LAZY),
        "offspring": {"1": 0.5, "3": 0.5},
        "n_values": [4, 8],
        "n_est": 8,
        "replicates": 2,
        "z_set": [[0], [1]],
        "kappa": 0.15,
        "count_width": 64,
        "thresholds": {},
        "base_seed": 7,
        "z_radius_constant": 1.0,
        "output": "out.csv",
    }
    for key in draw(st.lists(st.sampled_from(sorted(near)), min_size=1, max_size=3, unique=True)):
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
        assert cfg.kappa == 0.15
        assert cfg.thresholds == DEFAULT_THRESHOLDS

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            load_config(base_doc("nonsense"))

    def test_kappa_gate(self):
        for bad in (0.0, 1.0 / 6.0, 0.3, -0.1):
            with pytest.raises(ValueError):
                load_config(base_doc("identities", kappa=bad))
        cfg = load_config(base_doc("identities", kappa=0.1))
        assert cfg.kappa == 0.1

    def test_z_dimension_gate(self):
        with pytest.raises(ValueError):
            load_config(base_doc("identities", z_set=[[0, 0]]))

    def test_brw_requires_offspring(self):
        with pytest.raises(ValueError):
            load_config(base_doc("brw-check", n_values=[4]))

    def test_count_width_gate(self):
        with pytest.raises(ValueError):
            load_config(base_doc("identities", count_width=32))

    def test_threshold_override(self):
        cfg = load_config(base_doc("identities", thresholds={"identity_rel_err": 1e-6}))
        assert cfg.thresholds["identity_rel_err"] == 1e-6
        assert cfg.thresholds["cf_agreement"] == 1e-9

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
            ("kappa", base_doc("identities", kappa="0.1")),
            ("replicates", base_doc("brw-check", offspring={"2": 1.0}, n_values=[4], replicates=True)),
            ("base_seed", base_doc("identities", base_seed="7")),
            ("count_width", base_doc("identities", count_width="64")),
            ("thresholds", base_doc("identities", thresholds={"cf_agreement": "1e-9"})),
            ("z_radius_constant", base_doc("identities", z_radius_constant=True)),
            ("offspring", base_doc("brw-check", offspring={"2": "1.0"}, n_values=[4])),
            ("offspring", base_doc("brw-check", offspring=[0.0, True], n_values=[4])),
            ("n_values", base_doc("coeff-fit", n_values=[64, 128])),
            ("n_values", base_doc("coeff-fit")),
            ("n_values", base_doc("coeff-fit", n_values=[64, 256, 128])),
            ("z_set", base_doc("coeff-fit", step_law=LAW_1D_SIMPLE, n_values=[64, 128, 256], z_set=[[0], [1]])),
            ("config", base_doc("brw-check", offspring={"2": 1.0}, n_values=[4], replicats=16)),
            ("step_law", base_doc("identities", step_law={"d": 1, "zeta": 0.5, "axes": [[0.5]]})),
            ("thresholds", base_doc("identities", thresholds={"cf_agrement": 1e-30})),
            ("thresholds", base_doc("coeff-fit", n_values=[64, 128, 256], thresholds={"c2_rel_err": 0.05})),
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
            "str_threshold",
            "bool_z_radius_constant",
            "str_offspring_probability",
            "bool_offspring_probability",
            "coeff_fit_two_probes",
            "coeff_fit_no_probes",
            "coeff_fit_probes_not_increasing",
            "coeff_fit_bipartite_parity",
            "unknown_top_level_key",
            "unknown_step_law_key",
            "unknown_threshold_key",
            "deleted_c2_threshold",
        ],
    )
    def test_config_error_names_field(self, field, doc):
        with pytest.raises(ConfigError, match=f"^{field}:"):
            load_config(doc)

    def test_unknown_keys_are_named(self):
        docs = {
            "replicats": base_doc("identities", replicats=16),
            "zeta": base_doc("identities", step_law={"d": 1, "zeta": 0.5, "axes": [[0.5]]}),
            "cf_agrement": base_doc("identities", thresholds={"cf_agrement": 1e-30}),
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
        # A 2-d box of 40001^2 cells exceeds DEFAULT_ELEMENT_BUDGET; the
        # config is refused at load time, before any box is allocated.
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

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_doc("identities")))
        assert load_config_file(path).experiment == "identities"


class TestAdmissibleZ:
    def test_filter(self):
        cfg = load_config(
            base_doc(
                "llt-check", n_values=[16], kappa=0.15, z_set=[[0], [1], [5]], z_radius_constant=1.0
            )
        )
        assert admissible_z(cfg, 16) == [(0,), (1,)]
        # 5 <= n^0.15 requires n >= 5^(1/0.15), far beyond this range
        assert admissible_z(cfg, 1000) == [(0,), (1,)]

    def test_constant_scales_cap(self):
        cfg = load_config(
            base_doc("llt-check", n_values=[16], kappa=0.15, z_set=[[5]], z_radius_constant=4.0)
        )
        assert admissible_z(cfg, 16) == [(5,)]


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
            base_doc("martingale-check", offspring={"2": 1.0}, replicates=50, n_values=[10])
        )
        res = run_experiment(cfg)
        assert res.passed
        kinds = {r[0] for r in res.rows}
        assert kinds == {"harmonicity", "one-step", "trajectory"}

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

    def test_unknown_runner_rejected(self):
        assert set(EXPERIMENTS) == {
            "llt-check",
            "coeff-fit",
            "identities",
            "martingale-check",
            "brw-check",
        }


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
        assert keys == ["oracle_gap_max", "cf_negative_mass", "conv_mass_drift"]
        gap, negative, drift = (float(line.partition("=")[2]) for line in lines[6:9])
        assert 0.0 <= gap <= 1e-9
        assert 0.0 <= negative <= 1e-12
        assert abs(drift) <= 40 * 1e-12
        assert lines[9] == "n,z1,exact,cf_invert,predicted,gamma"

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
        doc = base_doc("identities", thresholds={"identity_rel_err": 1e-30})
        path = self.write_cfg(tmp_path, doc)
        out = tmp_path / "res.csv"
        assert cli.main(["run", path, "--output", str(out)]) == 1

    def test_override(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, base_doc("identities"))
        out = tmp_path / "res.csv"
        code = cli.main(
            [
                "run",
                path,
                "--output",
                str(out),
                "--override",
                "thresholds.identity_rel_err=1e-30",
            ]
        )
        assert code == 1

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

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, base_doc("identities", kappa=0.9))
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

    def test_dump_dist_budget(self, tmp_path, capsys):
        doc = base_doc("identities", step_law={"d": 2, "zeta0": 0.2, "axes": [[0.4], [0.4]]}, z_set=[[0, 0]])
        path = self.write_cfg(tmp_path, doc)
        out = tmp_path / "dist.csv"
        assert cli.main(["dump-dist", path, "--n", "20000", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("brwllt: 20000-step box (40001, 40001) exceeds element budget")
        assert err.count("\n") == 1
        assert not out.exists()
