"""Config parsing, dispatch, report files, and exit codes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tslattice

from tslattice.cli import (
    EXPERIMENTS,
    ConfigError,
    RunConfig,
    main,
    parse_config,
    parse_kv_lines,
    render_rows,
    render_structured,
    run,
    run_experiment,
)
from tslattice.experiments import foliation_sweep
from tslattice.dynamics import NONLINEARITY_KINDS, ModelConfig, NonlinearitySpec
from tslattice.spacetime import canonical_foliation, foliation_to_text

# Every experiment name the command line and config files accept, and the
# experiment each one runs.
ACCEPTED_EXPERIMENTS = {
    "integrability": "integrability",
    "integrability_check": "integrability",
    "sweep": "sweep",
    "foliation_sweep": "sweep",
    "signal": "signal",
    "signaling": "signal",
    "signaling_experiment": "signal",
    "degeneracy": "degeneracy",
    "degeneracy_experiment": "degeneracy",
    "nonlinearity": "nonlinearity",
    "map_nonlinearity": "nonlinearity",
    "map_nonlinearity_check": "nonlinearity",
    "entanglement": "entanglement",
    "entanglement_monitor": "entanglement",
    "all": "all",
}


class TestParseConfig:
    def test_empty_input_gives_documented_defaults(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("")
        cfg = parse_config(str(p))
        assert (cfg.n_sites, cfg.horizon) == (6, 4)
        assert (cfg.omega, cfg.mu, cfg.link_coupling) == (1.0, 0.7, 0.4)
        assert (cfg.lam, cfg.dt) == (0.5, 0.15)
        assert cfg.kind == "local"
        assert cfg.seed == 42
        assert cfg.experiment == "all"

    def test_single_key_override(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("lambda = 0\n")
        cfg = parse_config(str(p))
        assert cfg.lam == 0.0
        assert cfg.mu == 0.7

    def test_unknown_kind_lists_choices(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text('kind = "frobnicate"\n')
        with pytest.raises(ConfigError, match="kind.*frobnicate.*none|local"):
            parse_config(str(p))

    def test_unknown_key_rejected_by_name(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("frobnication_level = 9\n")
        with pytest.raises(ConfigError, match="unknown config key 'frobnication_level'"):
            parse_config(str(p))

    def test_type_mismatch_names_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("lambda = abc\n")
        with pytest.raises(ConfigError, match="'lambda'.*real number"):
            parse_config(str(p))

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "+Infinity"])
    @pytest.mark.parametrize("key", ["omega", "mu", "link_coupling", "lambda", "dt"])
    def test_non_finite_real_names_key(self, tmp_path, key, raw):
        p = tmp_path / "c.cfg"
        p.write_text(f"{key} = {raw}\n")
        with pytest.raises(ConfigError, match=f"'{key}'.*not a finite real number"):
            parse_config(str(p))

    def test_out_of_range_names_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("n_sites = 40\n")
        with pytest.raises(ConfigError, match="'n_sites'.*out of range"):
            parse_config(str(p))

    @pytest.mark.parametrize(
        "key, lo, hi",
        [
            ("n_sites", 2, 14),
            ("source_site", 0, 13),
            ("partner_site", -1, 13),
            ("alice_site", 0, 13),
            ("bob_site", -1, 13),
        ],
    )
    def test_size_and_site_ranges(self, key, lo, hi):
        # The ranges come from the model's size table; messages name the key.
        assert getattr(parse_config(None, {key: str(hi)}), key) == hi
        for bad in (lo - 1, hi + 1):
            with pytest.raises(ConfigError, match=rf"^config key '{key}': {bad} out of range \[{lo}, {hi}\]$"):
                parse_config(None, {key: str(bad)})

    def test_flags_override_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed = 1\nexperiment = sweep\n")
        cfg = parse_config(str(p), {"seed": "9"})
        assert cfg.seed == 9
        assert cfg.experiment == "sweep"

    def test_comments_and_quotes(self):
        kv = parse_kv_lines("# a comment\nkind = 'local'  # trailing\n\nseed=3\n")
        assert kv == {"kind": "local", "seed": "3"}

    @pytest.mark.parametrize(
        "line, value",
        [('out = "runs#1"', "runs#1"), ("out = 'a # b'  # note", "a # b"), ("out = runs#1", "runs"),
         ("out = bob's", "bob's")],
    )
    def test_hash_inside_quotes_belongs_to_the_value(self, line, value):
        assert parse_kv_lines(line) == {"out": value}

    @pytest.mark.parametrize(
        "line, message",
        [('out = "runs#1', "unterminated quote"), ("out = 'runs", "unterminated quote"),
         ("out = 'a' b", "unexpected text after the closing quote")],
    )
    def test_malformed_quotes_name_the_line(self, line, message):
        with pytest.raises(ConfigError, match=f"^line 2: {message} in "):
            parse_kv_lines(f"seed = 3\n{line}\n")

    def test_experiment_aliases(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("experiment = foliation_sweep\n")
        assert parse_config(str(p)).experiment == "sweep"

    def test_every_accepted_experiment_name(self):
        for raw, name in ACCEPTED_EXPERIMENTS.items():
            assert parse_config(None, {"experiment": raw}).experiment == name
        with pytest.raises(
            ConfigError,
            match=r"^config key 'experiment': 'sweeps' is not one of "
            r"integrability\|sweep\|signal\|degeneracy\|nonlinearity\|entanglement\|all$",
        ):
            parse_config(None, {"experiment": "sweeps"})

    def test_resolved_sites_default_to_last(self):
        cfg = parse_config(None, {"n_sites": "5"})
        assert cfg.partner_site == 4
        assert cfg.bob_site == 4


class TestRenderers:
    def make_report(self):
        cfg = ModelConfig(
            n_sites=4, horizon=2, nonlinearity=NonlinearitySpec(kind="local", lam=0.5)
        )
        return foliation_sweep(cfg, n_foliations=3, seed=5)

    def test_rows_have_header_and_15_digits(self):
        text = render_rows(self.make_report())
        lines = text.splitlines()
        assert lines[0].startswith("foliation,seed,distance_to_reference")
        assert len(lines) == 1 + 5

    def test_structured_fixed_field_order(self):
        text = render_structured(self.make_report())
        order = [ln.split(":")[0] for ln in text.splitlines() if ln and not ln.startswith(" ")]
        assert order == ["experiment", "version", "config", "metrics", "thresholds", "verdict", "details"]

    def test_version_line_names_the_kernels(self):
        version = render_structured(self.make_report()).splitlines()[1]
        assert tslattice.KERNEL_BACKEND == "python"
        assert version == f"version: tslattice {tslattice.__version__} (kernels: python)"

    def test_renderers_deterministic(self):
        a, b = self.make_report(), self.make_report()
        assert render_structured(a) == render_structured(b)
        assert render_rows(a) == render_rows(b)


def write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


class TestRun:
    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    def test_all_at_the_defaults_passes_for_every_kind(self, tmp_path, capsys, kind):
        # operator_nonlocal is linear and breaks covariance; local is
        # nonlinear and keeps it: nonlocality, not nonlinearity, decides.
        cfg = parse_config(None, {"kind": kind, "out": str(tmp_path)})
        assert run(cfg) == 0, capsys.readouterr().out

    def test_sweep_local_passes_and_writes(self, tmp_path):
        cfg = parse_config(
            write_cfg(
                tmp_path,
                "experiment = sweep\nn_sites = 4\nhorizon = 2\nn_foliations = 5\n",
            ),
            {"out": str(tmp_path / "r")},
        )
        assert run(cfg) == 0
        assert (tmp_path / "r" / "sweep.report").exists()
        assert (tmp_path / "r" / "sweep.rows").exists()

    def test_nonlocal_sweep_expects_violation(self, tmp_path):
        cfg = parse_config(
            write_cfg(
                tmp_path,
                "experiment = sweep\nkind = operator_nonlocal\nn_sites = 4\nhorizon = 2\nn_foliations = 5\n",
            ),
            {"out": str(tmp_path / "r")},
        )
        assert run(cfg) == 0

    def test_failing_verdict_exits_2(self, tmp_path):
        # a degeneracy run in which nothing evolves fails its
        # interaction-picture-variation verdict
        cfg = parse_config(
            write_cfg(
                tmp_path,
                "experiment = degeneracy\nomega = 0\nmu = 0\nlink_coupling = 0\nlambda = 0\n",
            ),
            {"out": str(tmp_path / "r")},
        )
        # nothing evolves: interaction_picture_variation stays at 0 < 0.05
        assert run(cfg) == 2

    def test_signal_inside_light_cone_exits_1(self, tmp_path, capsys):
        cfg = parse_config(
            write_cfg(tmp_path, "experiment = signal\nn_sites = 6\nhorizon = 5\n"),
            {"out": str(tmp_path / "r")},
        )
        assert run(cfg) == 1
        assert "|alice_site - bob_site| > horizon" in capsys.readouterr().err
        assert not (tmp_path / "r" / "signal.report").exists()

    def test_unwritable_out_dir_exits_1(self, tmp_path, capsys):
        # A directory beneath a regular file cannot be made, whoever runs.
        blocked = tmp_path / "blocked"
        blocked.write_text("")
        cfg = parse_config(None, {"experiment": "sweep", "out": str(blocked / "sub")})
        assert run(cfg) == 1
        assert "cannot write to output directory" in capsys.readouterr().err

    def test_format_rows_only(self, tmp_path):
        cfg = parse_config(
            write_cfg(tmp_path, "experiment = sweep\nn_sites = 4\nhorizon = 2\nn_foliations = 3\n"),
            {"out": str(tmp_path / "r"), "format": "rows"},
        )
        assert run(cfg) == 0
        assert not (tmp_path / "r" / "sweep.report").exists()
        assert (tmp_path / "r" / "sweep.rows").exists()

    def test_byte_identical_reports_across_runs(self, tmp_path):
        text = "experiment = sweep\nn_sites = 4\nhorizon = 2\nn_foliations = 5\nseed = 13\n"
        outs = []
        for sub in ("a", "b"):
            cfg = parse_config(write_cfg(tmp_path, text), {"out": str(tmp_path / sub)})
            assert run(cfg) == 0
            outs.append((tmp_path / sub / "sweep.report").read_bytes())
        assert outs[0] == outs[1]

    def test_foliation_file_replay(self, tmp_path):
        fol = canonical_foliation(4, 2, "staircase")
        fpath = tmp_path / "f.txt"
        fpath.write_text(foliation_to_text(fol))
        cfg = parse_config(
            write_cfg(tmp_path, "experiment = degeneracy\nn_sites = 4\nhorizon = 2\n"),
            {"out": str(tmp_path / "r"), "foliation_file": str(fpath)},
        )
        assert run(cfg) == 0
        report = (tmp_path / "r" / "degeneracy.report").read_text()
        assert "A 0" in report

    def test_invalid_foliation_file_rejected(self, tmp_path):
        fpath = tmp_path / "f.txt"
        fpath.write_text("A 0\n")  # not enabled first, and incomplete
        cfg = parse_config(
            write_cfg(tmp_path, "experiment = degeneracy\nn_sites = 4\nhorizon = 2\n"),
            {"out": str(tmp_path / "r"), "foliation_file": str(fpath)},
        )
        with pytest.raises(ConfigError, match="foliation file"):
            run_config_to_model = cfg  # parse happens lazily inside run_experiment
            from tslattice.cli import run_experiment

            run_experiment("degeneracy", run_config_to_model)

    def test_unparsable_foliation_file_names_file_and_line(self, tmp_path, capsys):
        fpath = tmp_path / "f.txt"
        fpath.write_text("G 0 0\nA x\n")
        cfg = parse_config(
            write_cfg(tmp_path, "experiment = sweep\nn_sites = 4\nhorizon = 2\nn_foliations = 1\n"),
            {"out": str(tmp_path / "r"), "foliation_file": str(fpath)},
        )
        assert run(cfg) == 1
        assert capsys.readouterr().err == (
            f"error: sweep: foliation file {str(fpath)!r}: line 2: cannot parse foliation step 'A x'\n"
        )


class TestExperimentTable:
    def test_every_experiment_reports_under_its_name(self, tmp_path):
        cfg = parse_config(
            None,
            {"n_sites": "4", "horizon": "2", "n_foliations": "1", "exploration_budget": "10",
             "out": str(tmp_path)},
        )
        assert list(EXPERIMENTS) == [
            "integrability", "sweep", "signal", "degeneracy", "nonlinearity", "entanglement"
        ]
        for name in EXPERIMENTS:
            assert run_experiment(name, cfg).name == name

    def test_unknown_name_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^unknown experiment 'all'$"):
            run_experiment("all", parse_config(None, {"n_sites": "4", "horizon": "2"}))

    def test_command_line_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweeps"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'sweeps'" in err
        listed = re.findall(r"\w+", err.split("choose from", 1)[1])
        assert listed == sorted(ACCEPTED_EXPERIMENTS)


class TestMain:
    def test_subcommand_overrides_config(self, tmp_path):
        cfgfile = write_cfg(
            tmp_path, "experiment = degeneracy\nn_sites = 4\nhorizon = 2\nn_foliations = 3\n"
        )
        code = main(["sweep", "--config", cfgfile, "--out", str(tmp_path / "r")])
        assert code == 0
        assert (tmp_path / "r" / "sweep.report").exists()
        assert not (tmp_path / "r" / "degeneracy.report").exists()

    def test_bad_config_exits_1(self, tmp_path):
        cfgfile = write_cfg(tmp_path, "kind = frobnicate\n")
        assert main(["sweep", "--config", cfgfile, "--out", str(tmp_path / "r")]) == 1

    @pytest.mark.parametrize("key, raw", [("lambda", "inf"), ("omega", "nan")])
    def test_non_finite_real_exits_1_naming_key(self, tmp_path, capsys, key, raw):
        cfgfile = write_cfg(tmp_path, f"experiment = integrability\n{key} = {raw}\n")
        assert main(["--config", cfgfile, "--out", str(tmp_path / "r")]) == 1
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_unterminated_quote_exits_1_naming_the_line(self, tmp_path, capsys):
        cfgfile = write_cfg(tmp_path, 'experiment = sweep\nout = "runs#1\n')
        assert main(["--config", cfgfile]) == 1
        assert "line 2: unterminated quote" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_all_runs_every_experiment(self, tmp_path):
        cfgfile = write_cfg(
            tmp_path,
            "n_sites = 4\nhorizon = 2\nn_foliations = 3\nexploration_budget = 100\n",
        )
        code = main(["all", "--config", cfgfile, "--out", str(tmp_path / "r")])
        assert code == 0
        for name in ("integrability", "sweep", "signal", "degeneracy", "nonlinearity", "entanglement"):
            assert (tmp_path / "r" / f"{name}.report").exists()

    def test_seed_flag_changes_rows(self, tmp_path):
        cfgfile = write_cfg(tmp_path, "experiment = sweep\nn_sites = 4\nhorizon = 2\nn_foliations = 5\n")
        main(["--config", cfgfile, "--out", str(tmp_path / "a"), "--seed", "1"])
        main(["--config", cfgfile, "--out", str(tmp_path / "b"), "--seed", "2"])
        assert (tmp_path / "a" / "sweep.rows").read_text() != (
            tmp_path / "b" / "sweep.rows"
        ).read_text()


class TestDiagonalBaseWarning:
    """base_operator z commutes every generator: one stderr warning, reports unchanged."""

    def test_warns_once_for_a_nonlinear_kind(self, tmp_path, capsys):
        cfgfile = write_cfg(
            tmp_path,
            "n_sites = 4\nhorizon = 2\nn_foliations = 3\nexploration_budget = 100\n"
            "kind = coefficient_nonlocal\nbase_operator = z\n",
        )
        code = main(["all", "--config", cfgfile, "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        # The nonlocal verdicts expect breakage that z cannot produce.
        assert code == 2
        assert err == (
            "warning: base_operator z makes every field diagonal; "
            "kind coefficient_nonlocal with lambda 0.5 has no nonlinear effect\n"
        )

    def test_report_is_the_one_written_without_a_warning(self, tmp_path, capsys):
        cfg = parse_config(
            write_cfg(tmp_path, "experiment = integrability\nn_sites = 3\nhorizon = 2\nbase_operator = z\n"),
            {"out": str(tmp_path / "r")},
        )
        assert run(cfg) == 0
        assert capsys.readouterr().err.count("warning:") == 1
        report = render_structured(run_experiment("integrability", cfg))
        assert (tmp_path / "r" / "integrability.report").read_text() == report

    @pytest.mark.parametrize(
        "text",
        ["base_operator = z\nkind = none\n", "base_operator = z\nlambda = 0\n", "base_operator = y\n"],
    )
    def test_silent_when_no_nonlinearity_is_lost(self, tmp_path, capsys, text):
        cfg = parse_config(
            write_cfg(tmp_path, "experiment = integrability\nn_sites = 3\nhorizon = 2\n" + text),
            {"out": str(tmp_path / "r")},
        )
        run(cfg)
        assert "warning" not in capsys.readouterr().err


# The package's public names: what the command line and the experiments
# run, plus the documented API.
PUBLIC_NAMES = [
    "KERNEL_BACKEND", "__version__",
    "ModelConfig", "NonlinearitySpec", "TrajectoryRecord", "TrajectoryStep",
    "compose_map", "evolve", "free_field", "ts_step",
    "DensityMatrix", "SiteOperator", "StateVector",
    "basis_state", "bell_pair_state", "entanglement_entropy", "expectation",
    "plus_state", "reduced_density", "state_distance", "trace_distance", "zero_state",
    "Deformation", "Foliation", "FoliationError", "Hypersurface", "LinkApply",
    "NotEnabledError", "SiteAdvance", "apply_deformation", "canonical_foliation",
    "count_foliations", "enabled_deformations", "foliation_from_text", "foliation_length",
    "foliation_to_text", "initial_surface", "random_foliation", "validate_foliation",
]


def test_public_surface_is_pinned():
    assert tslattice.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 39
    for name in PUBLIC_NAMES:
        assert hasattr(tslattice, name)
    # The benchmark reads the backend name after every run.
    assert isinstance(tslattice.KERNEL_BACKEND, str)


def test_program_imports_neither_scipy_nor_hypothesis():
    # scipy and hypothesis are test-only dependencies.
    code = (
        "import sys, tslattice.cli, tslattice.experiments\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis'}))"
    )
    src = str(Path(tslattice.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"
