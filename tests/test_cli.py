"""Config parsing, dispatch, report files, and exit codes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from report_baseline import (
    BASELINE,
    baseline_dir,
    difference_lines,
    differing_files,
    mismatches,
    perfbench_config,
    perfbench_dirs,
)

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
    _resolve,
    run,
)
from tslattice.experiments import foliation_sweep
from tslattice.dynamics import NONLINEARITY_KINDS, ModelConfig, NonlinearitySpec
from tslattice.spacetime import canonical_foliation, foliation_to_text, random_foliation

# Every experiment name the command line and config files accept, in the
# order ``all`` runs them.
ACCEPTED_EXPERIMENTS = ["integrability", "sweep", "signal", "degeneracy", "nonlinearity", "entanglement", "all"]


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
        with pytest.raises(
            ConfigError,
            match=r"^config key 'kind': 'frobnicate' is not one of local\|coefficient_nonlocal\|operator_nonlocal$",
        ):
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
            ("horizon", 2, 64),
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

    def test_negative_seed_names_key(self, tmp_path):
        assert parse_config(None, {"seed": "0"}).seed == 0
        p = tmp_path / "c.cfg"
        p.write_text("seed = -1\n")
        with pytest.raises(ConfigError, match=r"^config key 'seed': -1 must be >= 0$"):
            parse_config(str(p))

    @pytest.mark.parametrize("text, flags", [("out =\n", {}), ('out = ""\n', {}), ("", {"out": ""})])
    def test_empty_out_names_the_key(self, tmp_path, text, flags):
        # Path("") is the working directory: an empty out would write there.
        with pytest.raises(ConfigError, match=r"^config key 'out': must not be empty$"):
            parse_config(write_cfg(tmp_path, text), flags)

    def test_flags_override_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed = 1\nexperiment = sweep\n")
        cfg = parse_config(str(p), {"seed": "9"})
        assert cfg.seed == 9
        assert cfg.experiment == "sweep"

    def test_key_given_twice_names_both_lines(self):
        with pytest.raises(ConfigError, match=r"^line 4: config key 'lambda' is already set on line 2$"):
            parse_kv_lines("seed = 3\nlambda = 0.5\n# the linear model?\nlambda = 0\n")

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

    def test_every_accepted_experiment_name(self):
        for name in ACCEPTED_EXPERIMENTS:
            assert parse_config(None, {"experiment": name}).experiment == name
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


def run_one(name, cfg):
    """The report of one experiment on the resolved run, written nowhere."""
    model, replayed = _resolve(cfg)
    return EXPERIMENTS[name][0](model, cfg, replayed)


def assert_matches_baseline(out: Path, baseline: Path) -> None:
    """Every report in the committed ``baseline`` directory, matched by ``out``'s."""
    expected = sorted(baseline.glob("*.report"))
    assert [p.name for p in expected] == sorted(p.name for p in out.glob("*.report"))
    for p in expected:
        assert mismatches(p.read_text(), (out / p.name).read_text()) == [], p.name


def test_baseline_check_names_every_file_that_is_not_byte_equal(tmp_path):
    # ``report_baseline.py --check`` prints these: a changed byte, and a file on one side only.
    fresh, baseline = tmp_path / "fresh", tmp_path / "baseline"
    for root, last_digit in ((fresh, "6"), (baseline, "5")):
        (root / "perfbench" / "w-1").mkdir(parents=True)
        (root / "same.report").write_text("metrics:\n  x = 1\n")
        (root / "perfbench" / "w-1" / "a.report").write_text(f"  x = 1.0000000000000{last_digit}\n")
    (fresh / "only_fresh.report").write_text("")
    (baseline / "perfbench" / "w-1" / "only_baseline.cfg").write_text("")
    assert differing_files(fresh, baseline) == [
        "only_fresh.report", "perfbench/w-1/a.report", "perfbench/w-1/only_baseline.cfg"
    ]
    assert differing_files(baseline, baseline) == []


def test_baseline_check_prints_every_moved_cell(tmp_path):
    # ``report_baseline.py --check`` prints each moved cell of a differing
    # file as file, key, baseline -> new: a metric by its name, a details
    # field by its row and column, any other line by its number.
    report = (
        "experiment: nonlinearity\nmetrics:\n  a = {a}\n  b = 2\n"
        "details:\n  quantity,value\n  a,{a}\n  b,2\nverdict: {verdict}\n"
    )
    fresh, baseline = tmp_path / "fresh", tmp_path / "baseline"
    for root, a, verdict in ((fresh, "1.6", "fail"), (baseline, "1.5", "pass")):
        (root / "w-1").mkdir(parents=True)
        (root / "w-1" / "n.report").write_text(report.format(a=a, verdict=verdict))
        (root / "same.report").write_text(report.format(a=1, verdict="pass"))
    (fresh / "short.report").write_text("metrics:\n")
    (baseline / "short.report").write_text("metrics:\n  a = 1\n")
    (baseline / "only_baseline.report").write_text("")
    (fresh / "only_fresh.report").write_text("")
    assert difference_lines(fresh, baseline) == [
        "differs: only_baseline.report",
        "  only_baseline.report: only in the baseline",
        "differs: only_fresh.report",
        "  only_fresh.report: only in the new run",
        "differs: short.report",
        "  short.report: lines: 2 -> 1",
        "differs: w-1/n.report",
        "  w-1/n.report: metrics.a: 1.5 -> 1.6",
        "  w-1/n.report: details[a].value: 1.5 -> 1.6",
        "  w-1/n.report: line 9: verdict: pass -> verdict: fail",
    ]
    assert difference_lines(baseline, baseline) == []


class TestRun:
    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    def test_all_at_the_defaults_passes_for_every_kind(self, tmp_path, capsys, kind):
        # operator_nonlocal is linear and breaks covariance; local is
        # nonlinear and keeps it: nonlocality, not nonlinearity, decides.
        cfg = parse_config(None, {"kind": kind, "out": str(tmp_path)})
        assert run(cfg) == 0, capsys.readouterr().out
        assert_matches_baseline(tmp_path, baseline_dir(kind, "0.5"))

    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    def test_all_at_lambda_zero_passes_for_every_kind(self, tmp_path, capsys, kind):
        # With no nonlinear step, every verdict expects covariance, a linear
        # state map, no signal and no entanglement.
        cfg = parse_config(None, {"kind": kind, "lambda": "0", "out": str(tmp_path)})
        assert run(cfg) == 0, capsys.readouterr().out
        assert_matches_baseline(tmp_path, baseline_dir(kind, "0"))

    @pytest.mark.parametrize("inputs", perfbench_dirs(), ids=lambda p: p.name)
    def test_benchmark_inputs_match_their_baseline(self, tmp_path, capsys, inputs):
        # The benchmark's workloads at seeds 1 and 2, as committed config files.
        for cfg_path in sorted(inputs.glob("*.cfg")):
            assert run(perfbench_config(cfg_path, tmp_path)) == 0, capsys.readouterr().out
        assert_matches_baseline(tmp_path, inputs)

    @pytest.mark.parametrize(
        "config_text",
        [
            (BASELINE / "perfbench" / "sweep_wide-1" / "sweep.cfg").read_text(),
            "experiment = sweep\nn_sites = 14\nhorizon = 4\nkind = local\nn_foliations = 2\n",
            "experiment = signal\nn_sites = 14\n",
            "experiment = integrability\nn_sites = 14\nexploration_budget = 20\n",
        ],
        ids=["sweep_wide-1", "sweep-local", "signal", "integrability"],
    )
    def test_reports_ignore_the_blas_thread_count(self, tmp_path, config_text):
        # OpenBLAS splits a dot product over 2^14 amplitudes by thread, and
        # its last digit moves with the split; no sum that reaches a state
        # or a report goes through BLAS, so the files are byte-identical.
        cfg_path = write_cfg(tmp_path, config_text)
        src = str(Path(tslattice.__file__).resolve().parents[1])
        reports = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
            }
            out = tmp_path / threads
            argv = ["--config", cfg_path, "--out", str(out), "--format", "structured"]
            subprocess.run([sys.executable, "-m", "tslattice.cli", *argv], env=env, capture_output=True, check=True)
            reports.append(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
        assert len(reports[0]) == 1
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("base", ["x", "y"])
    @pytest.mark.parametrize(
        "kind, lam",
        [("local", "0"), *((kind, "0.5") for kind in NONLINEARITY_KINDS)],
        ids=["linear", *NONLINEARITY_KINDS],
    )
    def test_all_at_the_least_horizon_passes_for_every_kind(self, tmp_path, capsys, kind, lam, base):
        # Horizon 2 is the least the command line accepts: the first horizon
        # at which the generators leave the bare base operator.
        overrides = {
            "kind": kind, "lambda": lam, "base_operator": base, "n_sites": "4", "horizon": "2", "out": str(tmp_path),
        }
        assert run(parse_config(None, overrides)) == 0, capsys.readouterr().out

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

    @pytest.mark.parametrize("kind", ["coefficient_nonlocal", "operator_nonlocal"])
    def test_canonical_sweep_exits_1_before_any_report_where_breakage_is_expected(self, tmp_path, capsys, kind):
        # Both canonical foliations are time-ordered, so n_foliations = 0
        # cannot show the breakage these kinds must show.
        cfg = parse_config(None, {"kind": kind, "n_foliations": "0", "out": str(tmp_path / "r")})
        assert run(cfg) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: sweep: kind {kind} expects broken covariance")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "kind, lam", [("local", "0.5"), ("coefficient_nonlocal", "0"), ("operator_nonlocal", "0")]
    )
    def test_canonical_sweep_passes_where_covariance_is_expected(self, tmp_path, kind, lam):
        overrides = {"experiment": "sweep", "kind": kind, "lambda": lam, "n_foliations": "0", "out": str(tmp_path)}
        assert run(parse_config(None, overrides)) == 0

    def test_failing_verdict_exits_2(self, tmp_path, capsys):
        # a coupling too weak to show the breakage operator_nonlocal must
        # show fails the sweep's max_pairwise_distance floor
        cfg = parse_config(
            write_cfg(
                tmp_path,
                "experiment = sweep\nkind = operator_nonlocal\nlambda = 1e-9\n"
                "n_sites = 4\nhorizon = 2\nn_foliations = 3\n",
            ),
            {"out": str(tmp_path / "r")},
        )
        assert run(cfg) == 2
        assert capsys.readouterr().err == ""
        assert "verdict: fail" in (tmp_path / "r" / "sweep.report").read_text()

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("base_operator = z\n", "base_operator z"),
            ("base_operator = z\nomega = 0\nlambda = 0\n", "base_operator z"),
            ("base_operator = x\nomega = 0\n", "omega = 0"),
            ("base_operator = y\nomega = 0\nmu = 0\nlink_coupling = 0\nlambda = 0\n", "omega = 0"),
        ],
        ids=["z", "z-omega-0-linear", "x-omega-0", "y-omega-0-nothing-evolves"],
    )
    def test_blind_degeneracy_probe_exits_1_before_any_report(self, tmp_path, capsys, text, reason):
        # The probe field commutes with every generator: the variation floor
        # cannot be met, whatever the run computes.
        for experiment in ("degeneracy", "all"):
            cfg = parse_config(
                write_cfg(tmp_path, f"experiment = {experiment}\nn_sites = 4\nhorizon = 2\n" + text),
                {"out": str(tmp_path / "r")},
            )
            assert run(cfg) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: degeneracy: {reason} makes the probe field commute with every generator, "
                "so interaction_picture_variation cannot reach its floor 0.05\n"
            )
            assert not (tmp_path / "r").exists()

    def test_signal_inside_light_cone_exits_1(self, tmp_path, capsys):
        cfg = parse_config(
            write_cfg(tmp_path, "experiment = signal\nn_sites = 6\nhorizon = 5\n"),
            {"out": str(tmp_path / "r")},
        )
        assert run(cfg) == 1
        assert "|alice_site - bob_site| > horizon" in capsys.readouterr().err
        assert not (tmp_path / "r" / "signal.report").exists()

    @pytest.mark.parametrize(
        "n_sites, rule",
        [
            ("11", "degeneracy: degeneracy experiment needs n_sites <= 10, got 11"),
            ("3", "signal: signal needs |alice_site - bob_site| > horizon"),
        ],
    )
    def test_all_checks_every_size_rule_before_it_runs(self, tmp_path, capsys, n_sites, rule):
        # integrability and sweep come first in ``all`` and have no size rule.
        out = tmp_path / "r"
        cfg = parse_config(None, {"n_sites": n_sites, "horizon": "2", "out": str(out)})
        assert run(cfg) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {rule}")
        assert not out.exists() or not any(out.iterdir())

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

    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    def test_cold_and_warm_gate_memo_write_equal_reports(self, tmp_path, kind):
        # At the defaults (N = 6, lambda = 0.5) the first run builds every fixed
        # gate and the second builds none: it reads them all from the memo.
        memo = tslattice.dynamics._fixed_gate
        memo.cache_clear()
        outs, misses = [], []
        for sub in ("cold", "warm"):
            cfg = parse_config(write_cfg(tmp_path, f"kind = {kind}\n"), {"out": str(tmp_path / sub)})
            assert run(cfg) == 0
            outs.append({p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()})
            misses.append(memo.cache_info().misses)
        assert misses[0] > 0 and misses[1] == misses[0]
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
            _resolve(cfg)

    def test_unparsable_foliation_file_names_file_and_line(self, tmp_path, capsys):
        fpath = tmp_path / "f.txt"
        fpath.write_text("G 0 0\nA x\n")
        cfg = parse_config(
            write_cfg(tmp_path, "experiment = sweep\nn_sites = 4\nhorizon = 2\nn_foliations = 1\n"),
            {"out": str(tmp_path / "r"), "foliation_file": str(fpath)},
        )
        assert run(cfg) == 1
        # The file is read when the run is resolved, before any experiment:
        # the message names no experiment.
        assert capsys.readouterr().err == (
            f"error: foliation file {str(fpath)!r}: line 2: cannot parse foliation step 'A x'\n"
        )
        assert not (tmp_path / "r").exists()

    def test_undecodable_foliation_file_names_file(self, tmp_path, capsys):
        fpath = tmp_path / "f.txt"
        fpath.write_bytes(b"\xff")
        cfg = parse_config(
            write_cfg(tmp_path, "experiment = sweep\nn_sites = 4\nhorizon = 2\nn_foliations = 1\n"),
            {"out": str(tmp_path / "r"), "foliation_file": str(fpath)},
        )
        assert run(cfg) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read foliation file {str(fpath)!r}: ")
        assert not (tmp_path / "r").exists()


class TestOneResolution:
    """A run builds its model and reads and replays its foliation file once, for every experiment."""

    @staticmethod
    def foliation_file(tmp_path):
        fpath = tmp_path / "f.txt"
        fpath.write_text(foliation_to_text(random_foliation(4, 2, 9)))
        return fpath

    @staticmethod
    def small(out, fpath):
        return parse_config(
            None,
            {"n_sites": "4", "horizon": "2", "n_foliations": "2", "exploration_budget": "20",
             "out": str(out), "foliation_file": str(fpath)},
        )

    def test_all_reads_the_foliation_file_once(self, tmp_path, monkeypatch):
        fpath = self.foliation_file(tmp_path)
        reads = []
        read_text = Path.read_text

        def counted(self, *args, **kwargs):
            if self == fpath:
                reads.append(self)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counted)
        assert run(self.small(tmp_path / "r", fpath)) == 0
        assert len(reads) == 1

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    def test_a_pipe_replays_like_a_regular_file(self, tmp_path):
        fpath = self.foliation_file(tmp_path)
        assert run(self.small(tmp_path / "file", fpath)) == 0
        r, w = os.pipe()
        try:
            os.write(w, fpath.read_bytes())
            os.close(w)
            assert run(self.small(tmp_path / "pipe", f"/dev/fd/{r}")) == 0
        finally:
            os.close(r)
        names = sorted(p.name for p in (tmp_path / "file").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "pipe").iterdir())
        assert len(names) == 2 * len(EXPERIMENTS)
        for name in names:
            assert (tmp_path / "pipe" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()

    def test_every_foliation_section_is_the_file(self, tmp_path):
        # entanglement replays the file too; integrability and sweep print no foliation.
        fpath = self.foliation_file(tmp_path)
        assert run(self.small(tmp_path / "r", fpath)) == 0
        want = ["  " + ln for ln in fpath.read_text().splitlines()]
        for name in ("signal", "degeneracy", "nonlinearity", "entanglement"):
            lines = (tmp_path / "r" / f"{name}.report").read_text().splitlines()
            assert lines[lines.index("foliation:") + 1 : lines.index("details:")] == want, name


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
            assert run_one(name, cfg).name == name

    def test_command_line_choices(self, capsys):
        # The positional experiment goes through the config key's parser.
        assert main(["sweeps"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'experiment': 'sweeps' is not one of ")
        listed = re.findall(r"\w+", err.split("is not one of", 1)[1])
        assert listed == ACCEPTED_EXPERIMENTS


class TestAcceptedConfigs:
    """No ``<=`` bound fails on a config the command line accepts.

    A ``>=`` floor may still fail where the config makes its probe blind to
    the effect it measures (base z, for one); see ROADMAP item 8.
    """

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 5),
        horizon=st.integers(2, 3),
        kind=st.sampled_from(NONLINEARITY_KINDS),
        lam=st.sampled_from(["0.5", "1", "-0.7", "0.05", "2", "0"]),
        dt=st.sampled_from(["0.05", "0.15", "0.3", "0.6"]),
        base=st.sampled_from(["x", "y", "z"]),
        omega=st.sampled_from(["0", "0.3", "1", "2.5"]),
        mu=st.sampled_from(["0", "0.7", "1.3"]),
        link=st.sampled_from(["0", "0.4", "1.1"]),
        n_foliations=st.integers(1, 5),
        data=st.data(),
    )
    def test_every_upper_bound_holds(self, n, horizon, kind, lam, dt, base, omega, mu, link, n_foliations, data):
        remote = str(data.draw(st.integers(0, n - 1), label="remote"))
        cfg = parse_config(None, {
            "n_sites": str(n), "horizon": str(horizon), "kind": kind, "lambda": lam, "dt": dt,
            "base_operator": base, "omega": omega, "mu": mu, "link_coupling": link,
            "n_foliations": str(n_foliations), "source_site": remote, "partner_site": remote,
        })
        model, replayed = _resolve(cfg)
        for name, (runner, rule) in EXPERIMENTS.items():
            try:
                rule(model, cfg, replayed)
            except ValueError:
                continue
            report = runner(model, cfg, replayed)
            broken = [
                (metric, report.metric(metric), bound)
                for metric, op, bound in report.thresholds
                if op == "<=" and not report.metric(metric) <= bound
            ]
            assert broken == [], name


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

    @pytest.mark.parametrize(
        "text, flags, key",
        [("horizon = 1\n", [], "horizon"), ("seed = -1\n", [], "seed"), ("", ["--seed", "-1"], "seed"),
         ("kind = none\n", [], "kind"), ("experiment = foliation_sweep\n", [], "experiment")],
        ids=["horizon-file", "seed-file", "seed-flag", "kind-none", "experiment-alias"],
    )
    def test_rejected_key_exits_1_before_any_experiment(self, tmp_path, capsys, text, flags, key):
        cfgfile = write_cfg(tmp_path, text)
        assert main(["all", "--config", cfgfile, "--out", str(tmp_path / "r"), *flags]) == 1
        assert capsys.readouterr().err.startswith(f"error: config key '{key}': ")
        assert not (tmp_path / "r").exists()

    def test_key_given_twice_in_the_file_exits_1(self, tmp_path, capsys):
        cfgfile = write_cfg(tmp_path, "experiment = sweep\nlambda = 0.5\nlambda = 0\n")
        assert main(["--config", cfgfile, "--out", str(tmp_path / "r")]) == 1
        assert "config key 'lambda' is already set on line 2" in capsys.readouterr().err
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


def run_cli(argv, cwd):
    """``python -m tslattice.cli`` with ``argv`` in a fresh process working in ``cwd``."""
    src = str(Path(tslattice.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "tslattice.cli", *argv], cwd=cwd, env=env, capture_output=True, text=True
    )


class TestCommandLine:
    """The process's exit status: 2 only for a failed verdict, 1 for every malformed command line."""

    SMALL = b"experiment = sweep\nn_sites = 4\nhorizon = 2\nn_foliations = 3\n"

    @pytest.mark.parametrize(
        "flags, extra",
        [(["--seed", "abc"], b""), (["--seed", "1.5"], b""), (["--seed"], b""),
         (["--format", "bogus"], b""), (["--bogus"], b""), (["--se", "7"], b""), ([], b"se = 7\n"),
         (["sweeps"], b""), ([], b"# \xff\n"), ([], b"out =\n")],
        ids=["seed-word", "seed-real", "seed-no-value", "format", "unknown-flag", "flag-prefix", "key-prefix",
             "experiment", "undecodable-config", "empty-out"],
    )
    def test_malformed_command_line_exits_1_without_a_report(self, tmp_path, flags, extra):
        # Every report would land under the working directory: ./reports by default, . for an empty out.
        (tmp_path / "run.cfg").write_bytes(self.SMALL + extra)
        done = run_cli(["--config", "run.cfg", *flags], tmp_path)
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: "), done.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_a_hex_seed_flag_reads_like_the_config_line(self, tmp_path):
        (tmp_path / "run.cfg").write_bytes(self.SMALL)
        (tmp_path / "seed16.cfg").write_bytes(self.SMALL + b"seed = 16\n")
        flagged = run_cli(["--config", "run.cfg", "--seed", "0x10", "--out", "flag"], tmp_path)
        written = run_cli(["--config", "seed16.cfg", "--out", "file"], tmp_path)
        assert (flagged.returncode, written.returncode) == (0, 0), flagged.stderr + written.stderr
        rows = (tmp_path / "flag" / "sweep.rows").read_text()
        assert rows == (tmp_path / "file" / "sweep.rows").read_text()
        assert ",16," in rows

    def test_help_names_every_experiment_and_format(self, tmp_path):
        done = run_cli(["--help"], tmp_path)
        assert done.returncode == 0
        named = set(re.findall(r"\w+", done.stdout))
        assert set(ACCEPTED_EXPERIMENTS) | {"rows", "structured", "both"} <= named


class TestDiagonalBaseWarning:
    """base_operator z commutes every generator: one stderr warning, reports unchanged."""

    def test_warns_once_for_a_nonlinear_kind(self, tmp_path, capsys):
        cfgfile = write_cfg(
            tmp_path,
            "n_sites = 4\nhorizon = 2\nn_foliations = 3\nexploration_budget = 100\n"
            "kind = coefficient_nonlocal\nbase_operator = z\n",
        )
        code = main(["sweep", "--config", cfgfile, "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        # The nonlocal verdicts expect breakage that z cannot produce.
        assert code == 2
        assert err == (
            "warning: base_operator z makes every field diagonal and every generator commute; "
            "with lambda 0.5, swap residues, sweep distances and the signal read rounding\n"
        )

    def test_report_is_the_one_written_without_a_warning(self, tmp_path, capsys):
        cfg = parse_config(
            write_cfg(tmp_path, "experiment = integrability\nn_sites = 3\nhorizon = 2\nbase_operator = z\n"),
            {"out": str(tmp_path / "r")},
        )
        assert run(cfg) == 0
        assert capsys.readouterr().err.count("warning:") == 1
        report = render_structured(run_one("integrability", cfg))
        assert (tmp_path / "r" / "integrability.report").read_text() == report

    @pytest.mark.parametrize(
        "text",
        ["base_operator = z\nlambda = 0\n", "base_operator = y\n"],
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
