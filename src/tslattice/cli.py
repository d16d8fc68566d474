"""Batch front end: config parsing, experiment dispatch, report files.

Config files are flat ``key = value`` text; a flag's value is parsed as its
key's file value and overrides it; unknown keys are rejected. Every run writes ``<out>/<experiment>.report``
(nested, for regression diffing) and/or ``<out>/<experiment>.rows`` (flat
comma-separated rows, for plotting), with reals at 15 significant digits.
Exit code: 0 all verdicts pass, 2 some verdict failed, 1 usage/config/IO error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import KERNEL_BACKEND, __version__
from .dynamics import (
    BASE_OPERATORS,
    MAX_SITES,
    MIN_SITES,
    NONLINEARITY_KINDS,
    REMOTE_SITE_FIELDS,
    ModelConfig,
    NonlinearitySpec,
    check_dense_sites,
)
from .experiments import (
    ExperimentReport,
    check_degeneracy_probe,
    check_signal_sites,
    check_sweep_foliations,
    degeneracy_experiment,
    entanglement_monitor,
    foliation_sweep,
    integrability_check,
    map_nonlinearity_check,
    signaling_experiment,
)
from .spacetime import Foliation, FoliationError, foliation_from_text, validate_foliation


class ConfigError(ValueError):
    """A config file, command line or input file that cannot be accepted as-is."""


class _ArgumentParser(argparse.ArgumentParser):
    """A malformed command line is a usage error like a malformed config line: exit 1, not argparse's 2."""

    def error(self, message):
        raise ConfigError(message)


# The experiments in the order ``all`` runs them: a runner and a rule, the
# check the experiment makes of its inputs (none for integrability and
# entanglement). Both take the run's one resolution: model, run config,
# replayed foliation or None. Every rule runs before any experiment, so
# ``all`` fails before a report.
EXPERIMENTS = {
    "integrability": (
        lambda model, cfg, replayed: integrability_check(model, exploration_budget=cfg.exploration_budget),
        lambda *_: None,
    ),
    "sweep": (
        lambda model, cfg, replayed: foliation_sweep(
            model, n_foliations=cfg.n_foliations, seed=cfg.seed, extra_foliation=replayed
        ),
        lambda model, cfg, replayed: check_sweep_foliations(model, cfg.n_foliations, replayed),
    ),
    "signal": (
        lambda model, cfg, replayed: signaling_experiment(
            model, alice_site=cfg.alice_site, bob_site=cfg.bob_site, foliation=replayed
        ),
        lambda model, cfg, replayed: check_signal_sites(model.n_sites, model.horizon, cfg.alice_site, cfg.bob_site),
    ),
    "degeneracy": (
        lambda model, cfg, replayed: degeneracy_experiment(model, foliation=replayed),
        lambda model, cfg, replayed: check_degeneracy_probe(model),
    ),
    "nonlinearity": (
        lambda model, cfg, replayed: map_nonlinearity_check(model, foliation=replayed),
        lambda model, cfg, replayed: check_dense_sites("composed-map check", model.n_sites),
    ),
    "entanglement": (
        lambda model, cfg, replayed: entanglement_monitor(model, foliation=replayed),
        lambda *_: None,
    ),
}

_EXPERIMENT_CHOICES = (*EXPERIMENTS, "all")

_FORMATS = ("rows", "structured", "both")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as an integer") from None


def _parse_real(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as a real number") from None
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: {raw!r} is not a finite real number")
    return value


def _parse_choice(key: str, raw: str, choices) -> str:
    if raw not in choices:
        raise ConfigError(f"config key {key!r}: {raw!r} is not one of {'|'.join(choices)}")
    return raw


@dataclass
class RunConfig:
    """Fully-resolved run parameters; every field has a documented default."""

    experiment: str = "all"
    n_sites: int = 6
    horizon: int = 4
    omega: float = 1.0
    mu: float = 0.7
    link_coupling: float = 0.4
    lam: float = 0.5
    dt: float = 0.15
    kind: str = "local"
    base_operator: str = "x"
    source_site: int = 0
    partner_site: int = -1  # -1: resolve to n_sites - 1
    alice_site: int = 0
    bob_site: int = -1  # -1: resolve to n_sites - 1
    n_foliations: int = 50
    seed: int = 42
    exploration_budget: int = 2000
    out: str = "reports"
    format: str = "both"
    foliation_file: str = ""

    def resolved(self) -> "RunConfig":
        last = self.n_sites - 1
        return replace(
            self,
            partner_site=last if self.partner_site < 0 else self.partner_site,
            bob_site=last if self.bob_site < 0 else self.bob_site,
        )

    def to_model_config(self) -> ModelConfig:
        cfg = self.resolved()
        # Only the kind's own remote site field is passed on; the other stays None.
        remote = REMOTE_SITE_FIELDS.get(cfg.kind)
        sites = {} if remote is None else {remote: getattr(cfg, remote)}
        nl = NonlinearitySpec(kind=cfg.kind, lam=cfg.lam, **sites)
        try:
            return ModelConfig(
                n_sites=cfg.n_sites,
                horizon=cfg.horizon,
                omega=cfg.omega,
                mu=cfg.mu,
                link_coupling=cfg.link_coupling,
                dt=cfg.dt,
                base_operator=cfg.base_operator,
                nonlinearity=nl,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


# Site keys range over the largest lattice; -1 resolves to the last site.
_LAST_SITE = MAX_SITES - 1

# At horizon 1 every generator is a tau = 0 field, the bare base operator,
# so some effects the verdicts expect (the signal among them) are exact zeros.
MIN_HORIZON = 2

_SETTERS = {
    "experiment": lambda c, k, v: setattr(c, "experiment", _parse_choice(k, v, _EXPERIMENT_CHOICES)),
    "n_sites": lambda c, k, v: setattr(c, "n_sites", _check_range(k, _parse_int(k, v), MIN_SITES, MAX_SITES)),
    "horizon": lambda c, k, v: setattr(c, "horizon", _check_range(k, _parse_int(k, v), MIN_HORIZON, 64)),
    "omega": lambda c, k, v: setattr(c, "omega", _parse_real(k, v)),
    "mu": lambda c, k, v: setattr(c, "mu", _parse_real(k, v)),
    "link_coupling": lambda c, k, v: setattr(c, "link_coupling", _parse_real(k, v)),
    "lambda": lambda c, k, v: setattr(c, "lam", _parse_real(k, v)),
    "dt": lambda c, k, v: setattr(c, "dt", _check_positive(k, _parse_real(k, v))),
    "kind": lambda c, k, v: setattr(c, "kind", _parse_choice(k, v, NONLINEARITY_KINDS)),
    "base_operator": lambda c, k, v: setattr(c, "base_operator", _parse_choice(k, v, tuple(BASE_OPERATORS))),
    "source_site": lambda c, k, v: setattr(c, "source_site", _check_range(k, _parse_int(k, v), 0, _LAST_SITE)),
    "partner_site": lambda c, k, v: setattr(c, "partner_site", _check_range(k, _parse_int(k, v), -1, _LAST_SITE)),
    "alice_site": lambda c, k, v: setattr(c, "alice_site", _check_range(k, _parse_int(k, v), 0, _LAST_SITE)),
    "bob_site": lambda c, k, v: setattr(c, "bob_site", _check_range(k, _parse_int(k, v), -1, _LAST_SITE)),
    "n_foliations": lambda c, k, v: setattr(c, "n_foliations", _check_range(k, _parse_int(k, v), 0, 100000)),
    "seed": lambda c, k, v: setattr(c, "seed", _check_non_negative(k, _parse_int(k, v))),
    "exploration_budget": lambda c, k, v: setattr(c, "exploration_budget", _check_range(k, _parse_int(k, v), 1, 10**9)),
    "out": lambda c, k, v: setattr(c, "out", _check_non_empty(k, v)),
    "format": lambda c, k, v: setattr(c, "format", _parse_choice(k, v, _FORMATS)),
    "foliation_file": lambda c, k, v: setattr(c, "foliation_file", v),
}


def _check_range(key: str, value: int, lo: int, hi: int) -> int:
    if not lo <= value <= hi:
        raise ConfigError(f"config key {key!r}: {value} out of range [{lo}, {hi}]")
    return value


def _check_positive(key: str, value: float) -> float:
    if value <= 0:
        raise ConfigError(f"config key {key!r}: {value} must be > 0")
    return value


def _check_non_negative(key: str, value: int) -> int:
    if value < 0:
        raise ConfigError(f"config key {key!r}: {value} must be >= 0")
    return value


def _check_non_empty(key: str, value: str) -> str:
    if not value:
        raise ConfigError(f"config key {key!r}: must not be empty")
    return value


def _read_text(what: str, path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path!r}: {exc}") from None


def _parse_value(value: str, ln: int, raw: str) -> str:
    """A value without its comment; quotes around the whole value are removed and keep a ``#``."""
    value = value.strip()
    if value[:1] not in ("'", '"'):
        return value.split("#", 1)[0].strip()
    end = value.find(value[0], 1)
    if end < 0:
        raise ConfigError(f"line {ln}: unterminated quote in {raw!r}")
    if value[end + 1 :].strip()[:1] not in ("", "#"):
        raise ConfigError(f"line {ln}: unexpected text after the closing quote in {raw!r}")
    return value[1:end]


def parse_kv_lines(text: str) -> dict[str, str]:
    """``key = value`` lines, one per key; blank lines and ``#`` comments are skipped; see ``_parse_value``."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or "#" in key:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        if key in first_line:
            raise ConfigError(f"line {ln}: config key {key!r} is already set on line {first_line[key]}")
        first_line[key] = ln
        out[key] = _parse_value(value, ln, raw)
    return out


def parse_config(path: str | None = None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Resolve defaults, then the file, then flag overrides; fail-closed."""
    cfg = RunConfig()
    items: list[tuple[str, str]] = []
    if path:
        items.extend(parse_kv_lines(_read_text("config", path)).items())
    if overrides:
        items.extend(overrides.items())
    for key, value in items:
        setter = _SETTERS.get(key)
        if setter is None:
            raise ConfigError(
                f"unknown config key {key!r}; valid keys: {', '.join(sorted(_SETTERS))}"
            )
        setter(cfg, key, value)
    return cfg.resolved()


# -- report rendering -----------------------------------------------------------


def render_rows(report: ExperimentReport) -> str:
    rows = (",".join(f"{v:.15g}" if isinstance(v, float) else str(v) for v in row) for row in report.details)
    return "\n".join([",".join(report.detail_header), *rows]) + "\n"


def render_structured(report: ExperimentReport) -> str:
    lines = [f"experiment: {report.name}", f"version: tslattice {__version__} (kernels: {KERNEL_BACKEND})"]
    lines.append("config:")
    lines.extend(f"  {k} = {v}" for k, v in report.config)
    lines.append("metrics:")
    lines.extend(f"  {k} = {v:.15g}" for k, v in report.metrics)
    lines.append("thresholds:")
    lines.extend(f"  {k} {op} {bound:.15g}" for k, op, bound in report.thresholds)
    lines.append(f"verdict: {report.verdict}")
    if report.foliation_text is not None:
        lines.append("foliation:")
        lines.extend(f"  {ln}" for ln in report.foliation_text.splitlines())
    lines.append("details:")
    lines.extend(f"  {ln}" for ln in render_rows(report).splitlines())
    return "\n".join(lines) + "\n"


def write_report(report: ExperimentReport, out_dir: Path, fmt: str) -> list[Path]:
    written = []
    for name, suffix, render in (("structured", "report", render_structured), ("rows", "rows", render_rows)):
        if fmt in (name, "both"):
            p = out_dir / f"{report.name}.{suffix}"
            p.write_text(render(report))
            written.append(p)
    return written


# -- dispatch -------------------------------------------------------------------


def _resolve(cfg: RunConfig) -> tuple[ModelConfig, Foliation | None]:
    """The run's model and its replayed foliation (None without a file); the file is read once."""
    model = cfg.to_model_config()
    if not cfg.foliation_file:
        return model, None
    try:
        fol = foliation_from_text(_read_text("foliation", cfg.foliation_file))
        validate_foliation(fol, model.n_sites, model.horizon)
    except FoliationError as exc:
        raise ConfigError(f"foliation file {cfg.foliation_file!r}: {exc}") from None
    return model, fol


def run(cfg: RunConfig) -> int:
    """Resolve the run once, check every selected experiment's rule, then run them and write report files."""
    selected = list(EXPERIMENTS) if cfg.experiment == "all" else [cfg.experiment]
    try:
        model, replayed = _resolve(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in selected:
        try:
            EXPERIMENTS[name][1](model, cfg, replayed)
        except ValueError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    try:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: cannot write to output directory {cfg.out!r}: {exc}", file=sys.stderr)
        return 1
    if cfg.base_operator == "z" and cfg.lam != 0.0:
        # What needs noncommuting steps reads rounding, whatever the kind;
        # the verdicts are left as they fall.
        print(
            f"warning: base_operator z makes every field diagonal and every generator commute; "
            f"with lambda {cfg.lam:g}, swap residues, sweep distances and the signal read rounding",
            file=sys.stderr,
        )
    all_pass = True
    try:
        for name in selected:
            try:
                report = EXPERIMENTS[name][0](model, cfg, replayed)
            except ValueError as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1
            for path in write_report(report, out_dir, cfg.format):
                print(f"wrote {path}")
            print(f"{name}: verdict {report.verdict}")
            all_pass = all_pass and report.verdict == "pass"
    except OSError as exc:
        print(f"error: writing reports failed: {exc}", file=sys.stderr)
        return 1
    return 0 if all_pass else 2


def main(argv=None) -> int:
    # No prefix matching: a flag names its key exactly, as a config line does.
    parser = _ArgumentParser(
        prog="tslattice",
        allow_abbrev=False,
        description="Foliation experiments for nonlinear hypersurface dynamics on a qubit chain.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help=f"one of {', '.join(_EXPERIMENT_CHOICES)} (default: the config file's selector, or 'all')",
    )
    parser.add_argument("--config", metavar="FILE", help="flat key = value config file")
    parser.add_argument("--seed", metavar="N", help="override the RNG seed")
    parser.add_argument("--out", metavar="DIR", help="output directory for report files")
    parser.add_argument("--format", help=f"report file format(s) to write: one of {', '.join(_FORMATS)}")
    parser.add_argument("--foliation-file", metavar="FILE", help="replay a serialized foliation")
    try:
        # Every destination but ``config`` is a config key, its value the raw
        # string that a config line would give; a flag left out is None.
        args = vars(parser.parse_args(argv))
        path = args.pop("config")
        return run(parse_config(path, {key: value for key, value in args.items() if value is not None}))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
