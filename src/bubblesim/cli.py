"""Command-line front end: config resolution, run dispatch, file outputs.

Three subcommands, mutually exclusive by construction:

  simulate   one trajectory: trajectory.csv + summary.json (+ trajectory.svg)
  sweep      matched-seed ensemble over one parameter: sweep.json (+ sweep.svg)
  baseline   simulate with the stock parameters and every output, no overrides

Configuration is resolved in three layers: built-in defaults, then a flat
JSON config file (--config), then command-line flags.  One rule holds for
every key: a given flag wins over the file, whatever the file holds for it,
and the file over the default.  An empty --out or --axis counts as not
given.  Flags read numbers as the file does: the type that owns a field
judges a flag's int or float (-0 keeps its sign), or else its text.  The
effective configuration is echoed into every JSON summary, so outputs are
self-describing.

--seeds A..B is an inclusive range and needs 0 <= A <= B < 2**64.

Exit codes: 0 success; 1 for anything wrong with the inputs (an unknown or
abbreviated flag, a missing value, a bad config file, parameter constraint
violations, detector keys in a sweep over b without threshold or over d
without min_drawdown, a sweep with no valid cell); 2 when an output file
cannot be written.  Bad input exits 1 with one "error:" line on stderr,
with no usage block and no traceback.

A run's files, and the removal of a stale plot when it draws none, are one
set committed by a single io._write_files call, so an exit 2 leaves no file
of the failed run in --out and no temp file; a failure before any rename
keeps the previous set byte for byte.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Iterable
from dataclasses import dataclass, fields
from pathlib import Path

from .analysis import CrashConfig, summarize
from .model import simulate
from .params import PARAM_FIELDS, ModelParams, as_seed, integer, real
from .sweep import SweepSpec, compare_medians, run_sweep
from .io import _csv_text, _json_text, _write_files, summary_payload, sweep_payload
from .svgplot import _sweep_svg, _trajectory_svg

_DEFAULT_SEED = 0
_DEFAULT_SEEDS = "0..49"
_DEFAULT_OUT = "out"

_DETECTOR_KEYS = tuple(f.name for f in fields(CrashConfig))
_CONFIG_KEYS = frozenset(PARAM_FIELDS) | set(_DETECTOR_KEYS) | {
    "seed",
    "seeds",
    "axis",
    "values",
    "out",
    "plot",
}


class ConfigError(Exception):
    """Anything wrong with flags or the config file; maps to exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description, after defaults, file, and flags."""

    mode: str  # "simulate" or "sweep"
    params: ModelParams
    seed: int
    seeds: tuple[int, ...]
    crash: CrashConfig | None  # None: derive from each run's own params
    out: Path
    plot: bool
    axis: str | None
    values: tuple[float, ...] | None


def parse_seed_range(text: str) -> tuple[int, ...]:
    """Parse an inclusive seed range "A..B" into (A, ..., B)."""
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text.strip())
    if not m:
        raise ConfigError(f"seeds must look like A..B (got {text!r})")
    a, b = int(m.group(1)), as_seed(int(m.group(2)), "seed range B")
    if a > b:
        raise ConfigError(f"seed range must have A <= B (got {text!r})")
    try:
        return tuple(range(a, b + 1))
    except (OverflowError, MemoryError):
        raise ConfigError(f"seed range {text!r} is too long to run") from None


def _number(text: str) -> int | float | str:
    """The int ``text`` spells, or else the float, or else ``text``, for the
    field's type to judge; never raises.  Zero is the float, so -0 keeps its sign."""
    try:
        return int(text) or float(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-" or "-." then a digit starts a value (--x0 -1e-3, --values -3,-2)
        # on every Python; argparse's pattern for it, a private attribute,
        # differs across versions and takes neither on 3.10 to 3.13.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):  # a usage error is bad input like any other: exit 1
        raise ConfigError(message)


def _load_config_file(path: str) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config file {path} is nested too deeply to parse") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return data


def _resolve_seeds(given) -> tuple[int, ...]:
    if given is None:
        return parse_seed_range(_DEFAULT_SEEDS)
    if isinstance(given, str):
        return parse_seed_range(given)
    if isinstance(given, list):
        return tuple(as_seed(s, "config seeds entry") for s in given)
    raise ConfigError(
        f"config seeds must be \"A..B\" or a list of integers in [0, 2**64) (got {given!r})"
    )


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and flags into one RunConfig.

    One rule for every key: a given flag wins over the file, and the file
    over the stock value.  An empty --out or --axis counts as not given.
    Numbers are read by the types they build (params.real and
    params.integer), so a file's 1 and a flag's 1.0 give the same run.
    Parameter constraint violations surface with the violated constraint in
    the message.
    """
    filed = _load_config_file(args.config) if getattr(args, "config", None) else {}
    flags = {
        k: v for k, v in vars(args).items()
        if k in _CONFIG_KEYS and v is not None and not (k in ("out", "axis") and v == "")
    }
    given = {**filed, **flags}

    params = ModelParams(**{k: given[k] for k in PARAM_FIELDS if k in given})
    det = {k: given[k] for k in _DETECTOR_KEYS if k in given}
    crash = CrashConfig.for_params(params, **det) if det else None  # defaults only for keys not given
    axis = str(given.get("axis", "")).lower()
    derived = {"b": "threshold", "d": "min_drawdown"}.get(axis) if args.mode == "sweep" else None
    if det and derived and derived not in det:  # its default would pin every cell to the base value
        raise ConfigError(
            f"a sweep over {axis} with detector settings also needs {derived} "
            f"(--{derived.replace('_', '-')} or a config entry): without any, each cell derives "
            f"its detector from its own {axis}"
        )
    seed = integer(given.get("seed", _DEFAULT_SEED), "seed")  # checked in sweep runs too

    values = given.get("values")
    if values is not None:
        if not isinstance(values, list):
            raise ConfigError(f"config values must be a list of reals (got {values!r})")
        values = tuple(real(x, "values entry") for x in values)

    if not isinstance(given.get("out", ""), str):
        raise ConfigError(f"config out must be a path string (got {given['out']!r})")
    if not isinstance(given.get("plot", True), bool):
        raise ConfigError(f"config plot must be true or false (got {given['plot']!r})")

    return RunConfig(
        mode=args.mode,
        params=params,
        seed=seed,
        seeds=_resolve_seeds(given.get("seeds")),
        crash=crash,
        out=Path(given.get("out") or _DEFAULT_OUT),
        plot=given.get("plot", True),
        axis=given.get("axis"),
        values=values,
    )


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(ModelParams):
        names = [f"--{f.name}"] + (["--lambda"] if f.name == "Lambda" else [])
        parser.add_argument(*names, dest=f.name, type=_number, default=None, metavar="V",
                            help=f"override parameter {f.name} (default {f.default})")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat JSON config file")
    parser.add_argument("--out", metavar="DIR", default=None, help=f"output directory (default {_DEFAULT_OUT!r})")
    parser.add_argument("--plot", action=argparse.BooleanOptionalAction, default=None,
                        help="emit SVG plot(s) (default: on)")
    parser.add_argument("--threshold", type=_number, default=None, metavar="V",
                        help="crash detector crossing threshold (default: parameter b)")
    parser.add_argument("--peak-window", dest="peak_window", type=_number, default=None, metavar="N",
                        help="crash detector peak search window (default 500)")
    parser.add_argument("--min-drawdown", dest="min_drawdown", type=_number, default=None, metavar="V",
                        help="crash detector drawdown floor (default 5*d)")
    _add_param_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bubblesim",
        description="Simulate momentum-driven bubble/crash market dynamics.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one trajectory and write CSV/JSON/SVG", allow_abbrev=False)
    p_sim.add_argument("--seed", type=_number, default=None, metavar="N", help="RNG seed (default 0)")
    _add_common_flags(p_sim)
    p_sim.set_defaults(mode="simulate")

    p_sweep = sub.add_parser("sweep", help="run a one-parameter matched-seed ensemble", allow_abbrev=False)
    p_sweep.add_argument("--axis", metavar="NAME", default=None,
                         help="parameter to vary: b, r, lambda (any parameter name works)")
    p_sweep.add_argument("--values", type=lambda text: [_number(x) for x in text.split(",")],
                         metavar="LIST", default=None, help="comma-separated, strictly increasing values")
    p_sweep.add_argument("--seeds", metavar="A..B", default=None,
                         help=f"inclusive seed range (default {_DEFAULT_SEEDS})")
    _add_common_flags(p_sweep)
    p_sweep.set_defaults(mode="sweep")

    p_base = sub.add_parser("baseline", help="simulate with stock parameters, all outputs", allow_abbrev=False)
    p_base.add_argument("--seed", type=_number, default=None, metavar="N", help="RNG seed (default 0)")
    p_base.add_argument("--out", metavar="DIR", default=None, help=f"output directory (default {_DEFAULT_OUT!r})")
    p_base.set_defaults(mode="simulate")

    return parser


def _run_simulate(cfg: RunConfig) -> dict[str, bytes | Iterable[bytes] | None]:
    """The run's files by name, None for a plot it drops.  Every text but
    the streamed CSV rows is built here, before main writes anything, so a
    plot that fails leaves no artifact."""
    traj = simulate(cfg.params, cfg.seed)
    crash = cfg.crash if cfg.crash is not None else CrashConfig.for_params(cfg.params)
    stats = summarize(traj, crash)
    return {
        "trajectory.csv": _csv_text(traj),
        "summary.json": _json_text(summary_payload(stats, cfg.params, cfg.seed, crash)),
        "trajectory.svg": _trajectory_svg(traj, crash.threshold) if cfg.plot else None,
    }


def _run_sweep_cmd(cfg: RunConfig) -> dict[str, bytes | Iterable[bytes] | None]:
    """The sweep's files by name, as _run_simulate gives a run's, after the
    median peak of each value is printed."""
    if cfg.axis is None:
        raise ConfigError("sweep requires --axis (or an axis entry in the config file)")
    if cfg.values is None:
        raise ConfigError("sweep requires --values (or a values entry in the config file)")
    spec = SweepSpec(base=cfg.params, axis=cfg.axis, values=cfg.values, seeds=cfg.seeds)
    try:
        result = run_sweep(spec, cfg.crash)
    except RuntimeError as exc:
        raise ConfigError(str(exc)) from exc
    files = {
        "sweep.json": _json_text(sweep_payload(result, cfg.crash)),
        "sweep.svg": _sweep_svg(result) if cfg.plot else None,
    }
    for axis_value, med in compare_medians(result, "peak_log_price"):
        print(f"{spec.axis}={axis_value:g}: median peak_log_price={med}")
    return files


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code instead of raising."""
    try:
        cfg = parse_config(build_parser().parse_args(argv))
        files = _run_sweep_cmd(cfg) if cfg.mode == "sweep" else _run_simulate(cfg)
        try:
            cfg.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OSError(f"cannot create output directory {cfg.out}: {exc}") from exc
        written = _write_files({cfg.out / name: text for name, text in files.items()})
    except SystemExit:  # --help; argparse's usage errors raise ConfigError
        return 0
    except (ConfigError, ValueError, MemoryError, OSError) as exc:
        # MemoryError: numpy refuses the columns of a T too large to allocate,
        # and Python's own MemoryError has no text.  A flag or a path may
        # hold a line break; it is escaped, so the error stays one line.
        text = str(exc) or type(exc).__name__
        print("error: " + text.replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1
    for path in written:
        print(f"wrote {path}")
    return 0


def entry_point() -> None:
    sys.exit(main())
