"""Write tests/golden.json, the committed corpus of what each (params, seed)
case gives: the sha256 of every trajectory column's bytes, the draw count,
the summary stats and the crash events under the default detector, or the
``ValueError`` text of the step that refused the case.  The corpus ends with
CLI runs: the exit code and the sha256 of every file each argv writes.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

``test_golden.py`` only reads the file.  Regenerate it only for a change
that alters bytes on purpose, and list the entries that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from bubblesim import CrashConfig, ModelParams, detect_crashes, simulate, summarize
from bubblesim.cli import main as cli_main

GOLDEN = Path(__file__).with_name("golden.json")
COLUMNS = ("t", "log_price", "momentum", "lam", "x", "trade", "direction", "n_trades")
_CORPUS_SEED = 20260521
_LAST_SEED = 2**64 - 1


def _number(v):
    """A stat or event field as JSON: floats by their bits, ints and None as is."""
    return v.hex() if isinstance(v, float) else v


def params_of(params: dict) -> ModelParams:
    """The ModelParams a case spells: every float field with ``float.hex``
    and T as an int."""
    return ModelParams(**{k: v if k == "T" else float.fromhex(v) for k, v in params.items()})


def stats_json(stats) -> dict:
    """Summary stats in the corpus's JSON form."""
    return {name: _number(getattr(stats, name)) for name in stats.__slots__}


def outcome(params: dict, seed: int) -> dict:
    """What one case gives, in the corpus's JSON form."""
    try:
        p = params_of(params)
        traj = simulate(p, seed)
    except ValueError as exc:
        return {"error": str(exc)}
    out = {
        "columns": {
            name: hashlib.sha256(getattr(traj, name).tobytes()).hexdigest() for name in COLUMNS
        },
        "n_rng_draws": traj.n_rng_draws,
    }
    try:
        cfg = CrashConfig.for_params(p)
    except ValueError as exc:  # the default floor 5*d overflows for d near the float max
        out["detector_error"] = str(exc)
        return out
    stats = summarize(traj, cfg)
    out["stats"] = stats_json(stats)
    out["events"] = [
        [_number(getattr(ev, name)) for name in ev.__slots__] for ev in detect_crashes(traj, cfg)
    ]
    return out


def _spelled(T: int, **floats: float) -> dict:
    return {"T": T, **{k: float(v).hex() for k, v in floats.items()}}


def _random(rng: np.random.Generator, T: int) -> dict:
    """Parameters around the baseline's scales, some of them log-uniform
    over many decades."""
    a, b, c = np.sort(rng.uniform(-2.0, 2.0, size=3))
    return _spelled(
        T,
        d=10.0 ** rng.uniform(-4, 0),
        r=10.0 ** rng.uniform(-5, 0.5),
        Lambda=rng.uniform(-4.0, 3.0),
        k=10.0 ** rng.uniform(-2, 3),
        h=10.0 ** rng.uniform(-3, 1),
        a=a, b=b, c=c,
        log_p0=rng.uniform(-3.0, 3.0),
        x0=rng.uniform(-2.0, 2.0),
    )


def _base(T: int, **changes) -> dict:
    p = ModelParams(T=T)
    return _spelled(T, **{**{k: getattr(p, k) for k in p.as_dict() if k != "T"}, **changes})


def cases() -> list[tuple[dict, int]]:
    rng = np.random.Generator(np.random.PCG64(_CORPUS_SEED))
    out = []
    for T, count in ((2, 12), (3, 12), (10, 24), (500, 40), (5000, 12)):
        for _ in range(count):
            out.append((_random(rng, T), int(rng.integers(0, 2**64, dtype=np.uint64))))
    extremes = [
        *({"Lambda": v} for v in (1e6, -1e6, 1e300, -1e300, 1.7e308, -1.7e308,
                                  math.nextafter(-2.0, 0.0), 0.0, -0.0)),
        *({"k": v} for v in (5e-324, 1e-300, 1e-10, 1e10, 1e300, 1.7e308)),
        *({"h": v} for v in (1e10, 1e100, 1e200)),
        {"Lambda": 1e300, "k": 1e-300},
        {"Lambda": -1e300, "k": 1e-300},
        {"Lambda": -1e6, "k": 1e300},
        {"k": 5e-324, "h": 5e-324},
        {"k": 5e-324, "h": 5e-324, "Lambda": 0.5, "x0": -0.3},
        {"log_p0": -0.0}, {"x0": -0.0}, {"log_p0": 1e308}, {"d": 1e300},
        {"b": 1.5},  # b above c: refused
        {"a": 0.5},  # a above b: refused
    ]
    for changes in extremes:
        for seed in (0, 7, _LAST_SEED):
            out.append((_base(500, **changes), seed))
    # the overflow cases of test_model: h (m-a) overflows at m = 0, and
    # times (m-b) = 0 it becomes nan
    for b in (0.02, 0.0):
        out.append((_base(20, h=1e300, a=-1e10, b=b, c=1e10), 3))
    # the trades overflow log P, then M (m at a root of the cubic keeps x finite)
    m_at_root = math.exp(-700.0) * 1e308
    for T in (3, 6):
        out.append((_base(T, d=1e308, r=700.0, Lambda=30.0, h=1e-12, x0=1000.0,
                          a=m_at_root, b=m_at_root + 1, c=m_at_root + 2), 1))
    out.append((_base(10, d=10.0, Lambda=30.0, k=1e308, h=1e308,
                      a=-1e-300, b=math.exp(-0.001) * 10.0, c=20.0), 1))
    out.append((_base(3000, r=20.0, Lambda=-3.0), 21))  # momentum underflows to -0.0
    # a maximum momentum of zero, first reached as +0.0 with -0.0 later,
    # where np.max's zero depended on numpy's SIMD path
    for T in (56, 256):
        out.append((_base(T, r=700.0, x0=-40.0), 0))
    out.append(({"T": 1}, 0))  # T below 2: refused
    # the baseline at the paper's b values, where crash events are many
    for b in (0.0001, 0.01, 0.02):
        for seed in (1, 42, 5000, _LAST_SEED):
            out.append((_base(5000, b=b), seed))
    return out


# a log-price path that overflows to inf: non-finite stats and CSV cells
_OVERFLOW = ["--log_p0", "1.79e308", "--d", "1e307", "--Lambda", "30", "--T", "2", "--no-plot"]
CLI_RUNS = [
    ["simulate", "--seed", "42"],  # the baseline run whose CSV criterion 04 pins
    ["sweep", "--axis", "b", "--values", "0.0001,0.01,0.02", "--seeds", "0..2"],
    ["simulate", "--T", "50.0", "--seed", "1e3"],  # int-spelled flags
    ["simulate", "--T", "400", "--seed", "5", "--threshold", "0.01", "--peak-window", "100",
     "--min-drawdown", "0.05"],
    ["simulate", "--T", "2000", "--seed", "3", "--log_p0", "1e15"],  # CSV cells left to Python
    ["simulate", "--seed", "0", *_OVERFLOW],
    ["sweep", "--axis", "b", "--values", "0.01,1.5", "--seeds", "0..2", "--T", "300"],  # b = 1.5 fails
    ["sweep", "--axis", "Lambda", "--values", "30,31", "--seeds", "0..3", *_OVERFLOW],
]


def cli_outcome(argv: list[str]) -> dict:
    """The exit code of ``bubblesim *argv`` and the sha256 of each file it
    writes, run in-process into a fresh output directory."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([*argv, "--out", out])
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(out).iterdir())}
    return {"exit": code, "files": files}


def main() -> None:
    corpus = [{"params": p, "seed": s, **outcome(p, s)} for p, s in cases()]
    corpus += [{"argv": argv, **cli_outcome(argv)} for argv in CLI_RUNS]
    lines = ",\n".join(json.dumps(case, separators=(",", ":")) for case in corpus)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(corpus)} cases to {GOLDEN}")


if __name__ == "__main__":
    main()
