"""Compare what two source trees' ``simulate`` gives over random parameters.

    python tests/differential.py OLD_SRC NEW_SRC --n N [--seed S]

OLD_SRC and NEW_SRC are directories that hold a ``bubblesim`` package (a
checkout's ``src``).  Each tree runs in its own subprocess, over the same N
parameter sets drawn from ``--seed``: the defaults at seed 42 first, then
random sets whose draws reach the kernel's extremes (decay 1.0, decay
underflowing or exactly 0.0, scales up to 1e300, signed zeros, a zero root,
huge h at tiny r, which makes the loop's one-step guess of x wrong).  For
each set a side prints one line: the sha256 over every Trajectory column's
name, dtype and bytes and ``n_rng_draws``, or the type and text of the
exception, with every warning raised as an error.  This prints one line per
case whose lines differ, then a count, and exits 1 if any case differs.

Run it to show that a change keeps every byte of ``simulate``; it is not
part of tier-1, whose smoke test runs it with a small N.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import random
import subprocess
import sys
import warnings

COLUMNS = ("t", "log_price", "momentum", "lam", "x", "trade", "direction", "n_trades")
# r drawn as one of these in a quarter of the sets: decay 1.0, subnormal and
# tiny r, decay underflowing (700) or exactly 0.0 (800, 1e300)
_R_EDGES = (5e-324, 1e-300, 1e-18, 1e-17, 1e-12, 700.0, 800.0, 1e300)
_LAMBDA_EDGES = (1e300, -1e300, 1e6, -1e6, 30.0, 0.0, -0.0)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def cases(n: int, seed: int) -> list[tuple[dict, int]]:
    """The first n (ModelParams keywords, seed) pairs drawn from ``seed``."""
    rng = random.Random(seed)
    out = [({}, 42)]
    while len(out) < n:
        kw = {"T": rng.randint(2, 1499), "Lambda": rng.uniform(-6.0, 4.0)}
        u = rng.random()
        if u < 0.15:  # the loop's guess of x can be wrong here
            kw["r"], kw["h"] = _log_uniform(rng, 1e-14, 1e-10), _log_uniform(rng, 1.0, 1e300)
        elif u < 0.4:
            kw["r"] = rng.choice(_R_EDGES)
        elif u < 0.7:
            kw["r"] = _log_uniform(rng, 1e-323, 1e300)
        else:
            kw["r"] = _log_uniform(rng, 1e-6, 1.0)
        if rng.random() < 0.2:
            kw["Lambda"] = rng.choice(_LAMBDA_EDGES)
        if rng.random() < 0.2:  # scales and roots far from the defaults
            kw["d"], kw["k"] = _log_uniform(rng, 1e-4, 1e300), _log_uniform(rng, 1e-3, 1e300)
            scale = _log_uniform(rng, 1.0, 1e300)
        else:
            scale = 1.0
        roots = sorted(rng.uniform(-3.0, 3.0) * scale for _ in range(3))
        if rng.random() < 0.1:
            roots[rng.randrange(3)] = 0.0
        kw["a"], kw["b"], kw["c"] = roots
        if rng.random() < 0.1:
            kw["log_p0"] = -0.0
        if rng.random() < 0.1:
            kw["x0"] = -0.0
        out.append((kw, rng.randrange(2**64)))
    return out


def outcome(params_kw: dict, seed: int) -> str:
    """The sha256 of the run's columns and draw count, or its exception."""
    from bubblesim import ModelParams, simulate

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = simulate(ModelParams(**params_kw), seed)
    except Exception as exc:  # noqa: BLE001 -- any failure is an outcome to compare
        return f"{type(exc).__name__}: {exc}".replace("\n", " ")
    h = hashlib.sha256()
    for name in COLUMNS:
        column = getattr(traj, name)
        h.update(f"{name} {column.dtype.str}\n".encode())
        h.update(column.tobytes())
    h.update(str(traj.n_rng_draws).encode())
    return h.hexdigest()


def _side(n: int, seed: int) -> None:
    for kw, s in cases(n, seed):
        print(outcome(kw, s))


def _run_sides(trees: list[str], n: int, seed: int) -> list[list[str]]:
    """Each tree's outcome lines, from one subprocess per tree, run at once."""
    procs = []
    for tree in trees:
        env = {**os.environ, "PYTHONPATH": os.path.abspath(tree)}
        argv = [sys.executable, os.path.abspath(__file__), "--side", "--n", str(n), "--seed", str(seed)]
        procs.append(subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True))
    outputs = [p.communicate()[0] for p in procs]
    for tree, p in zip(trees, procs):
        if p.returncode:
            raise SystemExit(f"the side for {tree} exited with {p.returncode}")
    return [out.splitlines() for out in outputs]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--n", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--side", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        _side(args.n, args.seed)
        return 0
    if args.old is None or args.new is None:
        parser.error("OLD_SRC and NEW_SRC are required")
    old, new = _run_sides([args.old, args.new], args.n, args.seed)
    if len(old) != args.n or len(new) != args.n:
        raise SystemExit(f"expected {args.n} lines per side, got {len(old)} and {len(new)}")
    differ = 0
    for i, ((kw, seed), a, b) in enumerate(zip(cases(args.n, args.seed), old, new)):
        if a != b:
            differ += 1
            print(f"case {i} ModelParams(**{kw}) seed={seed}: old {a} | new {b}")
    print(f"{args.n} cases, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
