"""The console-script check: seven ``bubblesim`` commands and the exit code
each must give.

A command that must exit 1 must also print exactly one stderr line, the
``error:`` line.  ``{out}`` in an argument stands for the output directory;
each command is split on spaces first, so the directory may hold any.

    python tests/console_script.py

runs every command through the ``bubblesim`` found on PATH, in a temporary
directory, prints each command's stderr, and exits non-zero at the first
command that breaks its rule.  The tests run the same table through
``bubblesim.cli.main``.
"""

import subprocess
import sys
import tempfile

COMMANDS = [
    ("simulate --seed 42 --T 50 --out {out}/o", 0),
    # negative values after a space, which argparse's own pattern reads as
    # flags on some Pythons
    ("simulate --T 50 --x0 -1e-3 --out {out}/neg", 0),
    ("sweep --axis lambda --values -2.5,-2 --seeds 0..1 --T 50 --no-plot --out {out}/negsweep", 0),
    # the cells of one seed share no draws (T) and draws only (k)
    ("sweep --axis T --values 50,60 --seeds 0..1 --T 50 --no-plot --out {out}/tsweep", 0),
    ("sweep --axis k --values 5,10 --seeds 0..1 --T 50 --no-plot --out {out}/ksweep", 0),
    # a flag that is not a number, and a sweep with no valid cell
    ("simulate --T=abc", 1),
    ("sweep --axis b --values 1.5,2.5 --seeds 0..1 --T 50 --no-plot --out {out}/nocell", 1),
]


def check(run, out, commands=COMMANDS) -> None:
    """Run each command as ``run(argv) -> (exit code, stderr text)``, with
    ``{out}`` formatted to ``out``, and raise ``AssertionError`` at the
    first one that breaks its rule."""
    for line, want in commands:
        code, err = run([arg.format(out=out) for arg in line.split()])
        lines = err.splitlines()
        if code != want or want == 1 and not (len(lines) == 1 and lines[0].startswith("error: ")):
            raise AssertionError(f"bubblesim {line}: exit {code}, want {want}; stderr:\n{err}")


def _installed(argv: list[str], cwd: str) -> tuple[int, str]:
    proc = subprocess.run(["bubblesim", *argv], cwd=cwd, capture_output=True, text=True)
    print(f"$ bubblesim {' '.join(argv)}  (exit {proc.returncode})")
    sys.stdout.write(proc.stderr)
    return proc.returncode, proc.stderr


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        check(lambda argv: _installed(argv, out), out)
