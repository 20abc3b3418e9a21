"""The two-tree differential, ``tests/differential.py``, on a small N."""

import shutil
from pathlib import Path

import differential

SRC = Path(__file__).resolve().parent.parent / "src"


def test_the_differential_reports_a_planted_one_ulp_change_and_nothing_else(tmp_path, capsys):
    # One run, so the two sides' imports are paid once: the copy moves the
    # last momentum one ulp at T = 5000, which only case 0 (the defaults)
    # has, so in the other 19 cases both sides run the checkout's own code.
    shutil.copytree(SRC / "bubblesim", tmp_path / "bubblesim")
    model = tmp_path / "bubblesim" / "model.py"
    text = model.read_text()
    anchor = "        x = _x(params, mom)\n"
    assert text.count(anchor) == 1
    model.write_text(text.replace(
        anchor, "        if n == 5001:\n            mom[-1] = np.nextafter(mom[-1], np.inf)\n" + anchor))
    assert differential.main([str(SRC), str(tmp_path), "--n", "20"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("case 0 ModelParams(**{}) seed=42: old ")
    assert lines[1:] == ["20 cases, 1 differ"]
    assert all(T < 5000 for T in (kw["T"] for kw, _ in differential.cases(20, 0)[1:]))
