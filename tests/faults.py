"""The one fault injector of the commit tests: a failing disk under
bubblesim.io, whose k-th open, write or rename raises OSError."""

from __future__ import annotations

import builtins
import os
from pathlib import Path

import pytest

import bubblesim.io


class Faults:
    """Counts the open, write and os.replace calls of bubblesim.io, and makes
    the k-th of them raise OSError; records the targets renamed onto.  With
    k = 0 nothing fails, and ``calls`` and ``renamed`` describe a whole
    commit."""

    def __init__(self, k: int):
        self.k, self.calls = k, 0
        self.fired: str | None = None
        self.target: str | None = None  # the target of a failed rename
        self.renamed: list[str] = []

    def tick(self, what: str) -> None:
        self.calls += 1
        if self.calls == self.k:
            self.fired = what
            raise OSError(5, f"injected failure of {what}")

    def install(self, mp: pytest.MonkeyPatch) -> None:
        faults, real_replace = self, os.replace

        class CountedFile:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._fh.close()

            def write(self, text):
                faults.tick("write")
                return self._fh.write(text)

        def counted_open(*args, **kwargs):
            faults.tick("open")
            return CountedFile(builtins.open(*args, **kwargs))

        def counted_replace(src, dst):
            faults.target = Path(dst).name
            faults.tick("replace")
            real_replace(src, dst)
            faults.renamed.append(faults.target)

        mp.setattr(bubblesim.io, "open", counted_open, raising=False)
        mp.setattr(bubblesim.io.os, "replace", counted_replace)
