"""python -m bubblesim runs cli.main, as the bubblesim console script does."""

import sys

from .cli import main

if __name__ == "__main__":  # a spawned worker imports this module as __mp_main__
    sys.exit(main())
