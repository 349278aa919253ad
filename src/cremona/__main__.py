"""``python -m cremona``: the ``cremona`` command line."""

import sys

from .cli import main

__all__ = []

if __name__ == "__main__":
    sys.exit(main())
