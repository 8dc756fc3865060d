"""Command line entry without installing: python -m cumulyap ..."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
