"""``python -m agp``: the ``agp`` command."""

import sys

from .bench import main

if __name__ == "__main__":
    sys.exit(main())
