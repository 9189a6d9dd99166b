"""python -m hallinv: the hallinv command line (hallinv.cli).

The guard keeps a plain import, such as a walk over the package's modules,
from running the command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
