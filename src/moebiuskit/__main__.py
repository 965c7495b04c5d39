"""`python -m moebiuskit`: the command-line interface of `moebiuskit.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
