"""``python -m loragate``: the same commands as ``loragate.cli``."""

import sys

from .cli import main

if __name__ == "__main__":  # not when another module imports it
    sys.exit(main())
