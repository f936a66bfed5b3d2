"""``python -m loragate``: the same commands as ``loragate.cli``."""

import sys

from .cli import main

if __name__ == "__main__":  # not when a spawned pool worker imports it
    sys.exit(main())
