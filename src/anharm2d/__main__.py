"""``python -m anharm2d``: the command-line interface of anharm2d.cli."""

import sys

from .cli import main

if __name__ == "__main__":  # importing the module (as a tracer does) runs nothing
    sys.exit(main())
