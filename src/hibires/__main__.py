"""``python -m hibires``: the command-line interface of hibires.cli."""

import sys

from .cli import main

sys.exit(main())
