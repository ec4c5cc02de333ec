"""``python -m infobs``: the command-line interface of :mod:`infobs.cli`."""

import sys

from .cli import main

sys.exit(main())
