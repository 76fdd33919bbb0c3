"""``python -m igw``: the command-line interface of :mod:`igw.cli`."""

import sys

from .cli import main

sys.exit(main())
