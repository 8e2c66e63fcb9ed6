"""``python -m majorana_pt``: the ``majorana-pt`` command without an install."""

import sys

from .cli import main

sys.exit(main())
