"""``python -m collapsewalk``: the command line the ``collapsewalk`` script runs."""

import sys

from .cli import main

sys.exit(main())
