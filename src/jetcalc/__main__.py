"""`python -m jetcalc`: the `jetcalc` command without an installed script."""

import sys

from jetcalc.cli import main

sys.exit(main())
