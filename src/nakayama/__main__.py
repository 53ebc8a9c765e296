"""Run the command line interface as ``python3 -m nakayama``."""

from .cli import main

raise SystemExit(main())
