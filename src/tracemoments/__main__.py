"""`python -m tracemoments`: the command line, runnable from a source checkout."""

from .cli import main

raise SystemExit(main())
