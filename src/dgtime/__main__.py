"""`python -m dgtime <experiment> ...` runs the CLI, as the `dgtime` script does."""
from .bench import main

raise SystemExit(main())
