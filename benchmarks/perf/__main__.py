"""``python -m benchmarks.perf``: the same command as ``run.py``."""

from benchmarks.perf.run import main

raise SystemExit(main())
