"""The simulator's benchmark: ``python3 benchmarks/perf/run.py`` (see
``run.py`` and ``README.md``)."""
