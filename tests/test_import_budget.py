"""Cold start: analysis-only dependencies stay off the simulation path.

Every CLI invocation and every spawned pool or shard worker imports
``repro`` first, so whatever that import pulls in is paid per process.
``scipy.stats`` (one p-value in :mod:`repro.hashing.quality`) and
``networkx`` (the Fig. 5 task graph) cost about a second together and
no simulation uses them; they are imported where they are called.
Each case runs in a new interpreter under ``-X importtime`` and reads
the modules it loaded from that report.
"""

import pytest

HEAVY = ("scipy", "networkx")


def loaded_packages(importtime_report: str) -> set[str]:
    """Top-level package names in a ``python -X importtime`` report."""
    return {
        line.rsplit("|", 1)[1].strip().split(".")[0]
        for line in importtime_report.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "args",
    [
        ["-c", "import repro"],
        ["-c", "import repro.sim.sharding"],
        ["-m", "repro.sim", "--help"],
        ["-m", "repro.experiments", "--help"],
        ["-m", "repro.workloads", "--help"],
    ],
    ids=lambda args: " ".join(args),
)
def test_heavy_dependencies_not_imported(fresh_python, args):
    loaded = loaded_packages(fresh_python("-X", "importtime", *args).stderr)
    assert "repro" in loaded  # the report parsed
    assert not loaded & set(HEAVY), sorted(loaded & set(HEAVY))
