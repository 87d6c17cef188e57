"""The edge-router task graph of Fig. 5 and its reduction to services.

The paper models an edge router as a task graph (based on Huang & Wolf's
methodology) whose four source->sink paths become the four services:

* Path 1 (vpn-out):      classify -> route -> encrypt -> frame -> tx
* Path 2 (ip-forward):   classify -> route -> frame -> tx
* Path 3 (malware-scan): classify -> scan -> route -> frame -> tx
* Path 4 (vpn-in-scan):  classify -> decrypt -> scan -> route -> frame -> tx

Because modern network processors pin all tasks of a path to one core
(to avoid inter-core hand-offs), the scheduler treats each *path* as an
indivisible service; this module builds the graph explicitly (on
networkx) so path costs are derived from per-task costs rather than
hard-coded, and so users can model their own routers.

networkx is imported inside the two :class:`TaskGraph` methods that
need it, so ``import repro`` does not load it: no simulation builds a
task graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.net.service import Service, ServiceSet

__all__ = [
    "Task",
    "TaskGraph",
    "EDGE_ROUTER_TASKS",
    "build_edge_router_graph",
    "services_from_graph",
]


@dataclass(frozen=True, slots=True)
class Task:
    """One processing stage of the router pipeline.

    Costs follow the same affine model as services: a fixed nanosecond
    cost plus a per-64-byte cost for payload-touching tasks.
    """

    name: str
    base_ns: int
    per_64b_ns: int = 0

    def __post_init__(self) -> None:
        if self.base_ns < 0 or self.per_64b_ns < 0:
            raise ValueError(f"task costs must be >= 0: {self}")


#: Per-task costs chosen so the four Fig. 5 paths sum exactly to the
#: paper's measured per-service models (Sec. IV-C).  ``classify``,
#: ``frame`` and ``tx`` are folded into the Frame Manager in the paper
#: and carry zero data-plane cost here.
EDGE_ROUTER_TASKS: dict[str, Task] = {
    "rx": Task("rx", 0),
    "classify": Task("classify", 0),
    "route": Task("route", units.us(0.5)),  # path 2 total = 0.5 us
    "encrypt": Task("encrypt", units.us(3.2), units.us(0.23)),  # 0.5 + 3.2 = 3.7
    "decrypt": Task("decrypt", units.us(2.27), units.us(0.21)),  # 0.5 + 3.03 + 2.27 = 5.8
    "scan": Task("scan", units.us(3.03)),  # 0.5 + 3.03 = 3.53 us
    "frame": Task("frame", 0),
    "tx": Task("tx", 0),
}


class TaskGraph:
    """A directed acyclic task graph with named end-to-end paths.

    Wraps a :class:`networkx.DiGraph` whose nodes carry :class:`Task`
    objects, plus an ordered mapping of path name -> node sequence.
    """

    def __init__(self) -> None:
        import networkx as nx

        self.graph = nx.DiGraph()
        self._paths: dict[str, tuple[str, ...]] = {}

    def add_task(self, task: Task) -> None:
        if task.name in self.graph:
            raise ValueError(f"duplicate task {task.name!r}")
        self.graph.add_node(task.name, task=task)

    def add_path(self, name: str, nodes: list[str]) -> None:
        """Register a service path; adds the edges along it."""
        import networkx as nx

        if name in self._paths:
            raise ValueError(f"duplicate path {name!r}")
        if len(nodes) < 2:
            raise ValueError(f"path {name!r} needs at least two tasks")
        for node in nodes:
            if node not in self.graph:
                raise ValueError(f"path {name!r} references unknown task {node!r}")
        for a, b in zip(nodes, nodes[1:]):
            self.graph.add_edge(a, b)
        if not nx.is_directed_acyclic_graph(self.graph):
            # roll back the edges that created the cycle
            for a, b in zip(nodes, nodes[1:]):
                if self.graph.has_edge(a, b) and not self._edge_in_other_path(a, b, name):
                    self.graph.remove_edge(a, b)
            raise ValueError(f"path {name!r} would create a cycle")
        self._paths[name] = tuple(nodes)

    def _edge_in_other_path(self, a: str, b: str, excluding: str) -> bool:
        return any(
            (a, b) in zip(nodes, nodes[1:])
            for pname, nodes in self._paths.items()
            if pname != excluding
        )

    @property
    def paths(self) -> dict[str, tuple[str, ...]]:
        return dict(self._paths)

    def path_cost(self, name: str) -> tuple[int, int]:
        """Summed ``(base_ns, per_64b_ns)`` cost of a path."""
        if name not in self._paths:
            raise KeyError(f"unknown path {name!r}")
        base = per = 0
        for node in self._paths[name]:
            task: Task = self.graph.nodes[node]["task"]
            base += task.base_ns
            per += task.per_64b_ns
        return base, per

    def task(self, name: str) -> Task:
        return self.graph.nodes[name]["task"]


def build_edge_router_graph() -> TaskGraph:
    """The Fig. 5 edge-router task graph with calibrated task costs."""
    tg = TaskGraph()
    for task in EDGE_ROUTER_TASKS.values():
        tg.add_task(task)
    tg.add_path("vpn-out", ["rx", "classify", "route", "encrypt", "frame", "tx"])
    tg.add_path("ip-forward", ["rx", "classify", "route", "frame", "tx"])
    tg.add_path("malware-scan", ["rx", "classify", "scan", "route", "frame", "tx"])
    tg.add_path("vpn-in-scan", ["rx", "classify", "decrypt", "scan", "route", "frame", "tx"])
    return tg


def services_from_graph(tg: TaskGraph) -> ServiceSet:
    """Collapse each path of *tg* into a :class:`Service`.

    Path order of registration defines service ids, mirroring the
    paper's S1..S4 numbering when applied to
    :func:`build_edge_router_graph`.
    """
    services = []
    for sid, (name, _nodes) in enumerate(tg.paths.items()):
        base, per = tg.path_cost(name)
        services.append(Service(sid, name, base, per, f"task-graph path {name!r}"))
    return ServiceSet(services)
