"""Tests for the Fig. 5 edge-router task graph."""

import pytest

from repro import units
from repro.net.service import default_services
from repro.net.taskgraph import (
    Task,
    TaskGraph,
    build_edge_router_graph,
    services_from_graph,
)


class TestTaskGraph:
    def test_duplicate_task_rejected(self):
        tg = TaskGraph()
        tg.add_task(Task("a", 1))
        with pytest.raises(ValueError):
            tg.add_task(Task("a", 2))

    def test_path_needs_known_tasks(self):
        tg = TaskGraph()
        tg.add_task(Task("a", 1))
        with pytest.raises(ValueError):
            tg.add_path("p", ["a", "ghost"])

    def test_path_needs_two_tasks(self):
        tg = TaskGraph()
        tg.add_task(Task("a", 1))
        with pytest.raises(ValueError):
            tg.add_path("p", ["a"])

    def test_duplicate_path_rejected(self):
        tg = TaskGraph()
        for name in "ab":
            tg.add_task(Task(name, 1))
        tg.add_path("p", ["a", "b"])
        with pytest.raises(ValueError):
            tg.add_path("p", ["a", "b"])

    def test_cycle_rejected(self):
        tg = TaskGraph()
        for name in "ab":
            tg.add_task(Task(name, 1))
        tg.add_path("p", ["a", "b"])
        with pytest.raises(ValueError):
            tg.add_path("q", ["b", "a"])

    def test_path_cost_sums_tasks(self):
        tg = TaskGraph()
        tg.add_task(Task("a", 100, 10))
        tg.add_task(Task("b", 200, 20))
        tg.add_path("p", ["a", "b"])
        assert tg.path_cost("p") == (300, 30)

    def test_unknown_path_cost_rejected(self):
        with pytest.raises(KeyError):
            TaskGraph().path_cost("nope")

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            Task("bad", -1)


class TestEdgeRouterGraph:
    def test_four_paths(self):
        tg = build_edge_router_graph()
        assert set(tg.paths) == {"vpn-out", "ip-forward", "malware-scan", "vpn-in-scan"}

    def test_path_costs_match_paper(self):
        """The per-task costs must sum to the Sec. IV-C service models."""
        tg = build_edge_router_graph()
        assert tg.path_cost("ip-forward") == (units.us(0.5), 0)
        assert tg.path_cost("malware-scan") == (units.us(3.53), 0)
        assert tg.path_cost("vpn-out") == (units.us(3.7), units.us(0.23))
        assert tg.path_cost("vpn-in-scan") == (units.us(5.8), units.us(0.21))

    def test_is_dag(self):
        import networkx as nx

        assert nx.is_directed_acyclic_graph(build_edge_router_graph().graph)

    def test_task_lookup(self):
        tg = build_edge_router_graph()
        assert tg.task("scan").base_ns == units.us(3.03)

    def test_builds_as_first_call_in_fresh_process(self, fresh_python):
        """networkx is imported lazily by TaskGraph; building the graph
        first thing in a new process must still work and yield a DiGraph."""
        out = fresh_python("-c", (
            "from repro.net.taskgraph import build_edge_router_graph\n"
            "tg = build_edge_router_graph()\n"
            "print(type(tg.graph).__name__, *tg.path_cost('vpn-in-scan'))"
        )).stdout.split()
        assert out == ["DiGraph", str(units.us(5.8)), str(units.us(0.21))]


class TestServicesFromGraph:
    def test_matches_default_services(self):
        """Collapsing Fig. 5's paths must yield the paper's services."""
        derived = services_from_graph(build_edge_router_graph())
        reference = default_services()
        assert len(derived) == len(reference)
        for d, r in zip(derived, reference):
            assert d.name == r.name
            assert d.base_ns == r.base_ns
            assert d.per_64b_ns == r.per_64b_ns
