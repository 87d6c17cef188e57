"""Service substrate.

Models the services the scheduler steers packets to (the processing
paths of the Fig. 5 edge-router task graph), the task graph itself, and
the 5-tuple classifier that maps flows onto services.
"""

from repro.net.classifier import MatchRule, ServiceClassifier, default_edge_rules
from repro.net.service import Service, ServiceSet, default_services
from repro.net.taskgraph import (
    EDGE_ROUTER_TASKS,
    TaskGraph,
    build_edge_router_graph,
    services_from_graph,
)

__all__ = [
    "MatchRule",
    "ServiceClassifier",
    "default_edge_rules",
    "Service",
    "ServiceSet",
    "default_services",
    "TaskGraph",
    "EDGE_ROUTER_TASKS",
    "build_edge_router_graph",
    "services_from_graph",
]
