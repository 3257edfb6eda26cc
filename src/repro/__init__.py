"""repro — Deterministic Fault-Tolerant Connectivity Labeling Scheme.

A full reproduction of "Deterministic Fault-Tolerant Connectivity Labeling
Scheme" (Izumi, Emek, Wadayama, Masuzawa; PODC 2023, arXiv:2208.11459): the
deterministic f-FTC labeling schemes of Theorems 1-2, the randomized
counterparts they are compared against, the applications of Corollaries 1-2,
and a CONGEST-model simulation of the distributed construction (Theorem 3).

Quickstart
----------
>>> from repro import Graph, Oracle
>>> graph = Graph([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
>>> oracle = Oracle.build(graph, max_faults=2)
>>> oracle.connected(0, 2, faults=[(1, 2), (3, 0)])
True
>>> oracle.connected(0, 2, faults=[(1, 2), (2, 3)])
False

The same oracle contract (:class:`OracleProtocol`) is served by three
transports — built in process (``Oracle.build``), rehydrated from a snapshot
(``Oracle.load``), or over TCP from a query server (``Oracle.connect``) —
selectable by one URI via :func:`open_oracle`.
"""

from repro.core import (FTCConfig, FTCLabeling, FTCSnapshot, FTConnectivityOracle,
                        RehydratedOracle, SchemeVariant, load_snapshot)
from repro.graphs import Graph
from repro.hierarchy.config import ThresholdRule
from repro.api import (Oracle, OracleProtocol, OracleStats, RemoteOracle,
                       open_oracle)
from repro.build import BuildReport, build_labeling
from repro.errors import OracleError, TransportError

__version__ = "1.2.0"

__all__ = [
    "Graph",
    "BuildReport",
    "FTCConfig",
    "FTCLabeling",
    "FTCSnapshot",
    "FTConnectivityOracle",
    "Oracle",
    "OracleError",
    "OracleProtocol",
    "OracleStats",
    "RehydratedOracle",
    "RemoteOracle",
    "SchemeVariant",
    "ThresholdRule",
    "TransportError",
    "build_labeling",
    "load_snapshot",
    "open_oracle",
    "__version__",
]
