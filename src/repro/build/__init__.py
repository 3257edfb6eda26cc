"""``repro.build`` — one build contract, pluggable execution strategies.

Mirror of the :mod:`repro.api` facade for the *construction* side: where the
oracle protocol gave queries one contract with several transports, this
package gives label construction one staged plan (:class:`BuildPlan`) with two
conforming executors — :class:`SerialExecutor` (the default) and
:class:`ProcessExecutor` (the multiprocessing fan-out of the independent
per-level outdetect builds).  Both produce **byte-identical** labelings;
executors only change how fast the shards run.

Every build entry point funnels through :func:`build_labeling`::

    from repro.build import build_labeling

    labeling = build_labeling(graph, max_faults=3, jobs=4)
    print(labeling.build_report.to_dict())

or equivalently through the higher facades — ``Oracle.build(graph, ...,
jobs=4)``, ``open_oracle("build:edges.txt?jobs=4")``, and the CLI's
``--jobs`` flag — which all resolve executors through
:func:`repro.core.config.resolve_build_executor`.  Setting
``REPRO_BUILD_EXECUTOR=process`` (mirroring ``REPRO_GF2_BACKEND``) switches
whole runs without touching call sites.
"""

from __future__ import annotations

from typing import Any

from repro.build.executors import (EXECUTOR_ENV_VAR, EXECUTOR_NAMES,
                                   BuildExecutor, ProcessExecutor,
                                   SerialExecutor, available_executors,
                                   resolve_executor)
from repro.build.plan import STAGES, BuildPlan, BuildReport, BuildResult


def build_labeling(graph: Any, config: Any = None, *,
                   max_faults: int | None = None, variant: Any = None,
                   random_seed: int | None = None, root: Any = None,
                   executor: Any = None, jobs: int | None = None,
                   **overrides: Any) -> Any:
    """Build an :class:`~repro.core.ftc.FTCLabeling` — the one build facade.

    Construction parameters are normalized through
    :func:`~repro.core.config.resolve_ftc_config` (pass ``config=`` or loose
    parameters, not both); ``executor`` / ``jobs`` select the execution
    strategy via :func:`~repro.build.executors.resolve_executor`.  The
    returned labeling carries the :class:`BuildReport` as
    ``labeling.build_report``.
    """
    from repro.core.config import resolve_ftc_config
    from repro.core.ftc import FTCLabeling

    resolved = resolve_ftc_config(max_faults=max_faults, config=config,
                                  variant=variant, random_seed=random_seed,
                                  **overrides)
    return FTCLabeling(graph, resolved, root=root,
                       executor=resolve_executor(executor, jobs))


__all__ = [
    "BuildExecutor",
    "BuildPlan",
    "BuildReport",
    "BuildResult",
    "EXECUTOR_ENV_VAR",
    "EXECUTOR_NAMES",
    "ProcessExecutor",
    "SerialExecutor",
    "STAGES",
    "available_executors",
    "build_labeling",
    "resolve_executor",
]
