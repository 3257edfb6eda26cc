"""``repro.build`` — the one construction path for labelings.

Mirror of the :mod:`repro.api` facade for the *construction* side: label
construction runs as one staged plan (:class:`BuildPlan`) on the calling
thread, and every build entry point funnels through :func:`build_labeling`::

    from repro.build import build_labeling

    labeling = build_labeling(graph, max_faults=3)
    print(labeling.build_report.to_dict())

or equivalently through the higher facades — ``Oracle.build(graph, ...)``,
``open_oracle("build:edges.txt")`` and the CLI's build subcommands.
"""

from __future__ import annotations

from typing import Any

from repro.build.plan import STAGES, BuildPlan, BuildReport, BuildResult


def build_labeling(graph: Any, config: Any = None, *,
                   max_faults: int | None = None, variant: Any = None,
                   random_seed: int | None = None, root: Any = None,
                   **overrides: Any) -> Any:
    """Build an :class:`~repro.core.ftc.FTCLabeling` — the one build facade.

    Construction parameters are normalized through
    :func:`~repro.core.config.resolve_ftc_config` (pass ``config=`` or loose
    parameters, not both).  The returned labeling carries the
    :class:`BuildReport` as ``labeling.build_report``.
    """
    from repro.core.config import resolve_ftc_config
    from repro.core.ftc import FTCLabeling

    resolved = resolve_ftc_config(max_faults=max_faults, config=config,
                                  variant=variant, random_seed=random_seed,
                                  **overrides)
    return FTCLabeling(graph, resolved, root=root)


__all__ = [
    "BuildPlan",
    "BuildReport",
    "BuildResult",
    "STAGES",
    "build_labeling",
]
