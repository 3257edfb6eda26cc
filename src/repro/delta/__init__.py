"""``repro.delta`` — delta snapshots (FTCS-D) and incremental rebuilds.

The labeling is XOR-linear per outdetect level, so most graph changes touch
only a small fraction of the label bytes.  This package exploits that twice:

* :mod:`repro.delta.format` defines the versioned, fail-closed **FTCS-D**
  artifact — the byte-level patch between two ``FTCS`` snapshots.
  :func:`diff_snapshots` produces it, :func:`apply_delta` reconstructs the
  target byte-for-byte (verified by digest, or :class:`~repro.errors.DeltaError`).
* :mod:`repro.delta.incremental` rebuilds a labeling after an edge-list diff
  by patching every per-level label matrix of the base labeling that the
  edit leaves structurally intact — the
  output is byte-identical to a from-scratch build.

Callers outside the library go through the :mod:`repro.api` facades
(``diff_snapshots`` / ``apply_delta`` / ``Oracle.build_delta``) or the CLI
(``repro snapshot-diff`` / ``repro snapshot-apply``).
"""

from __future__ import annotations

from repro.delta.format import (DELTA_MAGIC, DELTA_VERSION, apply_delta,
                                apply_delta_file, describe_delta,
                                diff_snapshot_files, diff_snapshots)
from repro.delta.incremental import (apply_edge_diff, incremental_labeling,
                                     plan_edge_diff)

__all__ = [
    "DELTA_MAGIC",
    "DELTA_VERSION",
    "apply_delta",
    "apply_delta_file",
    "apply_edge_diff",
    "describe_delta",
    "diff_snapshot_files",
    "diff_snapshots",
    "incremental_labeling",
    "plan_edge_diff",
]
