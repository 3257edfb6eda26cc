"""Configuration of the f-FTC labeling schemes (the rows of Table 1)."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.hierarchy.config import NetAlgorithm, ThresholdRule


class SchemeVariant(Enum):
    """Which labeling scheme to build; each value matches a row of Table 1."""

    #: Deterministic, near-linear construction: NetFind hierarchy + Reed--Solomon
    #: outdetect.  Label size O(f^2 log^3 n) — the headline scheme of Theorem 1.
    DETERMINISTIC_NEARLINEAR = "det-nearlinear"

    #: Deterministic, polynomial construction: greedy-net hierarchy + Reed--Solomon
    #: outdetect (stands in for the MDG18-based O(f^2 log^2 n loglog n) variant).
    DETERMINISTIC_POLY = "det-poly"

    #: Randomized full-query-support scheme: sub-sampled hierarchy + Reed--Solomon
    #: outdetect.  Label size O(f log^3 n) — the third row contributed by the paper.
    RANDOMIZED_FULL = "rand-full"

    #: Dory--Parter second scheme with whp-per-query support: a single graph sketch.
    SKETCH_WHP = "sketch-whp"

    #: Dory--Parter second scheme upgraded to full query support (repetitions
    #: scaled by f).
    SKETCH_FULL = "sketch-full"

    @property
    def is_deterministic(self) -> bool:
        return self in (SchemeVariant.DETERMINISTIC_NEARLINEAR,
                        SchemeVariant.DETERMINISTIC_POLY)

    @property
    def uses_hierarchy(self) -> bool:
        return self in (SchemeVariant.DETERMINISTIC_NEARLINEAR,
                        SchemeVariant.DETERMINISTIC_POLY,
                        SchemeVariant.RANDOMIZED_FULL)


@dataclass(frozen=True)
class FTCConfig:
    """All knobs of a labeling-scheme construction.

    Attributes
    ----------
    max_faults:
        The fault budget ``f``.
    variant:
        Which Table-1 scheme to build.
    threshold_rule:
        PAPER (proven constants, larger labels) or PRACTICAL (heuristic
        constants with failure detection); only used by hierarchy variants.
    edge_id_mode:
        ``"compact"`` or ``"full"`` edge identifiers (see
        :mod:`repro.labeling.edge_ids`).
    adaptive_decoding:
        Whether outdetect decoding adapts to the actual cut size (Appendix B).
    random_seed:
        Seed for the randomized variants (sub-sampling / sketches).
    sketch_repetitions:
        Base number of sketch repetitions per level (scaled by ``f`` for the
        full-support sketch variant).
    """

    max_faults: int
    variant: SchemeVariant = SchemeVariant.DETERMINISTIC_NEARLINEAR
    threshold_rule: ThresholdRule = ThresholdRule.PAPER
    edge_id_mode: str = "compact"
    adaptive_decoding: bool = True
    random_seed: int = 0
    sketch_repetitions: int = 8

    def __post_init__(self):
        if self.max_faults < 1:
            raise ValueError("max_faults must be at least 1, got %d" % self.max_faults)

    @property
    def net_algorithm(self) -> NetAlgorithm:
        if self.variant is SchemeVariant.DETERMINISTIC_POLY:
            return NetAlgorithm.GREEDY
        return NetAlgorithm.NETFIND

    def effective_sketch_repetitions(self) -> int:
        if self.variant is SchemeVariant.SKETCH_FULL:
            return self.sketch_repetitions * max(self.max_faults, 1)
        return self.sketch_repetitions


def resolve_ftc_config(max_faults: int | None = None,
                       config: FTCConfig | None = None,
                       variant: SchemeVariant | str | None = None,
                       random_seed: int | None = None,
                       **overrides) -> FTCConfig:
    """Normalize every construction entry point onto one :class:`FTCConfig`.

    This is the single resolver behind ``Oracle.build``, the CLI, and the
    :class:`~repro.core.oracle.FTConnectivityOracle` shim.  Exactly one source
    of truth is expected:

    * ``config=FTCConfig(...)`` alone — returned as-is (the canonical shape);
    * loose parameters alone — ``max_faults`` (required), plus optional
      ``variant`` (enum or its string value), ``random_seed``, and any other
      :class:`FTCConfig` field as a keyword.

    Passing loose parameters *alongside* ``config`` raises ``TypeError``.
    """
    if config is not None:
        if not isinstance(config, FTCConfig):
            raise TypeError("config must be an FTCConfig, got %r"
                            % type(config).__name__)
        named = {"max_faults": max_faults, "variant": variant,
                 "random_seed": random_seed}
        loose = sorted(set(overrides).union(
            name for name, value in named.items() if value is not None))
        if loose:
            raise TypeError("pass config= or loose parameters, not both "
                            "(got config= with %s)" % ", ".join(loose))
        return config
    if max_faults is None:
        raise TypeError("either max_faults or config is required")
    if variant is not None and not isinstance(variant, SchemeVariant):
        variant = SchemeVariant(variant)
    fields = dict(overrides, max_faults=max_faults)
    if variant is not None:
        fields["variant"] = variant
    if random_seed is not None:
        fields["random_seed"] = random_seed
    return FTCConfig(**fields)
