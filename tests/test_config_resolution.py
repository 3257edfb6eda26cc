"""Direct coverage of :func:`repro.core.config.resolve_ftc_config`.

The resolver is the single normalization point behind ``Oracle.build``, the
CLI, and the :class:`~repro.core.oracle.FTConnectivityOracle` shim.  These
tests pin its contract down at the source: exactly one of ``config=`` or
loose parameters, and loose parameters passed *alongside* ``config=`` —
agreeing, disagreeing, or typo'd — raise ``TypeError``.
"""

import warnings

import pytest

from repro.core.config import FTCConfig, SchemeVariant, resolve_ftc_config
from repro.hierarchy.config import ThresholdRule


# ----------------------------------------------------------- canonical paths

def test_config_alone_is_returned_as_is():
    config = FTCConfig(max_faults=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no deprecation on the canonical shape
        assert resolve_ftc_config(config=config) is config


def test_loose_parameters_build_a_config():
    config = resolve_ftc_config(max_faults=2, variant="rand-full", random_seed=9,
                                threshold_rule=ThresholdRule.PRACTICAL)
    assert config == FTCConfig(max_faults=2, variant=SchemeVariant.RANDOMIZED_FULL,
                               random_seed=9,
                               threshold_rule=ThresholdRule.PRACTICAL)


def test_variant_accepts_the_enum_and_its_value():
    by_enum = resolve_ftc_config(max_faults=1, variant=SchemeVariant.SKETCH_WHP)
    by_value = resolve_ftc_config(max_faults=1, variant="sketch-whp")
    assert by_enum == by_value
    with pytest.raises(ValueError):
        resolve_ftc_config(max_faults=1, variant="not-a-scheme")


def test_neither_source_is_a_type_error():
    with pytest.raises(TypeError, match="either max_faults or config"):
        resolve_ftc_config()


def test_config_must_be_an_ftcconfig():
    with pytest.raises(TypeError, match="must be an FTCConfig"):
        resolve_ftc_config(config={"max_faults": 2})


# ------------------------------------ config= plus loose parameters is refused

@pytest.mark.parametrize("loose", [
    {"max_faults": 2},
    {"adaptive_decoding": False},
], ids=["agreeing-max-faults", "agreeing-field-override"])
def test_loose_parameters_alongside_config_raise(loose):
    config = FTCConfig(max_faults=2, adaptive_decoding=False)
    with pytest.raises(TypeError, match="not both") as excinfo:
        resolve_ftc_config(config=config, **loose)
    for name in loose:  # the message names every offending parameter
        assert name in str(excinfo.value)


def test_warning_names_every_redundant_parameter():
    """Agreeing loose parameters are refused outright — no deprecation
    warning any more — and the error names each of them."""
    config = FTCConfig(max_faults=2, random_seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would fail the test
        with pytest.raises(TypeError,
                           match=r"got config= with max_faults, random_seed"):
            resolve_ftc_config(max_faults=2, config=config, random_seed=5)


def test_disagreeing_max_faults_raises():
    config = FTCConfig(max_faults=2)
    with pytest.raises(TypeError, match=r"not both \(got config= with max_faults\)"):
        resolve_ftc_config(max_faults=3, config=config)


def test_disagreeing_variant_and_seed_list_every_field():
    config = FTCConfig(max_faults=2, random_seed=1)
    with pytest.raises(TypeError) as excinfo:
        resolve_ftc_config(config=config, variant="rand-full", random_seed=4)
    message = str(excinfo.value)
    assert "random_seed" in message
    assert "variant" in message


def test_unknown_field_alongside_config_is_a_type_error():
    config = FTCConfig(max_faults=2)
    with pytest.raises(TypeError, match="max_fautls"):
        resolve_ftc_config(config=config, max_fautls=2)  # the typo'd keyword


def test_oracle_shim_still_routes_through_the_resolver():
    """The legacy FTConnectivityOracle(graph, max_faults, config=...) shape
    reaches the same TypeError (end-to-end check of the shim)."""
    from repro.core.oracle import FTConnectivityOracle
    from repro.graphs.graph import Graph

    graph = Graph([("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(TypeError, match="not both"):
        FTConnectivityOracle(graph, 1, config=FTCConfig(max_faults=1))
