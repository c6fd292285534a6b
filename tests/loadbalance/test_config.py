"""Tests for repro.loadbalance.config -- every field is range-checked."""

import pytest

from repro.errors import ConfigurationError
from repro.loadbalance import AdaptationConfig


@pytest.mark.parametrize(
    "field, value",
    [
        ("trigger_ratio", 0.9),
        ("min_index", -1.0),
        ("improvement_margin", 0.0),
        ("improvement_margin", 1.5),
        ("split_capacity_ratio", 0.0),
        ("search_ttl", 0),
        ("cooldown_rounds", -1),
        ("replication_fraction", -0.1),
        ("replication_fraction", 1.5),
        ("max_adaptations_per_round", 0),
    ],
)
def test_out_of_range_field_is_a_configuration_error(field, value):
    with pytest.raises(ConfigurationError, match=field):
        AdaptationConfig(**{field: value})
