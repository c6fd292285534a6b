"""NodeConfig holds only the settings some caller turns.

Every other protocol value is a module constant next to the code that
decides it, so a new field must come with a caller that needs a value
other than the default.
"""

import dataclasses

from repro.protocol import NodeConfig


def test_fields_are_the_settings_callers_turn():
    assert {f.name: f.default for f in dataclasses.fields(NodeConfig)} == {
        "dual_peer": True,
        "join_retry_jitter": 0.25,
        "stat_interval": 10.0,
        "adaptation_enabled": False,
        "adaptation_interval": 15.0,
        "claim_witness_enabled": True,
        "shortcut_cache_size": 32,
        "reliable_enabled": True,
        "perimeter_probe_enabled": True,
        "sub_renew_interval": 30.0,
        "overload_enabled": False,
    }
