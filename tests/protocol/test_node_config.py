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
        "adaptation_enabled": False,
        "overload_enabled": False,
    }
