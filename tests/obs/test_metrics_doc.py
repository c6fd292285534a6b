"""Every emitted metric name must be documented in METRICS.md.

The scanner finds name literals at the emission call sites
(``obs.inc/observe/set_gauge``, ``registry.inc/observe/set_gauge`` and
the SLO registration in ``_slo_start``), normalizes f-string segments to
``<*>``, and asserts each appears in the reference table.  This keeps
METRICS.md enforced-complete: adding a metric without documenting it
fails here.
"""

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src"
DOC = REPO / "METRICS.md"

#: Name literal as the first argument of an emission call, possibly on
#: the following line (black-style wrapping).
EMIT = re.compile(
    r'(?:\bobs|\bregistry)\.(?:inc|observe|set_gauge)\(\s*(f?)"([^"]+)"',
    re.S,
)
#: SLO names are registered through the node's _slo_start helper.
SLO = re.compile(r'_slo_start\(\s*[^,]+,\s*"([^"]+)"')


def emitted_names():
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for is_f, name in EMIT.findall(text):
            if is_f:
                name = re.sub(r"\{[^}]*\}", "<*>", name)
            names.add(name)
        names.update(SLO.findall(text))
    return names


def test_scanner_sees_the_metric_surface():
    names = emitted_names()
    # Guard against the scanner itself silently breaking: a few
    # long-standing names from different layers must be found.
    assert "sim.transport.sent" in names
    assert "routing.route.hops" in names
    assert "slo.store.update_commit" in names
    assert "slo.route.completion" in names
    assert len(names) > 50


def test_every_emitted_name_is_documented():
    doc = DOC.read_text()
    documented = set(re.findall(r"`([a-z][a-z0-9_.<>*]+)`", doc))
    missing = sorted(
        name for name in emitted_names() if name not in documented
    )
    assert not missing, (
        "metric names emitted in src/ but absent from METRICS.md: "
        f"{missing}"
    )
