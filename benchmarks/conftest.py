"""Shared helpers for the benchmark/regeneration harness.

Every benchmark regenerates one of the paper's figures at full paper scale
(populations up to 16 000 nodes), prints the paper-style table, and writes
it to ``results/<figure>.txt`` so EXPERIMENTS.md can reference the exact
rows produced on this machine.

Knobs (environment variables):

* ``GEOGRID_TRIALS``   -- trials per configuration (default 3; the paper
  used 100, which is impractical per run in Python).
* ``GEOGRID_BENCH_SCALE=reduced`` -- cap populations at 4 000 for a quick
  smoke run of the whole harness.
"""

import os
import pathlib

import pytest

from repro.core.query import reset_query_ids
from repro.core.region import reset_region_ids
from repro.experiments import ExperimentConfig, PAPER_POPULATIONS
from repro.protocol.node import reset_request_ids

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def bench_populations():
    """The populations to sweep (paper scale unless reduced)."""
    if os.environ.get("GEOGRID_BENCH_SCALE") == "reduced":
        return tuple(p for p in PAPER_POPULATIONS if p <= 4_000)
    return PAPER_POPULATIONS


@pytest.fixture(autouse=True)
def _fresh_id_counters():
    """Rewind the module-level id counters before every benchmark.

    Region, query and request ids come from process-wide counters, and
    ids order tie-breaks; without this reset a benchmark's rows depend
    on what ran earlier in the same pytest process (the same reset as
    ``tests/conftest.py``).
    """
    reset_query_ids()
    reset_region_ids()
    reset_request_ids()


@pytest.fixture(scope="session")
def bench_config():
    """One experiment configuration for the whole benchmark session."""
    return ExperimentConfig()


@pytest.fixture(scope="session")
def save_report():
    """Write a figure's regenerated table under results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print()
        print(text)
        print(f"[saved to {path}]")

    return _save
