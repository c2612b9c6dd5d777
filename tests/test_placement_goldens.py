"""Placement-step goldens: the CDCS steps' discrete outputs are frozen.

``tests/golden/placement_steps.json`` pins every VC size, optimistic
center, thread core, bank/byte allocation, trade count and per-step op
count of a fixed corpus: the golden fig11 problem; a cold and six warm
sketch-driven incremental epochs of a 64- and a 256-tile phased chip;
the eight Fig 12 policies and Jigsaw+C on the golden problem; a fig15
multithreaded mix whose warm epochs move shared VCs; and the split
strategies on a 16x16 mesh, with their strategy tags and modeled
cycles.  Trade refinement has no second implementation, so this file is
its oracle: a changed tie-break anywhere in the four steps fails here
with the case and field that moved.

Regenerate with ``PYTHONPATH=src python tools/golden_placement.py`` only
when a change of placement is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:  # tools/ is not a src/ package
    sys.path.insert(0, str(REPO))

from tools.golden_placement import GOLDEN, placement_records  # noqa: E402


@pytest.fixture(scope="module")
def records() -> list[dict]:
    return placement_records()


def test_corpus_matches_golden_file(records):
    golden = json.loads(GOLDEN.read_text())
    assert [r["case"] for r in records] == [g["case"] for g in golden]
    for got, want in zip(records, golden):
        for field in want:
            assert got[field] == want[field], f"{want['case']}: {field}"


def test_corpus_covers_warm_subset_solves(records):
    """The warm epochs really re-place a strict subset of the VCs."""
    warm = [
        r for r in records
        if "-epoch" in r["case"] and "epoch0" not in r["case"]
    ]
    assert len(warm) == 15
    placed = [len(r["centers"][0]) for r in warm if r["centers"]]
    sizes = [len(r["vc_sizes"]) for r in warm if r["centers"]]
    assert placed and all(0 < p < s for p, s in zip(placed, sizes))
    assert any(r["trades"] and r["trades"][0] > 0 for r in warm)
