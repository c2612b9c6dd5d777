"""Sketch-telemetry goldens: the delta path computes what it computed.

``tests/golden/sketch_deltas.json`` (see ``tools/golden_sketch_deltas.py``)
pins, over a phased chip's consecutive problem pairs, both dirty
detectors' sets, ``build_delta``'s payload ids and rates, and every
id-matched pair's sketch delta. Each pair appears as the engine returned
it (diffed by record identity), as unshared copies and with its VC list
reversed (matched by id), and once on another LLC size, so the file
holds the diffable and the id-matched paths to the same outputs.

The problems come from the epoch simulator, so, like the other
goldens, the pin holds on hosts whose ``np.power`` rounds as the
writing host's did.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:  # tools/ is not a src/ package
    sys.path.insert(0, str(REPO))

from tools.golden_sketch_deltas import GOLDEN, sketch_delta_records  # noqa: E402


def test_sketch_deltas_match_golden_file():
    assert sketch_delta_records() == json.loads(GOLDEN.read_text())
