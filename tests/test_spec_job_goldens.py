"""Spec job goldens: every registered spec builds the same jobs.

``tests/golden/spec_jobs.json`` (see ``tools/golden_spec_jobs.py``)
pins, per spec at its default parameters, the ordered identities of the
jobs it builds.  A job's digest keys the result cache and seeds the
job's global RNGs, so a moved kwarg, a renamed job body or a reordered
fan-out (fig12's and fig13's reducers chunk by position) changes the
numbers a spec reports; this catches it before any job runs.

Some kwargs hold miss curves whose floats come from ``np.power`` (the
gmon spec's profile), so, like the scheme goldens' payloads, the pin
holds on hosts whose ``np.power`` rounds as the writing host's did.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:  # tools/ is not a src/ package
    sys.path.insert(0, str(REPO))

from tools.golden_spec_jobs import GOLDEN, spec_job_digests  # noqa: E402


def test_spec_jobs_match_golden_file():
    assert spec_job_digests() == json.loads(GOLDEN.read_text())
