"""Scheme goldens: what the five standard schemes decide is frozen.

``tests/golden/schemes.json`` (see ``tools/golden_schemes.py``) pins the
standard schemes' solutions on three mixes and one merged sharing call's
occupancies.  Integers, cores and bank keys compare with ``==``; floats
within ``EQUIV_RTOL``, because the profiles' miss curves come from
``np.power``, whose last bit differs between hosts (same-host exactness
is what the oracle suites check, bitwise).

The file ends with the fig12 and table1 job payloads, which pin the
paths that solve and score several schemes per mix.  They compare
``==``, bitwise, as the equivalence suites do, so they hold on hosts
whose ``np.power`` rounds as the writing host's did; elsewhere they fail
where the solution records still pass within ``EQUIV_RTOL``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from oracles import EQUIV_RTOL

REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:  # tools/ is not a src/ package
    sys.path.insert(0, str(REPO))

from tools.golden_schemes import (  # noqa: E402
    GOLDEN,
    payload_records,
    scheme_records,
)


def split(record: dict) -> tuple[list, list[float]]:
    """(the discrete part, the floats) of a record."""
    if "occupancies" in record:
        occupancies = record["occupancies"]
        return [len(o) for o in occupancies], [x for o in occupancies for x in o]
    allocation = record["allocation"]
    keys = [
        record["thread_cores"],
        [vc for vc, _ in record["vc_sizes"]],
        [[vc, [banks for _, banks in groups]] for vc, groups in allocation],
    ]
    floats = [size for _, size in record["vc_sizes"]]
    floats += [amount for _, groups in allocation for amount, _ in groups]
    return keys, floats


@pytest.fixture(scope="module")
def records() -> list[dict]:
    return scheme_records()


def test_schemes_match_golden_file(records):
    golden = json.loads(GOLDEN.read_text())[:len(records)]
    assert [r["case"] for r in records] == [g["case"] for g in golden]
    for got, want in zip(records, golden):
        got_keys, got_floats = split(got)
        want_keys, want_floats = split(want)
        assert got_keys == want_keys, want["case"]
        assert got_floats == pytest.approx(want_floats, rel=EQUIV_RTOL, abs=0.0), (
            want["case"]
        )


def test_corpus_covers_every_scheme_and_the_merged_call(records):
    cases = {r["case"].split("/")[1] for r in records[:-1]}
    assert cases == {"S-NUCA", "R-NUCA", "Jigsaw+C", "Jigsaw+R", "CDCS"}
    # R-NUCA spreads each fig15 process's shared VC over all 64 banks.
    fig15 = next(r for r in records if r["case"] == "fig15-mix0/R-NUCA")
    assert any(len(groups[0][1]) == 64 for _, groups in fig15["allocation"])
    assert sum(split(records[-1])[0]) == 512


def test_payloads_match_golden_file(records):
    golden = json.loads(GOLDEN.read_text())[len(records):]
    got = payload_records()
    assert [r["case"] for r in got] == [g["case"] for g in golden]
    for record, want in zip(got, golden):
        assert record == want, want["case"]
