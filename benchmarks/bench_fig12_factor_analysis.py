"""Fig 12: factor analysis of CDCS techniques at 64 apps and 4 apps.

Paper shape: at 64 apps capacity is scarce — latency-aware allocation (+L)
helps little while thread (+T) and data (+D) placement compound into +LTD;
at 4 apps capacity is plentiful — +L provides most of CDCS's gain.
"""

import pytest
from conftest import emit

from repro.experiments import format_table

N_MIXES = 25


@pytest.fixture(scope="module")
def ladders() -> dict:
    """App count -> FactorResult, filled by the module's one fig12 run."""
    return {}


def run(session, ladders, n_apps):
    """The ladder at *n_apps*.  One fig12 run returns both app counts, so
    the first test times it and the second reads its result."""
    if not ladders:
        ladders.update(session.run("fig12", mixes=N_MIXES, seed=42).result)
    return ladders[n_apps]


def test_fig12a_64_apps(once, session, ladders):
    result = once(run, session, ladders, 64)
    gmeans = result.gmeans()
    emit(format_table(
        ["Variant", "gmean WS"], list(gmeans.items()),
        title=f"Fig 12a: factor analysis, {N_MIXES} x 64-app mixes",
    ))
    assert gmeans["+LTD"] >= gmeans["+T"] - 1e-3
    assert gmeans["+LTD"] >= gmeans["+D"] - 1e-3
    assert gmeans["+LTD"] > gmeans["Jigsaw+R"]
    # Capacity-scarce: +L adds little by itself (paper Fig 12a).
    assert abs(gmeans["+L"] - gmeans["Jigsaw+R"]) < 0.05


def test_fig12b_4_apps(once, session, ladders):
    result = once(run, session, ladders, 4)
    gmeans = result.gmeans()
    emit(format_table(
        ["Variant", "gmean WS"], list(gmeans.items()),
        title=f"Fig 12b: factor analysis, {N_MIXES} x 4-app mixes",
    ))
    # Capacity-plentiful: latency-aware allocation carries the gain.
    assert gmeans["+L"] > gmeans["Jigsaw+R"] + 0.01
    assert gmeans["+LTD"] > gmeans["Jigsaw+R"]
