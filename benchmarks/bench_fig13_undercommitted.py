"""Fig 13: under-committed systems — 1 to 64 single-threaded apps.

Paper shape: CDCS maintains high weighted speedups across the whole range
(28% gmean at 4 apps); Jigsaw+C works poorly on 1-8 app mixes (6% at
4 apps) and Jigsaw+R sits in between (17% at 4 apps).
"""

from conftest import emit

from repro.nuca import SCHEMES
from repro.experiments import format_table

N_MIXES = 15


def run(session):
    """Occupancy -> sweep, over the spec's ``FIG13_APP_COUNTS``."""
    return session.run("fig13", mixes=N_MIXES, seed=42).result


def test_fig13_undercommitted(once, session):
    sweeps = once(run, session)
    schemes = list(SCHEMES)
    rows = []
    for n_apps, sweep in sweeps.items():
        rows.append(
            (f"{n_apps} apps", *(sweep.gmean_speedup(s) for s in schemes))
        )
    emit(format_table(
        ["Mix size"] + schemes, rows,
        title=f"Fig 13: gmean WS vs occupancy ({N_MIXES} mixes/point)",
    ))
    # CDCS leads everywhere; Jigsaw+C is weakest among partitioned schemes
    # at low occupancy (paper Sec VI-A).
    for n_apps, sweep in sweeps.items():
        assert sweep.gmean_speedup("CDCS") >= sweep.gmean_speedup("Jigsaw+R") - 0.02
    four = sweeps[4]
    assert four.gmean_speedup("CDCS") > four.gmean_speedup("Jigsaw+C") + 0.03
    assert four.gmean_speedup("Jigsaw+R") > four.gmean_speedup("Jigsaw+C")
