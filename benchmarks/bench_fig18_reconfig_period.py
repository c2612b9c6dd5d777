"""Fig 18: weighted speedup vs reconfiguration period per movement scheme.

Paper shape: CDCS (background invalidations) outperforms bulk
invalidations, and the gap narrows as the reconfiguration interval grows
from 10 Mcycles to 100 Mcycles.
"""

from conftest import emit

from repro.experiments import format_table

#: Steady-state CDCS WS over S-NUCA at 64 apps (paper: 1.46; our Fig 11a
#: bench reproduces ~1.5 — the Fig 18 shape only needs a positive level).
STEADY_WS = 1.46


def run(session):
    return session.run("fig18", steady_ws=STEADY_WS, seed=5).result


def test_fig18_period_sweep(once, session):
    result = once(run, session)
    emit(
        "Fig18 per-reconfiguration penalty (equivalent lost cycles): "
        + ", ".join(f"{k}={v:,.0f}" for k, v in result.penalties.items())
    )
    rows = []
    for period, by_proto in sorted(result.speedups.items()):
        rows.append(
            (
                f"{period // 1_000_000}M",
                by_proto["bulk-inv"],
                by_proto["background-inv"],
                by_proto["instant"],
            )
        )
    emit(format_table(
        ["Period", "Bulk invs", "Background invs", "Instant moves"], rows,
        title="Fig 18: WS vs reconfiguration period",
    ))
    for period, by_proto in result.speedups.items():
        assert by_proto["instant"] >= by_proto["background-inv"] - 1e-9
        assert by_proto["background-inv"] >= by_proto["bulk-inv"] - 1e-9
    periods = sorted(result.speedups)
    gap_small = (
        result.speedups[periods[0]]["instant"]
        - result.speedups[periods[0]]["bulk-inv"]
    )
    gap_large = (
        result.speedups[periods[-1]]["instant"]
        - result.speedups[periods[-1]]["bulk-inv"]
    )
    assert gap_large <= gap_small + 1e-9  # differences diminish (Fig 18)
