"""Fig 14: 4-app mixes — weighted-speedup distribution and traffic.

Paper shape: CDCS 28% gmean, Jigsaw+R 17%, Jigsaw+C 6%; on-chip (L2-LLC)
traffic dominates Jigsaw's network latency at this occupancy because its
allocator hands out the whole (plentiful) LLC.
"""

from conftest import emit

from repro.nuca import SCHEMES
from repro.experiments import format_breakdown, format_table

N_MIXES = 30


def run(session):
    return session.run("fig14", mixes=N_MIXES, seed=42).result


def test_fig14_four_app_mixes(once, session):
    sweep = once(run, session)
    schemes = list(SCHEMES)
    rows = [(s, sweep.gmean_speedup(s), sweep.max_speedup(s)) for s in schemes]
    emit(format_table(
        ["Scheme", "gmean WS", "max WS"], rows,
        title=f"Fig 14: WS over S-NUCA ({N_MIXES} x 4-app mixes)",
    ))
    cdcs_traffic = sum(sweep.mean_traffic("CDCS").values())
    for s in ["S-NUCA"] + schemes:
        emit(format_breakdown(
            f"Fig 14 traffic/instr vs CDCS [{s}]",
            {k: v / cdcs_traffic for k, v in sweep.mean_traffic(s).items()},
        ))
    g = {s: sweep.gmean_speedup(s) for s in schemes}
    assert g["CDCS"] > g["Jigsaw+R"] > g["Jigsaw+C"]
    # Jigsaw's L2-LLC traffic exceeds CDCS's at low occupancy (over-sized,
    # far-flung VCs), while its LLC-Mem traffic is comparable.
    jig = sweep.mean_traffic("Jigsaw+R")
    cdcs = sweep.mean_traffic("CDCS")
    assert jig["L2-LLC"] > cdcs["L2-LLC"]
