"""Fig 15: 50 mixes of eight 8-thread SPECOMP2012-like apps (64 threads).

Paper shape: trends reverse vs single-threaded mixes — Jigsaw works
*better* with clustered placement than random (J+C 19% vs J+R 14%), and
CDCS (21%) still leads by adapting per process; R-NUCA 9%.
"""

from conftest import emit

from repro.nuca import SCHEMES
from repro.experiments import format_breakdown, format_table

N_MIXES = 30


def run(session):
    return session.run("fig15", mixes=N_MIXES, seed=42).result


def test_fig15_multithreaded(once, session):
    sweep = once(run, session)
    schemes = list(SCHEMES)
    rows = [(s, sweep.gmean_speedup(s), sweep.max_speedup(s)) for s in schemes]
    emit(format_table(
        ["Scheme", "gmean WS", "max WS"], rows,
        title=f"Fig 15: WS over S-NUCA ({N_MIXES} x 8x8-thread mixes)",
    ))
    cdcs_traffic = sum(sweep.mean_traffic("CDCS").values())
    for s in ["S-NUCA"] + schemes:
        emit(format_breakdown(
            f"Fig 15b traffic/instr vs CDCS [{s}]",
            {k: v / cdcs_traffic for k, v in sweep.mean_traffic(s).items()},
        ))
    g = {s: sweep.gmean_speedup(s) for s in schemes}
    # The reversal: clustered beats random for multithreaded Jigsaw.
    assert g["Jigsaw+C"] > g["Jigsaw+R"]
    assert g["CDCS"] >= g["Jigsaw+C"] - 0.01  # CDCS matches/beats J+C
    assert g["CDCS"] > g["R-NUCA"]
