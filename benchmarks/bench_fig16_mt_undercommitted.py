"""Fig 16: under-committed multithreaded mixes — four 8-thread apps (32
threads on 64 cores) — plus the mgrid/md/ilbdc/nab case study.

Paper shape: CDCS increases its advantage over Jigsaw+C (more freedom to
place threads); in the case study CDCS spreads private-heavy mgrid across
the chip and tightly clusters the shared-heavy processes.
"""

from conftest import emit

from repro.config import default_config
from repro.nuca import SCHEMES
from repro.experiments import evaluate_mix, format_table
from repro.experiments.sweeps import SweepResult
from repro.model import AnalyticSystem
from repro.workloads import fig16_case_study_mix

N_MIXES = 30


def run_sweep_fig16(session):
    return session.run("fig16", mixes=N_MIXES, seed=42).result


def run_case_study_fig16b():
    config = default_config()
    system = AnalyticSystem(config)
    result = SweepResult(n_apps=4, n_mixes=1)
    evaluations = evaluate_mix(
        config, fig16_case_study_mix(), result, seed=1, system=system
    )
    return result, evaluations


def test_fig16a_undercommitted_mt(once, session):
    sweep = once(run_sweep_fig16, session)
    schemes = list(SCHEMES)
    rows = [(s, sweep.gmean_speedup(s), sweep.max_speedup(s)) for s in schemes]
    emit(format_table(
        ["Scheme", "gmean WS", "max WS"], rows,
        title=f"Fig 16a: WS over S-NUCA ({N_MIXES} x 4x8-thread mixes)",
    ))
    g = {s: sweep.gmean_speedup(s) for s in schemes}
    assert g["CDCS"] >= g["Jigsaw+C"]
    assert g["CDCS"] > g["R-NUCA"]


def test_fig16b_case_study(once):
    result, evaluations = once(run_case_study_fig16b)
    cdcs = evaluations["CDCS"]
    # mgrid (process 0) is private-heavy and intensive: spread out.
    # md/ilbdc/nab (1-3) are shared-heavy: tightly clustered (Fig 16b).
    by_process = {}
    topo_width = 8
    for t in cdcs.threads:
        by_process.setdefault(t.process_id, []).append(t.core)

    def spread(cores):
        xs = [c % topo_width for c in cores]
        ys = [c // topo_width for c in cores]
        cx, cy = sum(xs) / len(xs), sum(ys) / len(ys)
        return sum(abs(x - cx) + abs(y - cy) for x, y in zip(xs, ys)) / len(cores)

    mgrid_spread = spread(by_process[0])
    shared_spreads = [spread(by_process[p]) for p in (1, 2, 3)]
    emit(f"Fig 16b thread spread (mean |dist to centroid|): "
         f"mgrid={mgrid_spread:.2f}, shared-heavy="
         + ", ".join(f"{s:.2f}" for s in shared_spreads))
    assert mgrid_spread > min(shared_spreads)
