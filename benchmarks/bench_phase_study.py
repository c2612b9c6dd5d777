"""Phase study: how the reconfiguration period interacts with phase length.

Fig 17/18-flavored dynamics on *phased* workloads: adaptive per-epoch
reconfiguration against a placement frozen at time zero.  The shape that
must hold: adapting helps (gain > 1 at the paper's period), and the gain
shrinks as the period grows past the phase lengths (a runtime that
re-solves slower than the workload changes is barely better than none).
"""

from conftest import emit

from repro.experiments import format_series, format_table

N_MIXES = 4


def run(session):
    return session.run("phase_study", mixes=N_MIXES, seed=42).result


def test_phase_study_period_vs_phase_length(once, session):
    study = once(run, session)
    periods = study.periods()
    emit(format_table(
        ["period (Mcyc)", "adaptive/stale IPC", "phase changes"],
        [(f"{p / 1e6:g}", study.mean_gain(p), study.mean_phase_changes(p))
         for p in periods],
        title=f"Phase study ({N_MIXES} phased mixes)",
    ))
    trace = study.trace(periods[0], mix_id=0)
    emit(format_series(
        "adaptive epoch IPC, shortest period (Mcycle, IPC)",
        [(t / 1e6, v) for t, v in trace[:: max(len(trace) // 15, 1)]],
        fmt="{:.2f}",
    ))
    gains = {p: study.mean_gain(p) for p in periods}
    # Reconfiguration pays against phased demand at every swept period...
    assert all(g > 1.0 for g in gains.values())
    # ...and pays *most* when the period is shortest relative to the
    # phases: the sweep's shortest period beats its longest.
    assert gains[periods[0]] > gains[periods[-1]]
    # The dynamics are real: phases actually changed during the runs.
    assert study.mean_phase_changes(periods[0]) >= 1.0
