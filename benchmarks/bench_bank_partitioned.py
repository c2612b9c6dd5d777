"""Sec IV-I / VI-C: CDCS on a bank-granularity NUCA (no fine partitioning).

With 4 x 128 KB banks per tile and whole-bank allocation, the paper reports
36% gmean WS (vs 46% with partitioned banks) on 64-app mixes — coarser
allocation costs performance but CDCS still works.
"""

from conftest import emit

from repro.config import default_config
from repro.experiments import format_table, reduce_sweep_records, sweep_jobs
from repro.util.units import kb

N_MIXES = 15


def run(session):
    fine = default_config()
    # 4 small banks/tile modeled as a 128 KB allocation quantum over the
    # same tile grid: data placement can only move whole small banks.
    from dataclasses import replace

    coarse = replace(
        fine.with_banks(kb(512), 4),
        scheduler=replace(fine.scheduler, allocation_quantum=kb(128)),
    )
    # The registry's sweeps run on the default chip only, so the driver
    # maps the public builder's jobs for both chips itself.
    return tuple(
        reduce_sweep_records(
            session.runner.map(sweep_jobs(config, 64, N_MIXES, seed=42)),
            64, N_MIXES,
        )
        for config in (fine, coarse)
    )


def test_bank_granularity_ablation(once, session):
    fine, coarse = once(run, session)
    rows = [
        ("partitioned (64 KB grain)", fine.gmean_speedup("CDCS"),
         fine.max_speedup("CDCS")),
        ("bank-granular (128 KB grain)", coarse.gmean_speedup("CDCS"),
         coarse.max_speedup("CDCS")),
    ]
    emit(format_table(
        ["CDCS variant", "gmean WS", "max WS"], rows,
        title="Bank-partitioned NUCA ablation (64-app mixes)",
    ))
    # Coarser allocation loses some gain but stays well above S-NUCA
    # (paper: 36% vs 46%).
    assert coarse.gmean_speedup("CDCS") > 1.1
    assert fine.gmean_speedup("CDCS") >= coarse.gmean_speedup("CDCS") - 0.02
