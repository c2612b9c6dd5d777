"""Scalability sweep: CDCS from 16 to 256 tiles at fixed per-tile load.

Beyond-the-paper evidence: the paper stops at 64 tiles; this driver grows
the mesh to 4x that area and pins the scaling story — per-tile IPC and
mean hops stay within a modest band of the 64-tile point (co-scheduling
keeps data local as the chip grows), while the modeled epoch-solve
runtime grows superlinearly and overruns the 50 Mcycle reconfiguration
interval at 256 tiles: the runtime, not cache locality, is the first
scaling wall.  (PR 5's reconfiguration engine knocks that wall down —
``bench_solver_strategies.py`` measures the incremental/partitioned
strategies that keep 256-1024-tile meshes inside the interval; this
driver keeps pinning the single-shot ``full`` baseline.)
"""

from conftest import emit

from repro.experiments import format_table

TILES = (16, 64, 144, 256)
N_MIXES = 2


def run(session):
    return session.run(
        "scalability", tiles=TILES, mixes=N_MIXES, seed=42
    ).result


def test_scalability_sweep(once, session):
    result = once(run, session)
    emit(format_table(
        ["tiles", "apps", "IPC", "IPC/tile", "hops", "runtime Mcyc",
         "solve ms"],
        result.table_rows(),
        title=f"Scalability sweep ({N_MIXES} mixes/point, fully committed)",
    ))
    per_tile = {t: result.mean(t, "ipc_per_tile") for t in TILES}
    # Locality holds as the mesh grows: per-tile IPC at 256 tiles stays
    # within 25% of the 64-tile design point (measured ~93%), and mean
    # hops stay in the same sub-hop band instead of growing with the edge.
    assert per_tile[256] > 0.75 * per_tile[64]
    assert result.mean(256, "mean_hops") < 2.0 * result.mean(64, "mean_hops")
    # Aggregate throughput actually scales (more tiles, more retired work).
    assert result.mean(256, "aggregate_ipc") > 2.5 * result.mean(64, "aggregate_ipc")
    # Runtime: at 144 tiles the solve still fits the paper's 50 Mcycle
    # interval; at 256 it no longer does (~80 Mcycles measured) — the
    # single-core epoch solve, not cache locality, is what caps the mesh.
    # Pin both sides of that finding.
    assert result.mean(144, "model_mcycles") < 50.0
    assert 50.0 < result.mean(256, "model_mcycles") < 200.0
