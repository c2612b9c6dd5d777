"""Fig 11: 50 mixes of 64 SPECCPU2006-like apps on the 64-core CMP.

Panels and paper numbers to reproduce in *shape*:

  (a) weighted-speedup inverse CDF — gmeans: CDCS 1.46 (max 1.76),
      Jigsaw+R 1.38, Jigsaw+C 1.34, R-NUCA 1.18;
  (b) on-chip LLC network latency vs CDCS: S-NUCA 11x, J+C 2x, J+R 1.51x;
  (c) off-chip latency vs CDCS: S-NUCA +23%, R-NUCA +46%;
  (d) NoC traffic vs CDCS: S-NUCA ~3x;
  (e) energy/instr vs CDCS: S-NUCA ~1.3-1.4x (CDCS saves 36% of system
      energy over S-NUCA).
"""

from conftest import emit

from repro.nuca import SCHEMES
from repro.experiments import format_breakdown, format_table

N_MIXES = 50


def run(session):
    return session.run("fig11", mixes=N_MIXES, seed=42).result


def test_fig11_panels(once, session):
    sweep = once(run, session)
    schemes = list(SCHEMES)
    rows = [
        (s, sweep.gmean_speedup(s), sweep.max_speedup(s)) for s in schemes
    ]
    emit(format_table(["Scheme", "gmean WS", "max WS"], rows,
                      title=f"Fig 11a: weighted speedup over S-NUCA "
                            f"({N_MIXES} x 64-app mixes)"))
    cdf = sweep.speedup_cdf("CDCS")
    emit(f"Fig 11a CDCS inverse-CDF deciles: "
         + ", ".join(f"{v:.2f}" for v in cdf[:: max(len(cdf) // 10, 1)]))

    cdcs_onchip = sweep.mean_onchip("CDCS")
    cdcs_offchip = sweep.mean_offchip("CDCS")
    lat_rows = [
        (
            s,
            sweep.mean_onchip(s) / cdcs_onchip,
            sweep.mean_offchip(s) / cdcs_offchip,
        )
        for s in ["S-NUCA"] + schemes
    ]
    emit(format_table(
        ["Scheme", "on-chip vs CDCS", "off-chip vs CDCS"], lat_rows,
        title="Fig 11b/c: LLC network + off-chip latency normalized to CDCS",
    ))

    cdcs_traffic = sum(sweep.mean_traffic("CDCS").values())
    for s in ["S-NUCA"] + schemes:
        t = sweep.mean_traffic(s)
        emit(format_breakdown(
            f"Fig 11d traffic/instr vs CDCS [{s}]",
            {k: v / cdcs_traffic for k, v in t.items()},
        ))

    cdcs_energy = sum(sweep.mean_energy("CDCS").values())
    for s in ["S-NUCA"] + schemes:
        e = sweep.mean_energy(s)
        emit(format_breakdown(
            f"Fig 11e energy/instr vs CDCS [{s}]",
            {k: v / cdcs_energy for k, v in e.items()},
        ))

    # Shape assertions (paper's orderings).
    g = {s: sweep.gmean_speedup(s) for s in schemes}
    assert g["CDCS"] > g["Jigsaw+R"] > g["Jigsaw+C"] > g["R-NUCA"] > 1.0
    snuca_onchip = sweep.mean_onchip("S-NUCA")
    assert snuca_onchip / cdcs_onchip > 5.0  # paper: 11x
    assert sweep.mean_offchip("R-NUCA") / cdcs_offchip > 1.2  # paper: 1.46x
    snuca_traffic = sum(sweep.mean_traffic("S-NUCA").values())
    assert snuca_traffic / cdcs_traffic > 2.0  # paper: ~3x
    snuca_energy = sum(sweep.mean_energy("S-NUCA").values())
    assert snuca_energy / cdcs_energy > 1.15  # paper: ~1.56x (36% savings)
