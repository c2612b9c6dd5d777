"""Write the NUCA-scheme goldens: ``tests/golden/schemes.json``.

Pins the VC sizes, bank allocations and thread cores of the five
standard schemes (S-NUCA, R-NUCA, Jigsaw+C, Jigsaw+R, CDCS) on the
golden fig11 mix (64 apps), fig15 mix 0 at seed 42 (8 apps of 8
threads) and a 16-app mix on a 4x4 chip, and the occupancies of the
seed-42 4-mix fig11 ``solve_sharing_plans`` call that
``benchmarks/bench_kernels.py`` times (512 lanes in 260 caches).  An
allocation lists each amount with the banks holding it, so S-NUCA's
uniform spreads stay short; floats are written in JSON's exact
round-trip form.

Run from the repository root, only when a change of decisions is
intended::

    PYTHONPATH=src python tools/golden_schemes.py
"""

from __future__ import annotations

from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "schemes.json"


def _solution_record(case: str, solution) -> dict:
    allocation = []
    for vc, per_bank in sorted(solution.vc_allocation.items()):
        banks_of: dict[float, list[int]] = {}
        for bank, amount in sorted(per_bank.items()):
            banks_of.setdefault(float(amount), []).append(int(bank))
        allocation.append([vc, [list(group) for group in banks_of.items()]])
    return {
        "case": case,
        "vc_sizes": [[vc, float(s)] for vc, s in sorted(solution.vc_sizes.items())],
        "allocation": allocation,
        "thread_cores": sorted([t, int(c)] for t, c in solution.thread_cores.items()),
    }


def scheme_records() -> list[dict]:
    """Every corpus record, in a fixed order."""
    from repro.config import default_config, small_test_config
    from repro.nuca import standard_schemes
    from repro.nuca.base import build_problem
    from repro.nuca.sharing import solve_sharing_plans
    from repro.testing import fig11_sharing_plans, golden_mix
    from repro.workloads.mixes import (
        random_multithreaded_mix,
        random_single_threaded_mix,
    )

    corpus = (
        ("fig11-mix0", golden_mix(), default_config()),
        ("fig15-mix0", random_multithreaded_mix(8, 42, 0), default_config()),
        ("mesh4-mix0", random_single_threaded_mix(16, 42, 0), small_test_config(4, 4)),
    )
    records = []
    for label, mix, config in corpus:
        # One problem per mix, shared by the five schemes as in a sweep.
        problem = build_problem(mix, config)
        for scheme in standard_schemes(0):
            solution = scheme.run(problem).solution
            records.append(_solution_record(f"{label}/{scheme.name}", solution))
    occupancies = solve_sharing_plans(fig11_sharing_plans())
    records.append({
        "case": "fig11-seed42-4mix-sharing",
        "occupancies": [occ.tolist() for occ in occupancies],
    })
    return records


def main() -> None:
    # Run as a script, tools/ is sys.path[0].
    from golden_placement import dump_records

    records = scheme_records()
    GOLDEN.write_text(dump_records(records))
    print(f"golden_schemes: wrote {len(records)} records to {GOLDEN}")


if __name__ == "__main__":
    main()
