"""Write the placement-step goldens: ``tests/golden/placement_steps.json``.

Pins the discrete outputs and op counts of the four CDCS steps (Sec IV-C
to IV-F) over a fixed corpus, so that a change to any step's selection
logic shows as a diff.  Trade refinement has no second implementation to
compare against; this file is its oracle.

The corpus:

* the golden fig11 problem (64 apps on the 64-tile paper chip), solved
  cold by the full pipeline;
* one phased ``repro.service.load.build_chip`` chip at 64 and at 256
  tiles, driven through a sketch-driven incremental engine: one cold
  epoch, then six warm ones, each simulated under its own placement.

Each record holds only discrete values, so the file does not depend on
the numpy version: VC sizes, optimistic centers, thread cores, each VC's
banks and byte amounts (integer-valued by construction: quanta and bank
sizes are whole bytes), the trade count, and ``StepCounter.ops``.  An
epoch whose engine reused the previous placement has empty center and
trade lists.

Run from the repository root, only when a change of placement is
intended::

    PYTHONPATH=src python tools/golden_placement.py

``tests/test_placement_goldens.py`` asserts ``==`` against the file.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "tests" / "golden" / "placement_steps.json"
)

#: (tiles, seed) of the warm-epoch chips, and the epochs each runs.
CHIPS = ((64, 42), (256, 42))
EPOCHS = 7


def _whole(value: float) -> int:
    if not float(value).is_integer():
        raise ValueError(f"expected a whole number of bytes, got {value!r}")
    return int(value)


@contextmanager
def _recorded_steps(calls: dict[str, list]):
    """Record the optimistic centers and trade counts of every solve.

    Neither is part of a solve's result, so the two step functions are
    wrapped in their own modules for the duration; the full and the
    incremental solve reach them through those module globals.
    """
    import repro.sched.refinement as refinement
    import repro.sched.vc_placement as vc_placement

    place = vc_placement.place_optimistic_vectorized
    trade = refinement.trade_refinement

    def recorded_place(*args, **kwargs):
        placement = place(*args, **kwargs)
        calls["centers"].append(
            [[vc, int(bank)] for vc, bank in sorted(placement.centers.items())]
        )
        return placement

    def recorded_trade(*args, **kwargs):
        trades = trade(*args, **kwargs)
        calls["trades"].append(trades)
        return trades

    vc_placement.place_optimistic_vectorized = recorded_place
    refinement.trade_refinement = recorded_trade
    try:
        yield
    finally:
        vc_placement.place_optimistic_vectorized = place
        refinement.trade_refinement = trade


def _solve_record(case: str, solve) -> dict:
    """Run *solve* (-> ReconfigResult) and pin its discrete outputs."""
    calls: dict[str, list] = {"centers": [], "trades": []}
    with _recorded_steps(calls):
        result = solve()
    solution = result.solution
    return {
        "case": case,
        "vc_sizes": [
            [vc, _whole(size)] for vc, size in sorted(solution.vc_sizes.items())
        ],
        "centers": calls["centers"],
        "thread_cores": sorted(
            [thread, int(core)] for thread, core in solution.thread_cores.items()
        ),
        "allocation": [
            [vc, [[int(bank), _whole(amount)]
                  for bank, amount in sorted(per_bank.items())]]
            for vc, per_bank in sorted(solution.vc_allocation.items())
        ],
        "trades": calls["trades"],
        "ops": dict(sorted(result.counter.ops.items())),
    }


def placement_records() -> list[dict]:
    """Every corpus record, in a fixed order."""
    from repro.sched.engine import ReconfigEngine
    from repro.sched.reconfigure import reconfigure
    from repro.service.load import DEFAULT_EPOCH_MCYCLES, LoadSpec, build_chip
    from repro.testing import golden_problem

    problem = golden_problem()
    records = [_solve_record("fig11-mix0", lambda: reconfigure(problem))]
    for tiles, seed in CHIPS:
        _, sim = build_chip(LoadSpec(chips=1, tiles=tiles, seed=seed), 0)
        engine = ReconfigEngine("incremental", use_sketches=True)
        for epoch in range(EPOCHS):
            problem = sim.current_problem()
            record = _solve_record(
                f"chip-{tiles}t-epoch{epoch}",
                lambda problem=problem: engine.solve(problem),
            )
            records.append(record)
            sim.run_epoch(engine.last_solution(), DEFAULT_EPOCH_MCYCLES * 1e6)
    return records


def _dump(records: list[dict]) -> str:
    """One line per record field: diffs point at the step that moved."""
    rows = [
        "{\n  " + ",\n  ".join(
            f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
            for key, value in record.items()
        ) + "\n }"
        for record in records
    ]
    return "[\n " + ",\n ".join(rows) + "\n]\n"


def main() -> None:
    records = placement_records()
    GOLDEN.write_text(_dump(records))
    print(f"golden_placement: wrote {len(records)} records to {GOLDEN}")


if __name__ == "__main__":
    main()
