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
  epoch, then six warm ones, each simulated under its own placement;
* the golden problem under the eight Fig 12 policies (every subset of
  latency-aware allocation, thread placement and trades) through the
  ``Cdcs`` scheme, then Jigsaw+C, all on one problem object as the
  factor-analysis sweep runs them;
* one fig15 multithreaded mix (8 apps of 8 threads on the paper chip)
  through an incremental engine: one cold solve, then warm ones in which
  a shared VC's miss curve moves;
* a 64-app mix on a 16x16 mesh through ``partitioned`` (automatic and
  two regions) and ``hierarchical`` with 16-tile leaves, whose records
  also pin the strategy tag and ``modeled_cycles()``.

Each record holds only discrete values, so the file does not depend on
the numpy version: VC sizes, optimistic centers, thread cores, each VC's
banks and byte amounts (integer-valued by construction: quanta and bank
sizes are whole bytes), the trade count, and ``StepCounter.ops``; the
split solves add their strategy tag and ``modeled_cycles()``, op counts
times a fixed cycles-per-op.  An epoch whose engine reused the previous
placement has empty center and trade lists.  A policy that does not
place threads computes no optimistic placement (it only counts the
step's ops), so its record has an empty center list; every other solve
computes and records its own, since no memo outlives one call.

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

#: Epochs of the fig15 mix.  Epoch ``e > 0`` scales the miss curve of
#: shared VC ``e - 1`` (problem order) by :data:`SHARED_SCALE`, so every
#: warm epoch moves one shared VC and puts the previous one back.
FIG15_EPOCHS = 4
SHARED_SCALE = 1.5

#: (case suffix, strategy, kwargs) of the split solves on the 16x16 mesh.
SPLIT_SOLVES = (
    ("partitioned-auto", "partitioned", {}),
    ("partitioned-r2", "partitioned", {"regions": 2}),
    ("hierarchical-leaf16", "hierarchical", {"leaf_tiles": 16}),
)


def _whole(value: float) -> int:
    if not float(value).is_integer():
        raise ValueError(f"expected a whole number of bytes, got {value!r}")
    return int(value)


@contextmanager
def _recorded_steps(calls: dict[str, list]):
    """Record the optimistic centers and trade counts of every solve.

    Neither is part of a solve's result, so the two step functions are
    wrapped, for the duration, under the names the pipeline calls them
    by: ``place_optimistic`` in ``repro.sched.reconfigure`` and
    ``trade_refinement`` in its own module.
    """
    import importlib

    import repro.sched.refinement as refinement

    # The package re-exports the function under the module's name.
    reconfigure = importlib.import_module("repro.sched.reconfigure")
    place = reconfigure.place_optimistic
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

    reconfigure.place_optimistic = recorded_place
    refinement.trade_refinement = recorded_trade
    try:
        yield
    finally:
        reconfigure.place_optimistic = place
        refinement.trade_refinement = trade


@contextmanager
def _returns_of(owner, name: str, results: list):
    """Append every return value of ``owner.name`` to *results*."""
    function = getattr(owner, name)

    def recorded(*args, **kwargs):
        result = function(*args, **kwargs)
        results.append(result)
        return result

    setattr(owner, name, recorded)
    try:
        yield
    finally:
        setattr(owner, name, function)


def _scheme_solve(scheme, problem):
    """The ReconfigResult behind ``scheme.run(problem)``: ``Cdcs`` solves
    through its engine, ``Jigsaw`` through its module's ``reconfigure``."""
    import repro.nuca.jigsaw as jigsaw

    results: list = []
    engine = getattr(scheme, "engine", None)
    if engine is not None:
        owner, name = engine, "solve"
    else:
        owner, name = jigsaw, "reconfigure"
    with _returns_of(owner, name, results):
        scheme.run(problem)
    (result,) = results
    return result


def _solve_record(case: str, solve, modeled: bool = False) -> dict:
    """Run *solve* (-> ReconfigResult) and pin its discrete outputs;
    *modeled* adds the strategy tag and ``modeled_cycles()``."""
    calls: dict[str, list] = {"centers": [], "trades": []}
    with _recorded_steps(calls):
        result = solve()
    solution = result.solution
    extra = {}
    if modeled:
        extra = {
            "strategy": result.strategy,
            "modeled_cycles": result.modeled_cycles(),
        }
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
        **extra,
    }


def _fig15_problems():
    """The fig15 mix's problem per epoch (see :data:`FIG15_EPOCHS`)."""
    from repro.cache.miss_curve import MissCurve
    from repro.config import default_config
    from repro.nuca.base import build_problem
    from repro.workloads.mixes import random_multithreaded_mix

    mix = random_multithreaded_mix(8, 42, 0)
    for epoch in range(FIG15_EPOCHS):
        problem = build_problem(mix, default_config())
        if epoch:
            shared = [
                vc for vc in problem.vcs
                if len(problem.accessors_of(vc.vc_id)) > 1
            ]
            vc = shared[epoch - 1]
            vc.miss_curve = MissCurve(
                vc.miss_curve.sizes, vc.miss_curve.values * SHARED_SCALE
            )
        yield epoch, problem


def placement_records() -> list[dict]:
    """Every corpus record, in a fixed order."""
    from itertools import product

    from repro.config import small_test_config
    from repro.nuca.base import build_problem
    from repro.nuca.cdcs import factor_variant
    from repro.nuca.jigsaw import Jigsaw
    from repro.sched.engine import ReconfigEngine
    from repro.sched.reconfigure import reconfigure
    from repro.service.load import DEFAULT_EPOCH_MCYCLES, LoadSpec, build_chip
    from repro.testing import golden_problem
    from repro.workloads.mixes import random_single_threaded_mix

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

    problem = golden_problem()
    schemes = [factor_variant(*flags) for flags in product((False, True), repeat=3)]
    for scheme in schemes + [Jigsaw("clustered")]:
        records.append(_solve_record(
            f"scheme-{scheme.name}",
            lambda scheme=scheme: _scheme_solve(scheme, problem),
        ))

    engine = ReconfigEngine("incremental")
    for epoch, problem in _fig15_problems():
        records.append(_solve_record(
            f"fig15-mix0-epoch{epoch}",
            lambda problem=problem: engine.solve(problem),
        ))

    problem = build_problem(
        random_single_threaded_mix(64, 7, 3), small_test_config(16, 16)
    )
    for name, strategy, kwargs in SPLIT_SOLVES:
        engine = ReconfigEngine(strategy, **kwargs)
        records.append(_solve_record(
            f"mesh16-{name}", lambda engine=engine: engine.solve(problem),
            modeled=True,
        ))
    return records


def dump_records(records: list[dict]) -> str:
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
    GOLDEN.write_text(dump_records(records))
    print(f"golden_placement: wrote {len(records)} records to {GOLDEN}")


if __name__ == "__main__":
    main()
