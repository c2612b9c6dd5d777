"""Write the sketch-telemetry golden: ``tests/golden/sketch_deltas.json``.

Pins what the delta-telemetry path computes from a stream of problem
pairs: both ``IncrementalSolve`` dirty detectors, ``build_delta``, and
the per-pair sketch deltas. The stream is twelve consecutive snapshots
of one phased 64-tile ``repro.service.load.build_chip`` chip, each
simulated for one epoch under its own full-pipeline placement. Each of
the eleven consecutive pairs is taken three ways:

* ``shared``: as the engine returned them, so ``changed_records`` can
  diff the pair by record identity;
* ``unshared``: record-by-record copies, each on an equal config object
  of its own, which no identity diff can pair up;
* ``reversed``: the current problem with its VC list reversed, so the
  detectors must match VCs by id, and ``build_delta`` declines.

One more pair puts the last snapshot on a chip with twice the bank
size (another LLC size, so another sketch grid).

Each record holds, per pair: both detectors' dirty ids (sorted) at
:data:`THRESHOLDS`; ``build_delta`` at thresholds 0.0 and -1.0 (``None``,
or its base digest, shipped sketch ids, dirty-curve ids, dirty-rate maps
and cluster keys, each in the delta's order); and, on a shared LLC, the
sketch delta of every id-matched VC pair on the chip's grid, as
``float.hex``.

Run from the repository root, only when a change of these outputs is
intended::

    PYTHONPATH=src python tools/golden_sketch_deltas.py

``tests/test_sketch_delta_goldens.py`` asserts ``==`` against the file.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "tests" / "golden" / "sketch_deltas.json"
)

#: Snapshots of the chip; consecutive ones form the pairs.
SNAPSHOTS = 12

#: Dirty thresholds both detectors run at.
THRESHOLDS = (0.001, 0.01, 0.05, 0.2)

#: ``build_delta`` thresholds: the default, and the one that diffs all.
DELTA_THRESHOLDS = (0.0, -1.0)


def _snapshots() -> list:
    from repro.sched.reconfigure import ReconfigPolicy, reconfigure
    from repro.service.load import LoadSpec, build_chip

    spec = LoadSpec(chips=1, tiles=64, seed=5)
    _, sim = build_chip(spec, 0)
    problems = []
    for _ in range(SNAPSHOTS):
        problem = sim.current_problem()
        problems.append(problem)
        sim.run_epoch(
            reconfigure(problem, ReconfigPolicy()).solution,
            spec.epoch_mcycles * 1e6,
        )
    return problems


def _unshared(problem):
    from dataclasses import replace

    return replace(
        problem,
        config=replace(problem.config),
        vcs=[replace(vc) for vc in problem.vcs],
        threads=[replace(thread) for thread in problem.threads],
    )


def _pairs() -> list[tuple[str, object, object]]:
    """``(name, prev, problem)`` for every pair the golden pins."""
    from dataclasses import replace

    problems = _snapshots()
    pairs = []
    for index, (prev, problem) in enumerate(zip(problems, problems[1:])):
        pairs.append((f"{index}-shared", prev, problem))
        pairs.append((f"{index}-unshared", _unshared(prev), _unshared(problem)))
        pairs.append((
            f"{index}-reversed", prev,
            replace(problem, vcs=list(reversed(problem.vcs))),
        ))
    prev, problem = problems[-2], problems[-1]
    cache = problem.config.cache
    bigger = problem.config.with_banks(
        2 * cache.bank_bytes, cache.partitions_per_bank
    )
    pairs.append(("llc-doubled", prev, replace(problem, config=bigger)))
    return pairs


def _delta_record(delta) -> dict | None:
    if delta is None:
        return None
    return {
        "base_digest": delta.base_digest,
        "sketches": list(delta.sketches),
        "dirty_curves": list(delta.dirty_curves),
        "dirty_rates": [
            [vc_id, [[tid, float(rate).hex()] for tid, rate in rates.items()]]
            for vc_id, rates in delta.dirty_rates.items()
        ],
        "dirty_clusters": [
            [tid, key] for tid, key in delta.dirty_clusters.items()
        ],
    }


def _pair_record(prev, problem) -> dict:
    from repro.cache.sketch import DEFAULT_SKETCH_BYTES, MissCurveSketch
    from repro.sched.engine import IncrementalSolve
    from repro.service.messages import build_delta

    record = {
        "exact": [], "sketch": [],
        "delta": [
            _delta_record(build_delta(prev, problem, "golden", dirty_threshold=t))
            for t in DELTA_THRESHOLDS
        ],
        "sketch_deltas": None,
    }
    for threshold in THRESHOLDS:
        exact = IncrementalSolve(dirty_threshold=threshold)
        sketch = IncrementalSolve(dirty_threshold=threshold, use_sketches=True)
        record["exact"].append(sorted(exact.dirty_vcs(prev, problem)))
        record["sketch"].append(
            sorted(sketch.dirty_vcs_from_sketches(prev, problem))
        )
    if float(prev.total_bytes) == float(problem.total_bytes):
        grid_max = float(problem.total_bytes)
        old = {vc.vc_id: vc for vc in prev.vcs}
        record["sketch_deltas"] = [
            [
                vc.vc_id,
                MissCurveSketch.from_curve(
                    vc.miss_curve, DEFAULT_SKETCH_BYTES, grid_max
                ).delta(MissCurveSketch.from_curve(
                    old[vc.vc_id].miss_curve, DEFAULT_SKETCH_BYTES, grid_max
                )).hex(),
            ]
            for vc in problem.vcs
            if vc.vc_id in old
        ]
    return record


def sketch_delta_records() -> dict[str, dict]:
    """Pair name -> its record (see the module docstring)."""
    return {name: _pair_record(prev, problem) for name, prev, problem in _pairs()}


def main() -> None:
    records = sketch_delta_records()
    # One line per pair, so a changed pair shows as one changed line.
    lines = [
        f" {json.dumps(name)}: {json.dumps(records[name], sort_keys=True)}"
        for name in sorted(records)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"golden_sketch_deltas: wrote {len(records)} pair records to {GOLDEN}")


if __name__ == "__main__":
    main()
