"""The unified experiment API: registry, Session, typed export.

Runs two registered experiments — the Fig 14 sweep and the GMON/UMON
monitor comparison — as ONE batched job fan-out through a shared
`repro.api.Session`, then shows the three faces of the typed result:

* the classic fixed-width tables (`render(record, "table")`),
* machine-readable JSON (what `python -m repro run fig14 --format json`
  prints),
* the rich result object on `record.result`.

Sweep-shaped, so it takes the runner flags: `--mixes N` (default 2),
`--jobs N`, `--cache-dir DIR` — rerun with a warm cache and the batch
executes zero jobs.

Run from the repo root:  PYTHONPATH=src python examples/session_and_export.py
"""

from __future__ import annotations

import argparse
import json

from repro.api import Session
from repro.experiments.results import RunRecord, render
from repro.experiments.spec import all_specs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mixes", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()

    print("The registry knows every experiment:")
    for spec in all_specs():
        print(f"  {spec.name:12s} {spec.figure}: {spec.summary}")

    session = Session(jobs=args.jobs, cache_dir=args.cache_dir)
    fig14, gmon = session.run_batch([
        ("fig14", {"mixes": args.mixes}),
        ("gmon", {}),
    ])
    print(f"\nBatch ran as one fan-out: {session.stats.summary()}\n")

    print(render(fig14, "table"))
    print()
    print(render(gmon, "table"))

    # The JSON face round-trips losslessly: this is the wire format
    # external tooling consumes (`--format json` on the CLI).
    wire = json.loads(render(fig14, "json"))
    assert RunRecord.from_dict(wire) == fig14
    print(f"\nJSON export: {len(wire['tables'])} table(s), "
          f"params {wire['params']}")

    # The rich result object is still there for programmatic analysis.
    sweep = fig14.result
    print(f"CDCS gmean WS over {sweep.n_mixes} mixes: "
          f"{sweep.gmean_speedup('CDCS'):.3f} "
          f"(max {sweep.max_speedup('CDCS'):.3f})")


if __name__ == "__main__":
    main()
