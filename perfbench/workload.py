"""Runs one workload in this (fresh) interpreter; ``run.py`` starts it.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--toy] [--setup-only]

Prints one JSON line: ``ready_at``, the ``time.monotonic()`` reading when
the first request could be sent (the parent subtracts its spawn time),
and, unless ``--setup-only``, the workload's metrics.  A failed output
check prints the reason on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import CheckFailed
from metrics import PROBED


def family(workload: str):
    """The module that runs *workload*."""
    if workload.startswith("serve-"):
        import serve

        return serve
    import sweep

    return sweep


def probe_bypassed_layers(workload: str, seed: int) -> dict[str, float]:
    """Metrics of the layers *workload* never crosses, from a toy-size
    traced run of the workload that does, so that every per-layer
    metric is a measurement."""
    other, prefixes = PROBED[workload]
    probe = family(other).run(other, seed, 0.0, True, True, lambda: None)
    return {
        name: value
        for name, value in probe["metrics"].items()
        if name.startswith(prefixes)
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ready: list[float] = []
    try:
        out = family(args.workload).run(
            args.workload,
            args.seed,
            -1.0 if args.setup_only else args.seconds,
            bool(args.trace),
            args.toy,
            lambda: ready.append(time.monotonic()),
        )
        if out is not None and args.trace:
            from repro.geometry.mesh import geometry_allocation_stats

            out["metrics"]["geometry.cached_mib"] = (
                geometry_allocation_stats().cached_mib()
            )
            out["metrics"].update(
                probe_bypassed_layers(args.workload, args.seed)
            )
    except CheckFailed as exc:
        print(f"{args.workload}: check failed: {exc}", file=sys.stderr)
        return 1
    payload = {"ready_at": ready[0]}
    if out is not None:
        payload.update(
            {key: out[key] for key in ("attempted", "failed", "requests")},
            metrics=out["metrics"],
        )
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
