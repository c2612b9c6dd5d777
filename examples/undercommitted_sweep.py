"""Under-committed systems: why latency-aware allocation matters (Fig 13).

Sweeps the number of single-threaded apps on the 64-core chip from 1 to 64
and reports each scheme's gmean weighted speedup.  At low occupancy the
LLC is plentiful: Jigsaw's miss-driven allocator hands every app a huge,
far-flung VC and loses to CDCS, whose latency-aware allocation leaves
capacity unused on purpose (Sec IV-C / Fig 12b).

Run:  python examples/undercommitted_sweep.py  [--mixes N] [--jobs N]
      [--cache-dir DIR]

The sweep is the registered ``fig13`` experiment, run through
``repro.api.Session`` exactly like the CLI (``python -m repro run fig13
--jobs 4``): each mix is one cached job, so re-runs with a warm
--cache-dir execute nothing.
"""

import argparse

from repro.api import Session


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mixes", type=int, default=8,
                        help="random mixes per occupancy point")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (results identical at any N)")
    parser.add_argument("--cache-dir", default="",
                        help="content-hashed result cache directory "
                             "(empty: no caching)")
    args = parser.parse_args()

    with Session(jobs=args.jobs, cache_dir=args.cache_dir or None) as session:
        sweeps = session.run("fig13", mixes=args.mixes, seed=42).result

    schemes = ("R-NUCA", "Jigsaw+C", "Jigsaw+R", "CDCS")
    print(f"{'apps':>5s}  " + "  ".join(f"{s:>9s}" for s in schemes))
    for n_apps, sweep in sweeps.items():
        row = "  ".join(
            f"{sweep.gmean_speedup(s):9.3f}" for s in schemes
        )
        print(f"{n_apps:5d}  {row}")
    print("\nPaper Fig 13 shape: CDCS stays high across the range; "
          "Jigsaw+C is weakest at 1-8 apps (6% at 4 apps vs CDCS's 28%).")


if __name__ == "__main__":
    main()
