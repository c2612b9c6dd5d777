"""Command-line entry point: regenerate paper experiments from the shell.

Usage::

    python -m repro list                   # the experiment registry
    python -m repro list --json            # ... machine-readable
    python -m repro run fig11 --param mixes=8    # generic registry form
    python -m repro fig11 --mixes 8        # per-experiment subcommand
    python -m repro fig11 --jobs 4         # fan mixes out over 4 workers
    python -m repro run table1 --format json     # structured export
    python -m repro run fig14 --format csv --out fig14.csv
    python -m repro scalability --tiles 16,64,144,256   # mesh-size sweep

Every experiment is a registered
:class:`~repro.experiments.spec.ExperimentSpec`; the CLI is generated
from the registry, so ``run <name>`` and the per-experiment subcommands
are two spellings of the same path (``--param k=v`` and ``--<k> v`` both
feed the spec's typed parameter schema).  All experiments uniformly
support ``--jobs/--cache-dir/--no-cache/--seed`` plus structured output
via ``--format table|json|csv`` and ``--out FILE``.

Execution goes through :class:`repro.api.Session`: one job per
experiment point, fanned over ``--jobs N`` worker processes (results are
bitwise identical to ``--jobs 1``) and memoized in the content-hashed
result cache under ``--cache-dir``.  A progress line on stderr reports
jobs done/total and cache hits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.api import Session
from repro.experiments.results import FORMATS, RunRecord, render
from repro.experiments.spec import all_specs, get_spec, spec_names
from repro.nuca import SCHEMES  # noqa: F401  (re-export for compatibility)
from repro.runner import DEFAULT_CACHE_DIR


def build_parser() -> argparse.ArgumentParser:
    """The registry-generated CLI grammar (also probed by docs-check)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate experiments from the CDCS reproduction.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep jobs (default 1; "
                             "results are identical at any N)")
    common.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help="directory of the content-hashed result cache "
                             f"(default {DEFAULT_CACHE_DIR!r})")
    common.add_argument("--no-cache", action="store_true",
                        help="disable the result cache: recompute and do "
                             "not persist any job output")
    common.add_argument("--seed", type=int, default=None,
                        help="override the experiment's default RNG seed")
    common.add_argument("--format", choices=FORMATS, default="table",
                        dest="format",
                        help="output format (default table)")
    common.add_argument("--out", default=None, metavar="FILE",
                        help="write the rendered output to FILE instead "
                             "of stdout")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    p_list = sub.add_parser(
        "list", parents=[common],
        help="show the experiment registry",
    )
    p_list.add_argument("--json", action="store_true",
                        help="emit the registry as JSON")
    p_run = sub.add_parser(
        "run", parents=[common],
        help="run any registered experiment by name",
    )
    p_run.add_argument("name", choices=spec_names(),
                       help="registered experiment name")
    p_run.add_argument("--param", action="append", default=[],
                       metavar="K=V",
                       help="override one experiment parameter "
                            "(repeatable)")
    p_serve = sub.add_parser(
        "serve",
        help="run the async co-scheduling control plane against a "
             "synthetic tenant fleet and report serving metrics",
    )
    p_serve.add_argument("--chips", type=int, default=4, metavar="N",
                         help="concurrent tenant chips (default 4)")
    p_serve.add_argument("--epochs", type=int, default=6, metavar="N",
                         help="reconfigurations per chip (default 6)")
    p_serve.add_argument("--tiles", type=int, default=16, metavar="N",
                         help="square tile count per chip (default 16)")
    p_serve.add_argument("--dynamism", choices=("stationary", "phased"),
                         default="phased",
                         help="workload arm (default phased)")
    p_serve.add_argument("--strategy", default="incremental",
                         metavar="NAME",
                         help="solve strategy for every chip's warm "
                              "engine: full, incremental, partitioned, "
                              "or hierarchical (default incremental)")
    p_serve.add_argument("--workers", type=int, default=2, metavar="N",
                         help="worker tasks / solve threads (default 2)")
    p_serve.add_argument("--queue-limit", type=int, default=32,
                         metavar="N",
                         help="bounded request-queue depth (default 32)")
    p_serve.add_argument("--solve-timeout-s", type=float, default=None,
                         metavar="S",
                         help="per-solve deadline; timed-out chips "
                              "degrade to last-good (default none)")
    p_serve.add_argument("--tenant-rate", type=float, default=None,
                         metavar="R",
                         help="per-tenant token-bucket refill, requests/s "
                              "(default: unlimited)")
    p_serve.add_argument("--tenant-burst", type=float, default=None,
                         metavar="B",
                         help="per-tenant burst size (default: rate)")
    p_serve.add_argument("--seed", type=int, default=42,
                         help="fleet RNG seed (default 42)")
    p_serve.add_argument("--format", choices=FORMATS, default="table",
                         dest="format",
                         help="output format (default table)")
    p_serve.add_argument("--out", default=None, metavar="FILE",
                         help="write the report to FILE instead of stdout")
    for spec in all_specs():
        p_exp = sub.add_parser(
            spec.name, parents=[common],
            help=f"{spec.figure}: {spec.summary}",
        )
        for param in spec.params:
            if param.name == "seed":
                continue  # the common --seed flag covers it
            p_exp.add_argument(
                f"--{param.name.replace('_', '-')}",
                dest=param.name,
                type=param.parser,
                default=param.default,
                help=f"{param.help} (default {param.default!r})",
            )
    return parser


def _progress_printer(stream=None):
    """Return a runner progress callback writing a live line to *stream*."""
    stream = stream if stream is not None else sys.stderr

    def show(stats) -> None:
        end = "\n" if stats.completed == stats.submitted else "\r"
        print(
            f"[repro] {stats.completed}/{stats.submitted} jobs done "
            f"({stats.cached} cache hits, {stats.executed} executed)",
            end=end, file=stream, flush=True,
        )

    return show


def _build_session(args) -> Session:
    cache_dir = None if (args.no_cache or not args.cache_dir) \
        else args.cache_dir
    return Session(
        jobs=args.jobs, cache_dir=cache_dir, progress=_progress_printer()
    )


def _collect_overrides(parser, args) -> dict:
    """Experiment parameter overrides from either CLI spelling."""
    overrides: dict = {}
    if args.command == "run":
        for item in args.param:
            if "=" not in item:
                parser.error(f"--param expects K=V, got {item!r}")
            key, value = item.split("=", 1)
            overrides[key] = value
    else:
        spec = get_spec(args.command)
        for param in spec.params:
            if param.name != "seed":
                overrides[param.name] = getattr(args, param.name)
    if args.seed is not None:
        overrides["seed"] = args.seed
    return overrides


def _emit(record: RunRecord, fmt: str, out: str | None) -> None:
    _write_or_print(render(record, fmt), out, f"{fmt} output")


def _write_or_print(text: str, out: str | None, what: str) -> None:
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n")
        print(f"[repro] wrote {what} to {out}", file=sys.stderr)


def _cmd_list(parser, args) -> int:
    specs = all_specs()
    # `list --format json` and `list --json` are the same spelling; csv
    # has no sensible listing shape.
    if args.format == "csv":
        parser.error("list supports --format table or json, not csv")
    if args.json or args.format == "json":
        text = json.dumps([spec.describe() for spec in specs], indent=2)
        _write_or_print(text, args.out, "registry json")
        return 0
    width = max(len(spec.name) for spec in specs)
    lines = ["available experiments:"]
    for spec in specs:
        params = ", ".join(
            f"{p.name}={p.default!r}" for p in spec.params
        )
        lines.append(f"  {spec.name:<{width}}  {spec.figure}: "
                     f"{spec.summary} [{params}]")
    lines.append("")
    lines.append("run one with: python -m repro run <name> "
                 "[--param k=v ...]")
    _write_or_print("\n".join(lines), args.out, "registry listing")
    return 0


def _cmd_serve(parser, args) -> int:
    """One control-plane session over a synthetic fleet (in-process)."""
    from repro.experiments.results import ResultTable
    from repro.service import LoadSpec, run_load

    try:
        spec = LoadSpec(
            chips=args.chips, epochs=args.epochs, tiles=args.tiles,
            dynamism=args.dynamism, strategy=args.strategy,
            workers=args.workers, queue_limit=args.queue_limit,
            solve_timeout_s=args.solve_timeout_s,
            tenant_rate=args.tenant_rate, tenant_burst=args.tenant_burst,
            seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))
    report = run_load(spec)
    table = ResultTable.make(
        title=f"Control plane: {spec.chips} chips x {spec.epochs} epochs "
              f"on {spec.tiles} tiles ({spec.strategy}, {spec.workers} "
              f"workers, queue {spec.queue_limit})",
        headers=("chips", "epochs", "tiles", "strategy", "dynamism",
                 "requests", "ok", "degraded", "rejected", "req/s",
                 "p50 ms", "p99 ms"),
        rows=report.table_rows(),
    )
    record = RunRecord(
        experiment="serve", params=report.spec, tables=(table,),
    )
    _emit(record, args.format, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        # serve is not a registry experiment: no jobs/cache machinery.
        return _cmd_serve(parser, args)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if not args.no_cache and args.cache_dir:
        cache_path = Path(args.cache_dir)
        if cache_path.exists() and not cache_path.is_dir():
            parser.error(
                f"--cache-dir {args.cache_dir!r} exists and is not a "
                f"directory"
            )
    if args.command == "list":
        return _cmd_list(parser, args)
    name = args.name if args.command == "run" else args.command
    overrides = _collect_overrides(parser, args)
    spec = get_spec(name)
    # Validate parameters (and parameter-dependent job construction, e.g.
    # a profile-name lookup) up front, so bad input is a usage error —
    # while genuine runtime failures inside jobs still surface as
    # tracebacks rather than being miscast as CLI mistakes.
    try:
        params = spec.resolve(overrides)
        spec.build_jobs(params)
    except (ValueError, KeyError, argparse.ArgumentTypeError) as exc:
        parser.error(str(exc))
    session = _build_session(args)
    record = session.run(name, **params)
    _emit(record, args.format, args.out)
    stats = session.stats
    if stats.submitted:
        print(f"[repro] total: {stats.summary()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
