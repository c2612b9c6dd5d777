"""Check that the documentation only references things that exist.

Scans the fenced code blocks (and inline code spans) of README.md,
docs/*.md, and examples/README.md for four kinds of claims, and fails if
any is stale:

* ``python -m repro <experiment> --flag ...`` invocations — the experiment
  must be a real CLI choice (the grammar is discovered from the generated
  parser, including ``run <name>`` and per-spec flags) and every
  ``--flag`` a real argparse option;
* dotted module/function paths (``repro.runner.pool``,
  ``repro.experiments.sweep_jobs``,
  ``repro.sched.cost_model.latency_curves_batch``) — the longest module
  prefix must import and any remaining attribute chain must resolve.
  Every dotted ``repro`` name inside an inline code span counts, also
  one followed by a call or other text (``repro.x.f(...)``);
* repo file paths (``benchmarks/bench_fig11_single_threaded.py``,
  ``src/repro/...``) — must exist (shell globs are expanded);
* imports in ``python`` code blocks — each block must parse, and every
  name imported from ``repro`` must resolve, so a block that still
  imports a deleted function fails (the dotted-path check sees only the
  module in ``from repro.x import name``).

Four structural checks ride along: the documented CLI grammar is probed
against the generated parser, the experiment registry is cross-checked
against docs/REPRODUCING.md's "Experiment registry" index (every
registered spec documented and vice versa), every vectorized-kernel
module must keep the "Shape conventions" section of its docstring (the
array shapes/dtypes contract documented in docs/PERFORMANCE.md), and
every file under ``tests/golden/`` must have a row in docs/TESTING.md's
"Goldens" table with the command that regenerates it.

Run via ``make docs-check`` (needs ``PYTHONPATH=src``); exits non-zero
with one line per problem.
"""

from __future__ import annotations

import argparse
import ast
import glob
import importlib
import re
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# Run as `python tools/docs_check.py`, sys.path[0] is tools/; the repo
# root must be importable for the tools.analyze cross-check below.
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

DOC_FILES = [
    REPO / "README.md",
    *sorted((REPO / "docs").glob("*.md")),
    REPO / "examples" / "README.md",
]

#: Modules whose docstrings must document their array shapes/dtypes (the
#: kernel layer of PR 2; see docs/PERFORMANCE.md).
SHAPE_CONVENTION_MODULES = [
    "repro.cache.miss_curve",
    "repro.geometry.mesh",
    "repro.geometry.placement_math",
    "repro.noc.traffic",
    "repro.sched.cost_model",
    "repro.sched.refinement",
    "repro.sched.thread_placement",
    "repro.sched.vc_placement",
    "repro.sim.engine",
]

_FENCE = re.compile(r"```.*?\n(.*?)```", re.S)
_PYTHON_FENCE = re.compile(r"```(?:python|py)[ \t]*\n(.*?)```", re.S)
_INLINE = re.compile(r"`([^`\n]+)`")
_MODULE = re.compile(r"^repro(\.[A-Za-z_][A-Za-z0-9_]*)+$")
#: A dotted ``repro`` name anywhere in a code span (not part of a path).
_DOTTED = re.compile(r"(?<![\w./])repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_PATHISH = re.compile(
    r"^(?:src|docs|benchmarks|tests|examples|tools)/[\w./*\-]+$"
)

#: Documented build outputs that legitimately do not exist on a fresh
#: clone (gitignored; produced by running benchmarks / the CLI).
_BUILD_OUTPUTS = {
    "benchmarks/benchmark_results.txt",
}


def _cli_grammar() -> tuple[dict[str, set[str]], set[str]]:
    """(per-command flag sets, experiment names) discovered from the
    real parser and registry — never a hand-maintained list."""
    import repro.__main__ as cli
    from repro.experiments.spec import spec_names

    parser = cli.build_parser()
    commands: dict[str, set[str]] = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                commands[name] = {
                    s
                    for sub_action in subparser._actions
                    for s in sub_action.option_strings
                    if s.startswith("--")
                }
    return commands, set(spec_names())


def check_cli_commands(text: str, origin: str, problems: list[str]) -> None:
    commands, experiments = _cli_grammar()
    all_flags = set().union(*commands.values())
    for line in text.splitlines():
        line = line.strip()
        m = re.search(r"python -m repro\b(.*)", line)
        if not m:
            continue
        rest = m.group(1).split("#", 1)[0]  # drop trailing comments
        try:
            tokens = shlex.split(rest)
        except ValueError:
            tokens = rest.split()
        if not tokens:
            continue
        exp = tokens[0]
        # A prose mention ("the `python -m repro` CLI") or a placeholder
        # ("python -m repro ...") makes no checkable claim about names.
        if re.match(r"^[a-z][a-z0-9_-]*$", exp) and exp not in commands:
            problems.append(
                f"{origin}: unknown experiment {exp!r} in: {line}"
            )
        if exp == "run" and len(tokens) > 1:
            name = tokens[1]
            if (re.match(r"^[a-z][a-z0-9_-]*$", name)
                    and name not in experiments):
                problems.append(
                    f"{origin}: run references unregistered experiment "
                    f"{name!r} in: {line}"
                )
        # Flags are checked against the named subcommand's own grammar
        # (a valid flag documented on the wrong experiment is stale too);
        # prose/placeholder lines fall back to the union of all flags.
        known_flags = commands.get(exp, all_flags)
        for tok in tokens[1:]:
            if tok.startswith("--"):
                flag = tok.split("=", 1)[0]
                if flag not in known_flags:
                    problems.append(
                        f"{origin}: flag {flag!r} is not an option of "
                        f"`python -m repro {exp}` in: {line}"
                    )


def resolve_dotted_path(span: str) -> str | None:
    """Resolve ``repro.a.b.c`` as module, or module + attribute chain.

    Returns None on success, or a one-line problem description.  Tries the
    longest importable module prefix, then getattrs the remaining names —
    so function and class references (``repro.experiments.sweep_jobs``,
    ``repro.cache.miss_curve.MissCurveBatch``) validate, not just modules.
    """
    parts = span.split(".")
    module = None
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
            break
        except ImportError:
            continue
    if module is None:
        return f"module {span!r} does not import"
    obj = module
    for leaf in parts[cut:]:
        if not hasattr(obj, leaf):
            return (
                f"{span!r}: {'.'.join(parts[:cut])!r} imports but has no "
                f"attribute chain {'.'.join(parts[cut:])!r}"
            )
        obj = getattr(obj, leaf)
    return None


def check_modules_and_paths(
    text: str, origin: str, problems: list[str]
) -> None:
    spans = _INLINE.findall(text)
    names = {name: None for span in spans for name in _DOTTED.findall(span)}
    for span in spans + text.split():
        span = span.strip().rstrip(".,;:)")
        if _MODULE.match(span):
            names[span] = None
        elif _PATHISH.match(span):
            if span in _BUILD_OUTPUTS:
                continue
            if "*" in span:
                if not glob.glob(str(REPO / span)):
                    problems.append(
                        f"{origin}: glob {span!r} matches no files"
                    )
            elif not (REPO / span).exists():
                problems.append(f"{origin}: path {span!r} does not exist")
    for name in names:
        problem = resolve_dotted_path(name)
        if problem is not None:
            problems.append(f"{origin}: {problem}")


def _repro_imports(tree: ast.AST) -> list[str]:
    """Dotted ``repro`` names the module imports, in source order."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            if module == "repro" or module.startswith("repro."):
                names += [
                    f"{module}.{alias.name}"
                    for alias in node.names
                    if alias.name != "*"
                ]
        elif isinstance(node, ast.Import):
            names += [
                alias.name
                for alias in node.names
                if alias.name == "repro" or alias.name.startswith("repro.")
            ]
    return names


def check_python_imports(
    text: str, origin: str, problems: list[str]
) -> None:
    """Every ``python`` code block parses, and every ``repro`` name it
    imports resolves (module, or module plus attribute chain)."""
    for block in _PYTHON_FENCE.findall(text):
        try:
            tree = ast.parse(block)
        except SyntaxError as exc:
            problems.append(
                f"{origin}: python code block does not parse "
                f"(line {exc.lineno}: {exc.msg})"
            )
            continue
        for name in _repro_imports(tree):
            problem = resolve_dotted_path(name)
            if problem is not None:
                problems.append(f"{origin}: stale import: {problem}")


def check_file(path: Path, problems: list[str]) -> None:
    text = path.read_text()
    origin = path.relative_to(REPO).as_posix()
    check_python_imports(text, origin, problems)
    for block in _FENCE.findall(text):
        check_cli_commands(block, origin, problems)
        check_modules_and_paths(block, origin, problems)
    # Inline code spans outside fences also make claims; strip the fences
    # first so their contents are not double-counted.
    prose = _FENCE.sub("", text)
    check_cli_commands(prose, origin, problems)
    check_modules_and_paths(prose, origin, problems)


def verify_flag_list() -> list[str]:
    """Probe the generated parser: the documented grammar must parse."""
    import repro.__main__ as cli
    from repro.experiments.spec import spec_names

    probe = [
        ["list"],
        ["list", "--json"],
        ["run", "fig14", "--param", "mixes=1", "--seed", "1", "--jobs",
         "1", "--cache-dir", "x", "--no-cache", "--format", "json",
         "--out", "x.json"],
        ["scalability", "--tiles", "16,64", "--mixes", "1"],
        *([name] for name in spec_names()),
    ]
    problems = []
    parser = cli.build_parser()
    for argv in probe:
        try:
            parser.parse_args(argv)
        except SystemExit:  # argparse rejects unknown flags with exit 2
            problems.append(
                f"tools/docs_check.py: CLI parser rejected {argv} — the "
                f"registry and repro.__main__ disagree"
            )
    return problems


def check_experiment_index() -> list[str]:
    """Every registered spec appears in docs/REPRODUCING.md's experiment
    registry index, and the index names no unregistered experiment."""
    from repro.experiments.spec import spec_names

    path = REPO / "docs" / "REPRODUCING.md"
    text = path.read_text()
    marker = "## Experiment registry"
    if marker not in text:
        return [
            f"docs/REPRODUCING.md: missing the {marker!r} section "
            f"(the registry index docs-check cross-checks)"
        ]
    section = text.split(marker, 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\|\s*`([a-z0-9_]+)`", section, re.M))
    registered = set(spec_names())
    problems = []
    for name in sorted(registered - documented):
        problems.append(
            f"docs/REPRODUCING.md: registered experiment {name!r} is "
            f"missing from the experiment registry index"
        )
    for name in sorted(documented - registered):
        problems.append(
            f"docs/REPRODUCING.md: experiment registry index lists "
            f"{name!r}, which is not registered"
        )
    return problems


def check_analysis_rules() -> list[str]:
    """docs/ANALYSIS.md's rule catalogue matches the registered checkers.

    Both directions: every rule in ``tools.analyze.RULES`` has a table
    row (named and carrying the rule's invariant text), and the table
    names no unregistered rule — so the catalogue cannot drift from the
    code the way hand-maintained rule lists do.
    """
    from tools.analyze import RULES

    path = REPO / "docs" / "ANALYSIS.md"
    if not path.exists():
        return ["docs/ANALYSIS.md: missing (the repro-analyze catalogue)"]
    text = path.read_text()
    marker = "## Rule catalogue"
    if marker not in text:
        return [
            f"docs/ANALYSIS.md: missing the {marker!r} section "
            f"(the rule table docs-check cross-checks)"
        ]
    section = text.split(marker, 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\|\s*`([a-z-]+)`", section, re.M))
    registered = set(RULES)
    problems = []
    for name in sorted(registered - documented):
        problems.append(
            f"docs/ANALYSIS.md: registered rule {name!r} is missing "
            f"from the rule catalogue"
        )
    for name in sorted(documented - registered):
        problems.append(
            f"docs/ANALYSIS.md: rule catalogue lists {name!r}, which "
            f"tools.analyze does not register"
        )
    for name in sorted(registered & documented):
        if RULES[name].invariant not in section:
            problems.append(
                f"docs/ANALYSIS.md: row for {name!r} does not carry the "
                f"rule's registered invariant text verbatim"
            )
    return problems


_GOLDEN_ROW = re.compile(
    r"^\|\s*`(tests/golden/[^`]+)`\s*\|.*\|\s*`[^`]+`\s*\|\s*$", re.M
)


def check_goldens(repo: Path = REPO) -> list[str]:
    """Every file under tests/golden/ has a row in docs/TESTING.md's
    "Goldens" table: the file in the first cell, the command that
    regenerates it as a code span in the last.  Rows for missing files
    fail the path check like any other stale path."""
    path = repo / "docs" / "TESTING.md"
    marker = "## Goldens"
    text = path.read_text()
    if marker not in text:
        return [
            f"docs/TESTING.md: missing the {marker!r} section (the golden "
            f"files and their regeneration commands)"
        ]
    section = text.split(marker, 1)[1].split("\n## ", 1)[0]
    documented = set(_GOLDEN_ROW.findall(section))
    return [
        f"docs/TESTING.md: golden {name!r} has no row with its "
        f"regeneration command in the {marker!r} table"
        for name in sorted(
            p.relative_to(repo).as_posix()
            for p in (repo / "tests" / "golden").iterdir()
            if p.is_file()
        )
        if name not in documented
    ]


def check_shape_conventions() -> list[str]:
    """Kernel modules must document their array shapes and dtypes."""
    problems = []
    for name in SHAPE_CONVENTION_MODULES:
        try:
            module = importlib.import_module(name)
        except ImportError as exc:
            problems.append(
                f"tools/docs_check.py: kernel module {name!r} does not "
                f"import ({exc})"
            )
            continue
        doc = module.__doc__ or ""
        if "Shape conventions" not in doc:
            problems.append(
                f"{name}: docstring lost its 'Shape conventions' section "
                f"(document the array shapes/dtypes flowing through the "
                f"kernels; see docs/PERFORMANCE.md)"
            )
    return problems


def main() -> int:
    problems: list[str] = []
    problems += verify_flag_list()
    problems += check_experiment_index()
    problems += check_analysis_rules()
    problems += check_shape_conventions()
    problems += check_goldens()
    for doc in DOC_FILES:
        if not doc.exists():
            problems.append(f"missing documentation file: {doc.name}")
            continue
        check_file(doc, problems)
    if problems:
        print(f"docs-check: {len(problems)} problem(s)", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"docs-check: OK ({len(DOC_FILES)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
