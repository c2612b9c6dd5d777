"""Rule ``determinism``: results must not depend on hidden global state.

Three sub-checks, all protecting the bitwise-reproducibility contract
(`--jobs N` == serial, vectorized == scalar, mega-batch == per-job):

1. **global RNG** — any ``random.*`` or ``np.random.*`` *global-state*
   call outside ``repro/util/rng.py`` is flagged.  Explicitly seeded
   constructors (``default_rng``, ``SeedSequence``, generator classes)
   are fine anywhere; the global stream is only ever reseeded through
   :func:`repro.util.rng.reseed_global`, the one sanctioned site both
   the per-job and mega-batch paths share.
2. **wall clock** — ``time.time``/``perf_counter``/``monotonic`` (and
   ``datetime.now``) reachable from the kernel/sched/nuca/cache/geometry
   layers.  Wall time may be *reported* (solver wall-clock tables) but
   never consumed by a decision; reporting sites carry a reviewed
   ``# repro: allow[determinism]``.
3. **unordered iteration** — iterating a ``set``/``frozenset``
   expression (including unions/intersections) in the placement layers,
   where iteration order feeds placement order.  Wrap in ``sorted()``
   or suppress with a comment arguing order-insensitivity (pure
   reductions like ``max``).
"""

from __future__ import annotations

import ast

from .core import Finding, ModuleSource, Rule, dotted_name

#: The one sanctioned global-reseed helper (both the per-job and the
#: mega-batch slice paths call it); its home module may touch the global
#: RNG freely.
SANCTIONED_RESEED = "repro.util.rng.reseed_global"
SANCTIONED_RNG_MODULES = ("repro/util/rng.py",)

#: ``np.random`` attributes that take explicit seeds and never touch the
#: global stream — allowed everywhere.
_SAFE_NP_RANDOM = {
    "default_rng",
    "SeedSequence",
    "Generator",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

_CLOCK_CALLS = {
    "time": {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    },
    "datetime": {"now", "utcnow", "today"},
}

#: Layers whose results are modeled, not measured: wall-clock reads and
#: unordered iteration here are findings (path-suffix match).
CLOCK_SCOPE = (
    "repro/sched/",
    "repro/nuca/",
    "repro/cache/",
    "repro/geometry/",
)
SET_ITER_SCOPE = CLOCK_SCOPE + ("repro/placers/",)


def _in_scope(rel: str, scope: tuple[str, ...]) -> bool:
    return any(marker in rel for marker in scope)


class _ImportMap(ast.NodeVisitor):
    """Local names bound to the modules the sub-checks care about."""

    def __init__(self):
        self.random_mods: set[str] = set()
        self.np_mods: set[str] = set()
        self.np_random_mods: set[str] = set()
        self.time_mods: set[str] = set()
        self.datetime_names: set[str] = set()
        #: local name -> original name, for ``from random import seed``.
        self.from_random: dict[str, str] = {}
        self.from_time: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_mods.add(bound)
            elif alias.name == "numpy":
                self.np_mods.add(bound)
            elif alias.name == "numpy.random":
                self.np_random_mods.add(alias.asname or "numpy")
            elif alias.name == "time":
                self.time_mods.add(bound)
            elif alias.name == "datetime":
                self.datetime_names.add(bound)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == "random":
                self.from_random[bound] = alias.name
            elif node.module == "numpy" and alias.name == "random":
                self.np_random_mods.add(bound)
            elif node.module == "time":
                self.from_time[bound] = alias.name
            elif node.module == "datetime" and alias.name == "datetime":
                self.datetime_names.add(bound)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


class DeterminismRule(Rule):
    name = "determinism"
    invariant = (
        "results derive only from explicit seeds: no global RNG outside "
        "repro.util.rng, no wall clock or unordered-set iteration in the "
        "modeled layers"
    )

    def check(self, module: ModuleSource) -> list[Finding]:
        rel = module.rel
        if "repro/" not in rel:
            return []
        imports = _ImportMap()
        imports.visit(module.tree)
        out: list[Finding] = []
        sanctioned_rng = any(rel.endswith(m) for m in SANCTIONED_RNG_MODULES)
        check_clock = _in_scope(rel, CLOCK_SCOPE)
        check_sets = _in_scope(rel, SET_ITER_SCOPE)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                if not sanctioned_rng:
                    self._check_rng(out, module, node, imports)
                if check_clock:
                    self._check_clock(out, module, node, imports)
            if check_sets:
                if isinstance(node, (ast.For, ast.comprehension)):
                    self._check_set_iter(out, module, node)
                if isinstance(node, ast.Call):
                    self._check_set_materialize(out, module, node)
        return out

    # -- sub-checks ----------------------------------------------------------

    def _check_rng(self, out, module, node: ast.Call, imports) -> None:
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        if parts[0] in imports.random_mods and len(parts) == 2:
            self._emit(
                out,
                module,
                node,
                f"global-RNG call {name}(): thread explicit seeds via "
                f"repro.util.rng (reseeding belongs in {SANCTIONED_RESEED})",
            )
        elif parts[0] in imports.from_random:
            original = imports.from_random[parts[0]]
            self._emit(
                out,
                module,
                node,
                f"global-RNG call {parts[0]}() (random.{original}): use "
                f"repro.util.rng generators instead",
            )
        elif (
            len(parts) == 3
            and parts[0] in imports.np_mods
            and parts[1] == "random"
            and parts[2] not in _SAFE_NP_RANDOM
        ) or (
            len(parts) == 2
            and parts[0] in imports.np_random_mods
            and parts[1] not in _SAFE_NP_RANDOM
        ):
            self._emit(
                out,
                module,
                node,
                f"numpy global-RNG call {name}(): use "
                f"repro.util.rng.make_rng/child_rng (reseeding belongs in "
                f"{SANCTIONED_RESEED})",
            )

    def _check_clock(self, out, module, node: ast.Call, imports) -> None:
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        flagged = (
            (
                len(parts) == 2
                and parts[0] in imports.time_mods
                and parts[1] in _CLOCK_CALLS["time"]
            )
            or (
                parts[0] in imports.from_time
                and imports.from_time[parts[0]] in _CLOCK_CALLS["time"]
            )
            or (
                len(parts) >= 2
                and parts[0] in imports.datetime_names
                and parts[-1] in _CLOCK_CALLS["datetime"]
            )
        )
        if flagged:
            self._emit(
                out,
                module,
                node,
                f"wall-clock call {name}() in a modeled layer: decisions "
                f"must depend on modeled cycles, not host time (reporting-"
                f"only sites carry an allow comment)",
            )

    def _check_set_iter(self, out, module, node) -> None:
        iter_expr = node.iter
        if _is_set_expr(iter_expr):
            self._emit(
                out,
                module,
                iter_expr,
                "iteration over an unordered set in a placement layer: "
                "wrap in sorted(...) so iteration order cannot leak into "
                "placement order",
            )

    def _check_set_materialize(self, out, module, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate")
            and node.args
            and _is_set_expr(node.args[0])
        ):
            self._emit(
                out,
                module,
                node,
                f"{node.func.id}() over an unordered set in a placement "
                f"layer: insert sorted(...) to pin the order",
            )
