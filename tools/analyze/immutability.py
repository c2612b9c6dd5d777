"""Rule ``shared-view``: arrays shared across jobs are never mutated.

The geometry memo, the allocation row memo and the
:class:`MissCurveBatch` banks hand the *same* ndarray to many consumers
(threads, asyncio tasks).  One in-place write through any alias
silently corrupts every other reader — the classic
action-at-a-distance bug the runtime ``flags.writeable = False`` freeze
turns into a loud ValueError.  This rule catches the same class of bug
before the code ever runs, including on paths tests do not cover.

Detection is a per-function, statement-order taint walk:

* **sources** — calls to ``shared_geometry_matrices(...)`` and the
  allocation row memo's ``_curve_rows(...)``, and attribute reads of
  the published surfaces
  (``.distance_matrix`` / ``.order_matrix`` / ``.sorted_distance_matrix``
  on topologies; ``.lengths`` / ``.sizes2d`` / ``.values2d`` on curve
  batches).
* **propagation** — plain assignment, subscripting (views of views),
  ``.ravel()`` / ``.reshape()`` / ``.T`` / ``astype(copy=False)``.
* **untaint** — rebinding to ``.copy()`` / ``np.array(...)`` /
  arithmetic results (fresh allocations).
* **sinks** — augmented assignment, subscript/attribute assignment,
  mutating ndarray methods (``fill``/``sort``/``put``/...), ``out=`` a
  tainted array, ``np.copyto``/``np.place``/``np.put`` with a tainted
  first argument, and ufunc ``.at``.

Legitimate writable needs take a private copy at the consumer
(copy-on-write at the offender), which also untaints the name.
"""

from __future__ import annotations

import ast

from .core import Finding, ModuleSource, Rule, dotted_name

#: Calls whose result is a shared (frozen) array or a container of them:
#: the geometry memo, and the allocation row memo's rows and hulls.
SOURCE_CALLS = {"shared_geometry_matrices", "_curve_rows"}

#: Attribute reads that surface shared arrays.
SOURCE_ATTRS = {
    "distance_matrix",
    "order_matrix",
    "sorted_distance_matrix",
    "lengths",
    "sizes2d",
    "values2d",
}

#: Methods that return a (possibly) aliasing view — taint flows through.
_VIEW_METHODS = {"ravel", "reshape", "astype", "view", "squeeze", "transpose"}

#: ndarray methods that mutate in place.
_MUTATING_METHODS = {
    "fill",
    "sort",
    "partition",
    "put",
    "itemset",
    "resize",
    "setfield",
    "byteswap",
}

#: numpy module-level functions that write into their first argument.
_MUTATING_FUNCS = {"copyto", "place", "put", "putmask"}

#: Rebinding to one of these clears taint (fresh allocation).
_FRESH_CALLS = {"copy", "array", "ascontiguousarray", "empty_like"}


def _base_name(node: ast.AST) -> str | None:
    """Leftmost Name of a Name/Attribute/Subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class _FunctionTaint:
    """Statement-order taint walk over one function (or module) body."""

    def __init__(self, rule: "SharedViewRule", module: ModuleSource):
        self.rule = rule
        self.module = module
        self.tainted: set[str] = set()
        self.findings: list[Finding] = []

    # -- taint classification ------------------------------------------------

    def _is_source(self, expr: ast.AST) -> bool:
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            if name and name.split(".")[-1] in SOURCE_CALLS:
                return True
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr in _VIEW_METHODS
            ):
                return self._is_tainted(expr.func.value)
            return False
        if isinstance(expr, ast.Attribute) and expr.attr in SOURCE_ATTRS:
            return True
        if isinstance(expr, ast.Subscript):
            return self._is_source(expr.value) or self._is_tainted(
                expr.value
            )
        if isinstance(expr, ast.Name):
            return expr.id in self.tainted
        return False

    def _is_tainted(self, expr: ast.AST) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in self.tainted
        if isinstance(expr, (ast.Attribute, ast.Subscript)):
            if isinstance(expr, ast.Attribute) and expr.attr in SOURCE_ATTRS:
                return True
            return self._is_tainted(expr.value)
        if isinstance(expr, ast.Call):
            return self._is_source(expr)
        return False

    def _is_fresh(self, expr: ast.AST) -> bool:
        """Fresh allocation: rebinding to this clears taint."""
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            if name and name.split(".")[-1] in _FRESH_CALLS:
                return True
        return isinstance(expr, ast.BinOp)

    # -- statement walk ------------------------------------------------------

    def run(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._check_expr(stmt.value)
            for target in stmt.targets:
                self._assign(target, stmt.value, stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._check_expr(stmt.value)
            self._assign(stmt.target, stmt.value, stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._check_expr(stmt.value)
            if self._is_tainted(stmt.target):
                self._flag(
                    stmt,
                    "augmented assignment mutates a shared array in "
                    "place; take a private .copy() first",
                )
        elif isinstance(stmt, ast.Expr):
            self._check_expr(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._check_expr(stmt.iter)
            if isinstance(stmt.target, ast.Name) and self._is_tainted(
                stmt.iter
            ):
                self.tainted.add(stmt.target.id)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, (ast.While, ast.If)):
            self._check_expr(stmt.test)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._check_expr(item.context_expr)
            self.run(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.run(stmt.body)
            for handler in stmt.handlers:
                self.run(handler.body)
            self.run(stmt.orelse)
            self.run(stmt.finalbody)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self._check_expr(stmt.value)
        # Nested function/class definitions get their own walker via the
        # rule's outer loop; do not descend here.

    def _assign(
        self, target: ast.AST, value: ast.AST, stmt: ast.stmt
    ) -> None:
        if isinstance(target, ast.Name):
            if self._is_fresh(value):
                self.tainted.discard(target.id)
            elif self._is_source(value) or self._is_tainted(value):
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            if isinstance(target, ast.Subscript) and self._is_tainted(
                target.value
            ):
                self._flag(
                    stmt,
                    "slice/index assignment writes into a shared array; "
                    "take a private .copy() first",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, value, stmt)

    def _check_expr(self, expr: ast.AST) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            self._check_call(node)

    def _check_call(self, call: ast.Call) -> None:
        name = dotted_name(call.func)
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            owner = call.func.value
            if attr in _MUTATING_METHODS and self._is_tainted(owner):
                self._flag(
                    call,
                    f".{attr}() mutates a shared array in place; take a "
                    f"private .copy() first",
                )
            # ufunc .at: np.add.at(shared, idx, v)
            if (
                attr == "at"
                and call.args
                and self._is_tainted(call.args[0])
            ):
                self._flag(
                    call,
                    "ufunc .at() scatters into a shared array; take a "
                    "private .copy() first",
                )
        if (
            name
            and name.split(".")[-1] in _MUTATING_FUNCS
            and call.args
            and self._is_tainted(call.args[0])
        ):
            self._flag(
                call,
                f"{name}() writes into a shared array; take a private "
                f".copy() first",
            )
        for kw in call.keywords:
            if kw.arg == "out" and self._is_tainted(kw.value):
                self._flag(
                    call,
                    "out= targets a shared array; allocate a private "
                    "output buffer",
                )

    def _flag(self, node: ast.AST, message: str) -> None:
        self.rule._emit(self.findings, self.module, node, message)


class SharedViewRule(Rule):
    name = "shared-view"
    invariant = (
        "arrays published by the geometry memo or miss-curve banks are "
        "never mutated in place; writers take private copies"
    )

    def check(self, module: ModuleSource) -> list[Finding]:
        if "repro/" not in module.rel:
            return []
        out: list[Finding] = []
        # One taint walk per function body (plus module top level); taint
        # does not flow across function boundaries — the freeze harness
        # covers inter-procedural aliasing at runtime.
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walker = _FunctionTaint(self, module)
                walker.run(node.body)
                out.extend(walker.findings)
        walker = _FunctionTaint(self, module)
        walker.run(
            [
                stmt
                for stmt in module.tree.body
                if not isinstance(
                    stmt,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                )
            ]
        )
        out.extend(walker.findings)
        return out
