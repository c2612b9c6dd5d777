"""Rule ``lock-discipline``: guarded process-wide state stays guarded.

The repo has a small amount of deliberately process-wide mutable state
(geometry memos, the sketch grid cache).  Each
piece is registered here with its owning lock; the checker then enforces
that **every lexical mention** of the guarded name inside a function sits
inside a ``with <lock>:`` block.  The registry — not the checker — is
where a new piece of shared state gets reviewed: adding state without
registering it is invisible to the tool, so docs/ANALYSIS.md requires
registration in the same change that introduces the state.

A second registry lists *documented-atomic* globals: state that is
intentionally unlocked because every access is a single GIL-atomic
load/store (single-value toggles, monotonic memo dicts whose values
are immutable).  For those the checker only verifies the registry is not
stale (the name still exists in the owning module), keeping the written
justification honest.

The static check is lexical, not a happens-before proof; the runtime
harness (``REPRO_CHECK_LOCKS=1`` + :mod:`repro.util.guards`) covers the
dynamic side by asserting lock ownership on every access.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .core import (
    Finding,
    ModuleSource,
    Rule,
    dotted_name,
    enclosing,
    parents_of,
)


@dataclass(frozen=True)
class GuardedGlobal:
    """Module-level state whose every access must hold *lock*."""

    module: str  # repo-relative path suffix owning the state
    name: str  # the module-level global
    lock: str  # lock object in the same module


@dataclass(frozen=True)
class AtomicGlobal:
    """Unlocked-on-purpose state; *why* records the reviewed argument."""

    module: str
    name: str
    why: str


GUARDED_STATE: tuple[GuardedGlobal, ...] = (
    GuardedGlobal(
        module="repro/geometry/mesh.py",
        name="_SHARED_GEOMETRY_CACHE",
        lock="_GEOMETRY_LOCK",
    ),
    GuardedGlobal(
        module="repro/geometry/mesh.py",
        name="_GEOMETRY_STATS",
        lock="_GEOMETRY_LOCK",
    ),
    GuardedGlobal(
        module="repro/cache/sketch.py",
        name="_GRID_CACHE",
        lock="_GRID_LOCK",
    ),
)

ATOMIC_STATE: tuple[AtomicGlobal, ...] = (
    AtomicGlobal(
        module="repro/geometry/mesh.py",
        name="_dense_tile_limit",
        why="single-int toggle flipped only by the dense_geometry_limit "
        "test context manager; reads are GIL-atomic and production code "
        "never writes it",
    ),
    AtomicGlobal(
        module="repro/sched/allocation.py",
        name="_ROW_MEMO",
        why="binds one RowMemo, read with one GIL-atomic load per "
        "allocation and rebound only by tests' scalar_reference(); the "
        "service solves two chips on two worker threads, so the memo "
        "holds its own lock around every lookup, insert, byte count and "
        "clear (its dict is a guarded_mapping, checked under "
        "REPRO_CHECK_LOCKS=1), and its rows are read-only pure functions "
        "of their keys, so a lookup that loses a race to a clear only "
        "rebuilds an equal row",
    ),
    AtomicGlobal(
        module="repro/sched/cost_model.py",
        name="_DISTANCE_TABLES",
        why="content-keyed memo of read-only distance tables; dict "
        "get/set/clear are GIL-atomic, a wholesale clear only drops "
        "entries, and losing a race just builds an equal table",
    ),
    AtomicGlobal(
        module="repro/experiments/sweeps.py",
        name="_SYSTEM_CACHE",
        why="per-process memo keyed by config digest; each system fills "
        "its alone cache lazily, but dict get and set are GIL-atomic and "
        "a race only recomputes identical alone values",
    ),
    AtomicGlobal(
        module="repro/runner/mega.py",
        name="_BATCHABLE",
        why="written only by register_batchable() calls in a module's "
        "body, so each write runs inside that module's import, which "
        "Python's per-module import lock serializes; each function key "
        "is written once and never changes",
    ),
    AtomicGlobal(
        module="repro/experiments/spec.py",
        name="_REGISTRY",
        why="written only by register() calls in an experiment module's "
        "body; get_spec() may trigger that import late and from any "
        "thread, but each write runs inside the import, which Python's "
        "per-module import lock serializes, and each name is written once",
    ),
)


def _with_locks(node: ast.AST, parents) -> set[str]:
    """Names of every lock held lexically around *node* (with-blocks)."""
    held: set[str] = set()
    for block in enclosing(node, parents, ast.With, ast.AsyncWith):
        for item in block.items:
            name = dotted_name(item.context_expr)
            if name:
                held.add(name.split(".")[-1])
    return held


def _enclosing_function(node: ast.AST, parents) -> str | None:
    funcs = enclosing(
        node, parents, ast.FunctionDef, ast.AsyncFunctionDef
    )
    return funcs[0].name if funcs else None


class LockDisciplineRule(Rule):
    name = "lock-discipline"
    invariant = (
        "every access to registered process-wide state is lexically "
        "inside its owning with-lock block"
    )

    def check(self, module: ModuleSource) -> list[Finding]:
        guarded = [g for g in GUARDED_STATE if module.rel.endswith(g.module)]
        atomic = [a for a in ATOMIC_STATE if module.rel.endswith(a.module)]
        if not guarded and not atomic:
            return []
        out: list[Finding] = []
        parents = parents_of(module.tree)
        seen: set[str] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Name):
                continue
            seen.add(node.id)
            for entry in guarded:
                if node.id == entry.name:
                    self._check_access(out, module, node, parents, entry)
        # Stale-registry guard: state that was removed or renamed must be
        # deregistered in the same change, or the registry rots.
        for entry in guarded:
            if entry.name not in seen:
                out.append(
                    module.finding(
                        self.name,
                        module.tree,
                        f"stale registry entry: {entry.name} no longer "
                        f"exists in {entry.module}",
                    )
                )
        for entry in atomic:
            if entry.name not in seen:
                out.append(
                    module.finding(
                        self.name,
                        module.tree,
                        f"stale atomic-state entry: {entry.name} no "
                        f"longer exists in {entry.module}",
                    )
                )
        return out

    def _check_access(
        self,
        out: list[Finding],
        module: ModuleSource,
        node: ast.Name,
        parents,
        entry: GuardedGlobal,
    ) -> None:
        func = _enclosing_function(node, parents)
        if func is None:
            # Module-scope mention: the defining assignment (or the
            # guarded_mapping() wrapper construction) — the only legal
            # unlocked touch, since imports are single-threaded.
            return
        if entry.lock in _with_locks(node, parents):
            return
        self._emit(
            out,
            module,
            node,
            f"access to {entry.name} outside 'with {entry.lock}:'",
        )
