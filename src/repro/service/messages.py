"""Typed service messages and the typed error hierarchy.

The wire format of the control plane is plain dataclasses: the
in-process transport passes them by reference, and every failure mode a
client can hit is a distinct :class:`ServiceError` subclass with a
stable ``code`` string — tests and callers dispatch on the type (or the
code), never on message text.

Two telemetry shapes exist.  :class:`PlacementRequest` is the full form:
the chip's whole :class:`~repro.sched.problem.PlacementProblem` every
epoch.  :class:`DeltaTelemetry` is the streaming form: against the
digest of the chip's *last-good* problem it carries only the sketches of
VCs whose curves moved (:mod:`repro.cache.sketch`), full replacement
curves/rates for the VCs the client flagged dirty, and nothing at all
for a stationary epoch — :func:`telemetry_bytes` makes the size win
measurable.  The server answers a delta it cannot anchor (first contact,
digest mismatch, VC-set drift) with :class:`StaleTelemetryError`, and
the client falls back to full telemetry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from repro.cache.miss_curve import MissCurve
from repro.cache.sketch import DEFAULT_SKETCH_BYTES, MissCurveSketch, problem_sketch_bank
from repro.sched.problem import PlacementProblem, PlacementSolution, ThreadSpec
from repro.util.hashing import canonical_repr
from repro.vcache.virtual_cache import VCKind, VirtualCache


class ServiceError(Exception):
    """Base of every typed control-plane failure."""

    code = "service_error"


class MalformedTelemetryError(ServiceError):
    """The request failed validation before touching an engine."""

    code = "malformed_telemetry"


class AdmissionError(ServiceError):
    """Rejected at the door (queue or budget), nothing was solved."""

    code = "admission_rejected"


class QueueFullError(AdmissionError):
    """The bounded request queue is at capacity."""

    code = "queue_full"


class BudgetExceededError(AdmissionError):
    """The tenant's token bucket has no credit for this request."""

    code = "budget_exceeded"


class SolveTimeoutError(ServiceError):
    """The solve overran its deadline and no last-good placement exists."""

    code = "solve_timeout"


class SolveFailedError(ServiceError):
    """The engine raised mid-solve and no last-good placement exists."""

    code = "solve_failed"


class ServiceClosedError(ServiceError):
    """The service is not accepting requests (stopped or never started)."""

    code = "service_closed"


class StaleTelemetryError(ServiceError):
    """A :class:`DeltaTelemetry` could not be anchored to the chip's
    last-good problem (first contact, evicted engine, digest mismatch, or
    VC-set drift); the client must resend full telemetry."""

    code = "stale_telemetry"


@dataclass
class PlacementRequest:
    """One epoch's telemetry from a chip: "here is what my monitors see,
    where should data and threads go for the coming interval?"

    *problem* is the chip's active placement problem — the VCs with their
    current miss curves and access rates plus the thread list, exactly
    what :meth:`repro.sim.engine.EpochEngine.current_problem` snapshots
    at an epoch boundary.  *epoch* is the client's own counter, echoed
    back so replies can be matched under pipelining.  *timeout_s*
    overrides the service's default solve deadline for this request.
    """

    chip_id: str
    problem: PlacementProblem
    epoch: int = 0
    timeout_s: float | None = None


@dataclass
class DeltaTelemetry:
    """One epoch's telemetry as a delta against the chip's last-good
    problem.

    *base_digest* names the exact problem the delta patches
    (:func:`problem_digest` of the problem the service acknowledged
    last).  *sketches* carries a bounded-memory sketch per VC whose curve
    moved since then — the dirty hints; VCs absent from it are declared
    unchanged.  *dirty_curves* carries the full replacement curve for
    every sketched VC (the sketch says *that* it moved, the curve says
    *to what*), and *dirty_rates* the full replacement accessor map
    (``vc_id -> {thread_id -> rate}``) for VCs whose rates moved.  A
    stationary epoch is just the digest — a few dozen bytes.

    *dirty_clusters* carries replacement ``cluster_key`` strings for
    threads whose grouping identity changed — phased mixes rename a
    thread's benchmark when a process flips phase, and the clustered
    external scheduler reads that key, so the patched problem must
    carry it to stay content-identical to the chip's real problem.
    """

    chip_id: str
    base_digest: str
    sketches: dict[int, MissCurveSketch] = field(default_factory=dict)
    dirty_curves: dict[int, MissCurve] = field(default_factory=dict)
    dirty_rates: dict[int, dict[int, float]] = field(default_factory=dict)
    #: thread_id -> new cluster_key, only for threads whose key changed.
    dirty_clusters: dict[int, str] = field(default_factory=dict)
    epoch: int = 0
    timeout_s: float | None = None


@dataclass
class PlacementReply:
    """The control plane's answer to one :class:`PlacementRequest`.

    ``status`` is ``"ok"`` for a fresh solve and ``"degraded"`` when the
    service fell back to the chip's last-good placement (solve timeout or
    mid-solve failure; ``error`` then carries the triggering code).  The
    solution is always a private copy — mutating it never corrupts the
    warm engine behind it.
    """

    chip_id: str
    epoch: int
    status: str
    solution: PlacementSolution
    strategy: str = ""
    modeled_mcycles: float = 0.0
    latency_s: float = 0.0
    error: str | None = None
    #: Strategy-reported step cycles (empty for degraded replies).
    step_cycles: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def validate_telemetry(request: object) -> PlacementRequest:
    """Admission-time validation: returns the request or raises
    :class:`MalformedTelemetryError`.

    Catches the garbage a misbehaving client can send before it reaches
    a warm engine: wrong payload types, an empty thread list, thread
    access maps referencing VCs the telemetry never described, or more
    threads than the chip has cores.  (A well-formed
    :class:`~repro.sched.problem.PlacementProblem` already enforced its
    own invariants at construction; these checks are for payloads that
    never went through that constructor.)
    """
    if not isinstance(request, PlacementRequest):
        raise MalformedTelemetryError(
            f"expected PlacementRequest, got {type(request).__name__}"
        )
    if not isinstance(request.chip_id, str) or not request.chip_id:
        raise MalformedTelemetryError(
            f"chip_id must be a non-empty string, got {request.chip_id!r}"
        )
    problem = request.problem
    if not isinstance(problem, PlacementProblem):
        raise MalformedTelemetryError(
            f"telemetry payload must be a PlacementProblem, "
            f"got {type(problem).__name__}"
        )
    if not problem.threads:
        raise MalformedTelemetryError(
            f"chip {request.chip_id}: telemetry describes no threads"
        )
    if len(problem.threads) > problem.topology.tiles:
        raise MalformedTelemetryError(
            f"chip {request.chip_id}: {len(problem.threads)} threads "
            f"exceed {problem.topology.tiles} cores"
        )
    known_vcs = {vc.vc_id for vc in problem.vcs}
    for thread in problem.threads:
        unknown = set(thread.vc_accesses) - known_vcs
        if unknown:
            raise MalformedTelemetryError(
                f"chip {request.chip_id}: thread {thread.thread_id} "
                f"references unknown VCs {sorted(unknown)}"
            )
    if request.timeout_s is not None and request.timeout_s <= 0:
        raise MalformedTelemetryError(
            f"chip {request.chip_id}: timeout_s must be positive, "
            f"got {request.timeout_s!r}"
        )
    return request


def validate_delta_telemetry(request: object) -> DeltaTelemetry:
    """Admission-time validation of a :class:`DeltaTelemetry`.

    Shape checks only — whether the digest anchors to a live engine is
    decided later, under that chip's slot lock (the base can change
    between admission and solve)."""
    if not isinstance(request, DeltaTelemetry):
        raise MalformedTelemetryError(
            f"expected DeltaTelemetry, got {type(request).__name__}"
        )
    if not isinstance(request.chip_id, str) or not request.chip_id:
        raise MalformedTelemetryError(
            f"chip_id must be a non-empty string, got {request.chip_id!r}"
        )
    if not isinstance(request.base_digest, str) or not request.base_digest:
        raise MalformedTelemetryError(
            f"chip {request.chip_id}: base_digest must be a non-empty string"
        )
    for name, mapping, value_type in (
        ("sketches", request.sketches, MissCurveSketch),
        ("dirty_curves", request.dirty_curves, MissCurve),
        ("dirty_rates", request.dirty_rates, dict),
    ):
        if not isinstance(mapping, dict):
            raise MalformedTelemetryError(
                f"chip {request.chip_id}: {name} must be a dict, "
                f"got {type(mapping).__name__}"
            )
        for vc_id, value in mapping.items():
            if not isinstance(vc_id, int):
                raise MalformedTelemetryError(
                    f"chip {request.chip_id}: {name} key {vc_id!r} is not "
                    f"a vc id"
                )
            if not isinstance(value, value_type):
                raise MalformedTelemetryError(
                    f"chip {request.chip_id}: {name}[{vc_id}] must be "
                    f"{value_type.__name__}, got {type(value).__name__}"
                )
    unsketched = set(request.dirty_curves) - set(request.sketches)
    if unsketched:
        raise MalformedTelemetryError(
            f"chip {request.chip_id}: dirty_curves {sorted(unsketched)} "
            f"carry no sketch (every dirty hint needs one)"
        )
    for vc_id, rates in request.dirty_rates.items():
        for thread_id, rate in rates.items():
            if not isinstance(thread_id, int) or not isinstance(
                rate, (int, float)
            ) or rate < 0:
                raise MalformedTelemetryError(
                    f"chip {request.chip_id}: dirty_rates[{vc_id}] entry "
                    f"{thread_id!r}: {rate!r} is not a non-negative rate"
                )
    if not isinstance(request.dirty_clusters, dict):
        raise MalformedTelemetryError(
            f"chip {request.chip_id}: dirty_clusters must be a dict, "
            f"got {type(request.dirty_clusters).__name__}"
        )
    for thread_id, key in request.dirty_clusters.items():
        if not isinstance(thread_id, int) or not isinstance(key, str):
            raise MalformedTelemetryError(
                f"chip {request.chip_id}: dirty_clusters entry "
                f"{thread_id!r}: {key!r} is not a thread-id -> str pair"
            )
    if request.timeout_s is not None and request.timeout_s <= 0:
        raise MalformedTelemetryError(
            f"chip {request.chip_id}: timeout_s must be positive, "
            f"got {request.timeout_s!r}"
        )
    return request


#: Leaf types whose ``repr`` is already an exact canonical encoding:
#: equal reprs exactly when :func:`~repro.util.hashing.canonical_repr`
#: is equal (floats round-trip, ``-0.0`` and int-vs-float stay apart,
#: every NaN prints ``nan``).
_PLAIN_LEAVES = frozenset({int, float, str, bool, type(None)})

#: ``canonical_repr`` of each VC kind, looked up instead of recomputed.
_KIND_REPRS = {kind: canonical_repr(kind) for kind in VCKind}


def _leaf(value):
    """*value* as a plain scalar with the same ``canonical_repr``, else
    a tagged ``("canonical", canonical_repr(value))`` pair.  Same
    dispatch order as ``canonical_repr``: int/str subclasses keep their
    own type tag, float subclasses hash as floats, numpy scalars as
    their ``item()``."""
    if type(value) in _PLAIN_LEAVES:
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.generic) and not isinstance(value, (int, str)):
        return _leaf(value.item())
    return ("canonical", canonical_repr(value))


def _column(values: list) -> list:
    """*values* as leaves (see :func:`_leaf`); a plain list as is."""
    if _PLAIN_LEAVES.issuperset(map(type, values)):
        return values
    return list(map(_leaf, values))


def _sorted_leaves(mapping: dict) -> list:
    pairs = [(_leaf(k), _leaf(v)) for k, v in mapping.items()]
    try:
        pairs.sort()
    except TypeError:  # keys of mixed types: order by their encoding
        pairs.sort(key=repr)
    return pairs


def _dict_column(dicts: list) -> list:
    """Each dict's length, then every dict's (key, value) leaves sorted
    by key, so insertion order never reaches the digest."""
    try:
        pairs = [sorted(d.items()) for d in dicts]
        leaves = list(chain.from_iterable(chain.from_iterable(pairs)))
        plain = _PLAIN_LEAVES.issuperset(map(type, leaves))
    except TypeError:  # keys of mixed types
        plain = False
    if not plain:
        pairs = list(map(_sorted_leaves, dicts))
        leaves = list(chain.from_iterable(chain.from_iterable(pairs)))
    return [list(map(len, pairs)), leaves]


def _all_of(items, cls: type) -> bool:
    return all(map(isinstance, items, repeat(cls)))


def _structural_encoding(problem: PlacementProblem) -> bytes | None:
    """The fast encoding behind :func:`problem_digest`, or ``None`` when
    the problem is not built from the standard record types."""
    vcs, threads = problem.vcs, problem.threads
    if not (
        type(problem) is PlacementProblem
        and type(vcs) is list
        and type(threads) is list
        and {type(vc) for vc in vcs} <= {VirtualCache}
        and {type(t) for t in threads} <= {ThreadSpec}
    ):
        return None
    curves = [vc.miss_curve for vc in vcs]
    if not {type(c) for c in curves} <= {MissCurve}:
        return None
    sizes = [c.sizes for c in curves]
    values = [c.values for c in curves]
    accesses = [vc.accesses for vc in vcs]
    allocations = [vc.allocation for vc in vcs]
    thread_rates = [t.vc_accesses for t in threads]
    if not (
        _all_of(sizes, np.ndarray) and _all_of(values, np.ndarray)
        and {a.ndim for a in chain(sizes, values)} <= {1}
        and _all_of(accesses, dict) and _all_of(allocations, dict)
        and _all_of(thread_rates, dict)
    ):
        return None
    kinds = [vc.kind for vc in vcs]
    flat = [
        canonical_repr(problem.config),
        canonical_repr(problem.topology),
        canonical_repr(problem.mem_latency),
        _column([vc.vc_id for vc in vcs]),
        _column([vc.process_id for vc in vcs]),
        _column([vc.owner_thread for vc in vcs]),
        [_KIND_REPRS[k] if type(k) is VCKind else canonical_repr(k) for k in kinds],
        [a.dtype.str for a in sizes],
        [len(a) for a in sizes],
        [a.dtype.str for a in values],
        [len(a) for a in values],
        _dict_column(accesses),
        _dict_column(allocations),
        _column([t.thread_id for t in threads]),
        _column([t.process_id for t in threads]),
        _column([t.cluster_key for t in threads]),
        _dict_column(thread_rates),
    ]
    # The dtypes and lengths fix how many raw curve bytes follow.
    return b"".join([
        repr(flat).encode(), b"\n",
        *map(np.ndarray.tobytes, chain(sizes, values)),
    ])


def problem_digest(problem: PlacementProblem) -> str:
    """Content digest of one chip's problem, memoized on the object.

    This is the anchor :class:`DeltaTelemetry` patches against: two
    problems get equal digests exactly when
    :func:`~repro.util.hashing.content_digest` calls them equal (same
    curves, rates, threads and config, bit for bit), regardless of which
    process built the objects or in what order their dicts were filled.

    The digest is SHA-256 over a fixed structural encoding, not the
    generic recursive ``canonical_repr`` walk: the ``repr`` of one list
    of columns, then a newline, every curve's raw ``sizes`` bytes and
    every curve's raw ``values`` bytes.  The columns are

    * ``canonical_repr`` of the config, the topology and ``mem_latency``;
    * per VC: its scalar fields, its curve's dtypes and lengths (they
      fix the byte counts that follow), and its ``accesses`` and
      ``allocation`` items sorted by key;
    * per thread: its fields and its ``vc_accesses`` items sorted by key.

    Leaves are plain ints, floats, strs, bools and ``None``, whose
    ``repr`` is exact; numpy scalars are reduced to those first, and any
    other leaf is encoded by its ``canonical_repr``.  A problem not built
    from the standard types (a subclass, a tuple of VCs, a curve of
    another class or with arrays that are not 1-D) hashes its whole
    ``canonical_repr`` instead.  Nothing depends on ``hash()`` or
    ``id()``.
    """
    cached = getattr(problem, "_content_digest", None)
    if cached is None:
        blob = _structural_encoding(problem)
        if blob is None:
            blob = ("canonical:" + canonical_repr(problem)).encode()
        cached = problem._content_digest = hashlib.sha256(blob).hexdigest()
    return cached


def build_delta(
    base: PlacementProblem,
    problem: PlacementProblem,
    chip_id: str,
    epoch: int = 0,
    sketch_bytes: int = DEFAULT_SKETCH_BYTES,
    dirty_threshold: float = 0.0,
    timeout_s: float | None = None,
) -> DeltaTelemetry | None:
    """Diff *problem* against *base* into a :class:`DeltaTelemetry`.

    Returns ``None`` when the chip's structure drifted (VC list, thread
    set, or LLC capacity changed) — those epochs need full telemetry.
    Curve movement is judged from the problems' sketch banks (memoized
    per problem object, so a stationary epoch diffs for free); every VC
    whose sketch delta exceeds *dirty_threshold* ships its sketch plus
    its exact replacement curve.  Threads whose ``cluster_key`` changed
    (phase flips rename the benchmark) ship the new key.  The default
    threshold 0 ships every changed curve, which keeps the server's
    patched problem content-identical to *problem* — the next epoch's
    digest then anchors without a fallback.
    """
    if [vc.vc_id for vc in base.vcs] != [vc.vc_id for vc in problem.vcs]:
        return None
    if [t.thread_id for t in base.threads] != [
        t.thread_id for t in problem.threads
    ]:
        return None
    if float(base.total_bytes) != float(problem.total_bytes):
        return None
    bank = problem_sketch_bank(problem, sketch_bytes)
    deltas = bank.deltas_to(problem_sketch_bank(base, sketch_bytes))
    base_by_id = {vc.vc_id: vc for vc in base.vcs}
    sketches: dict[int, MissCurveSketch] = {}
    dirty_curves: dict[int, MissCurve] = {}
    dirty_rates: dict[int, dict[int, float]] = {}
    for vc in problem.vcs:
        if deltas[vc.vc_id] > dirty_threshold:
            sketches[vc.vc_id] = bank.sketches[bank.index[vc.vc_id]]
            dirty_curves[vc.vc_id] = vc.miss_curve
        if vc.accesses != base_by_id[vc.vc_id].accesses:
            dirty_rates[vc.vc_id] = dict(vc.accesses)
    dirty_clusters: dict[int, str] = {
        thread.thread_id: thread.cluster_key
        for thread, old in zip(problem.threads, base.threads)
        if thread.cluster_key != old.cluster_key
    }
    return DeltaTelemetry(
        chip_id=chip_id,
        base_digest=problem_digest(base),
        sketches=sketches,
        dirty_curves=dirty_curves,
        dirty_rates=dirty_rates,
        dirty_clusters=dirty_clusters,
        epoch=epoch,
        timeout_s=timeout_s,
    )


#: Structural wire-size model: 8B per float, 4B per id, fixed headers.
#: The in-process transport passes references, so these are *accounting*
#: bytes — what a serialized telemetry stream would carry — used by the
#: sketch study and bench to compare full vs delta payloads.
_FLOAT_BYTES = 8
_ID_BYTES = 4
_MESSAGE_HEADER_BYTES = 64
_DIGEST_BYTES = 64


def telemetry_bytes(request: PlacementRequest | DeltaTelemetry) -> int:
    """Modeled wire size of one telemetry message.

    Full telemetry pays two float64 per curve knot and one (id, float)
    pair per thread-accessor entry for *every* VC; a delta pays the
    digest, each shipped sketch's fixed budget, and the exact payloads of
    the dirty subset only.
    """
    if isinstance(request, PlacementRequest):
        problem = request.problem
        total = _MESSAGE_HEADER_BYTES
        for vc in problem.vcs:
            total += 3 * _ID_BYTES  # vc id, kind, process id
            total += 2 * _FLOAT_BYTES * len(vc.miss_curve.sizes)
            total += (_ID_BYTES + _FLOAT_BYTES) * len(vc.accesses)
        for thread in problem.threads:
            total += 2 * _ID_BYTES  # thread id, process id
            total += (_ID_BYTES + _FLOAT_BYTES) * len(thread.vc_accesses)
        return total
    if isinstance(request, DeltaTelemetry):
        total = _MESSAGE_HEADER_BYTES + _DIGEST_BYTES
        for sketch in request.sketches.values():
            total += _ID_BYTES + sketch.nbytes
        for curve in request.dirty_curves.values():
            total += _ID_BYTES + 2 * _FLOAT_BYTES * len(curve.sizes)
        for rates in request.dirty_rates.values():
            total += _ID_BYTES + (_ID_BYTES + _FLOAT_BYTES) * len(rates)
        for key in request.dirty_clusters.values():
            total += _ID_BYTES + len(key.encode())
        return total
    raise TypeError(
        f"telemetry_bytes: expected PlacementRequest or DeltaTelemetry, "
        f"got {type(request).__name__}"
    )
