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
from itertools import chain

import numpy as np

from repro.cache.miss_curve import MissCurve
from repro.cache.sketch import (
    DEFAULT_SKETCH_BYTES,
    MissCurveSketch,
    record_sketch_pairs,
    sketch_deltas,
)
from repro.sched.problem import (
    RECORD_DIGESTS,
    PlacementProblem,
    PlacementSolution,
    ThreadSpec,
    changed_records,
)
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
    a warm engine: wrong payload types, an empty thread list, repeated
    thread ids, thread access maps referencing VCs the telemetry never
    described, or more threads than the chip has cores.  (A well-formed
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
    thread_ids = [thread.thread_id for thread in problem.threads]
    if len(set(thread_ids)) != len(thread_ids):
        raise MalformedTelemetryError(
            f"chip {request.chip_id}: duplicate thread ids"
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


def _items(mapping: dict) -> list:
    """*mapping*'s (key, value) leaves sorted by key, so insertion order
    never reaches the digest."""
    try:
        pairs = sorted(mapping.items())
        if _PLAIN_LEAVES.issuperset(map(type, chain.from_iterable(pairs))):
            return pairs
    except TypeError:  # keys of mixed types
        pass
    pairs = [(_leaf(k), _leaf(v)) for k, v in mapping.items()]
    try:
        pairs.sort()
    except TypeError:  # keys of mixed types: order by their encoding
        pairs.sort(key=repr)
    return pairs


def _vc_encoding(vc: VirtualCache) -> bytes | None:
    """The exact encoding of one VC record, or ``None`` when its curve or
    maps are not of the standard types."""
    curve = vc.miss_curve
    if type(curve) is not MissCurve:
        return None
    sizes, values = curve.sizes, curve.values
    if not (
        isinstance(sizes, np.ndarray) and isinstance(values, np.ndarray)
        and sizes.ndim == 1 and values.ndim == 1
        and isinstance(vc.accesses, dict) and isinstance(vc.allocation, dict)
    ):
        return None
    kind = vc.kind
    flat = [
        _leaf(vc.vc_id),
        _leaf(vc.process_id),
        _leaf(vc.owner_thread),
        _KIND_REPRS[kind] if type(kind) is VCKind else canonical_repr(kind),
        sizes.dtype.str, len(sizes),
        values.dtype.str, len(values),
        _items(vc.accesses),
        _items(vc.allocation),
    ]
    # The dtypes and lengths fix how many raw curve bytes follow.
    return b"".join([
        repr(flat).encode(), b"\n", sizes.tobytes(), values.tobytes(),
    ])


def _thread_encoding(thread: ThreadSpec) -> bytes | None:
    """The exact encoding of one thread record, or ``None``."""
    if not isinstance(thread.vc_accesses, dict):
        return None
    return repr([
        _leaf(thread.thread_id),
        _leaf(thread.process_id),
        _leaf(thread.cluster_key),
        _items(thread.vc_accesses),
    ]).encode()


#: Where a record keeps its digest: a key of its ``__dict__``, written
#: directly as ``functools.cached_property`` writes (a frozen record's
#: ``__setattr__`` refuses), so no field, ``==``, ``replace`` or
#: ``content_digest`` ever sees it.
_RECORD_DIGEST = "_digest"


def _record_digests(
    records: list, cls: type, encode, digests: list | None = None
) -> list[bytes] | None:
    """The SHA-256 digest of every record's encoding, each computed once
    per record object and memoized on it; ``None`` when a record is not
    exactly a *cls* or *encode* refuses it.  *digests*, a derived
    problem's list from its base, is filled in place where it holds
    ``None``; its other entries are the digests of the very same
    records."""
    if digests is not None:
        positions = [i for i, digest in enumerate(digests) if digest is None]
    else:
        digests = [None] * len(records)
        positions = range(len(records))
    for i in positions:
        record = records[i]
        if type(record) is not cls:
            return None
        memo = record.__dict__
        digest = memo.get(_RECORD_DIGEST)
        if digest is None:
            blob = encode(record)
            if blob is None:
                return None
            digest = memo[_RECORD_DIGEST] = hashlib.sha256(blob).digest()
        digests[i] = digest
    return digests


def _structural_encoding(problem: PlacementProblem) -> bytes | None:
    """The fast encoding behind :func:`problem_digest`, or ``None`` when
    the problem is not built from the standard record types."""
    vcs, threads = problem.vcs, problem.threads
    if not (
        type(problem) is PlacementProblem
        and type(vcs) is list
        and type(threads) is list
    ):
        return None
    known = problem._memo.get(RECORD_DIGESTS, (None, None))
    vc_digests = _record_digests(vcs, VirtualCache, _vc_encoding, known[0])
    if vc_digests is None:
        return None
    thread_digests = _record_digests(
        threads, ThreadSpec, _thread_encoding, known[1]
    )
    if thread_digests is None:
        return None
    problem._memo[RECORD_DIGESTS] = (vc_digests, thread_digests)
    # Every problem derived from this one shares the header's inputs.
    shared = problem._frame.memo
    header = shared.get("digest_header")
    if header is None:
        header = shared["digest_header"] = repr([
            canonical_repr(problem.config),
            canonical_repr(problem.topology),
            canonical_repr(problem.mem_latency),
            len(vcs),
            len(threads),
        ]).encode() + b"\n"
    # The counts fix how many 32-byte record digests follow.
    return b"".join([header, *vc_digests, *thread_digests])


def problem_digest(problem: PlacementProblem) -> str:
    """Content digest of one chip's problem, memoized in its memo slot.

    This is the anchor :class:`DeltaTelemetry` patches against: two
    problems get equal digests exactly when
    :func:`~repro.util.hashing.content_digest` calls them equal (same
    curves, rates, threads and config, bit for bit), regardless of which
    process built the objects or in what order their dicts were filled.

    The digest is SHA-256 over a header and the digests of the records,
    not the generic recursive ``canonical_repr`` walk.  The header is
    the ``repr`` of ``canonical_repr`` of the config, the topology and
    ``mem_latency``, plus the VC and thread counts; a newline and every
    VC record's digest, then every thread record's, in problem order,
    follow it.  A record's digest is SHA-256 over the ``repr`` of its
    fields as a list (for a VC: its scalar fields, its curve's dtypes
    and lengths, which fix the byte counts that follow, and its
    ``accesses`` and ``allocation`` items sorted by key; for a thread:
    its fields and its ``vc_accesses`` items sorted by key), then for a
    VC a newline and its curve's raw ``sizes`` and ``values`` bytes.

    Records are immutable and shared between the problems of one chip,
    so each record's digest is computed once, on first use, and kept on
    the record outside its dataclass fields: a problem that shares most
    records with an earlier one hashes only its new records.  The list
    of record digests is memoized in the problem's memo slot, and a
    problem derived from a base with such a list starts from it; the
    header is computed once for a problem and all those derived from it.

    Leaves are plain ints, floats, strs, bools and ``None``, whose
    ``repr`` is exact; numpy scalars are reduced to those first, and any
    other leaf is encoded by its ``canonical_repr``.  A problem not built
    from the standard types (a subclass, a tuple of VCs, a curve of
    another class or with arrays that are not 1-D) hashes its whole
    ``canonical_repr`` instead.  Nothing depends on ``hash()`` or
    ``id()``.
    """
    digest = problem._memo.get("digest")
    if digest is None:
        blob = _structural_encoding(problem)
        if blob is None:
            blob = ("canonical:" + canonical_repr(problem)).encode()
        digest = problem._memo["digest"] = hashlib.sha256(blob).hexdigest()
    return digest


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
    Every VC whose sketch delta exceeds *dirty_threshold* ships its
    sketch plus its exact replacement curve.  Threads whose
    ``cluster_key`` changed (phase flips rename the benchmark) ship the
    new key.  The default threshold 0 ships every changed curve, which
    keeps the server's patched problem content-identical to *problem* —
    the next epoch's digest then anchors without a fallback.

    When :func:`~repro.sched.problem.changed_records` can diff the pair,
    only the changed VC and thread records are examined: a shared record
    has a delta of exactly 0 and unchanged rates and keys, so it would
    ship nothing (unless *dirty_threshold* is negative, which examines
    every record).  Either way the sketches come from the per-curve memo
    (:func:`~repro.cache.sketch.record_sketch_pairs`).
    """
    changes = None if dirty_threshold < 0 else changed_records(base, problem)
    if changes is None:
        if [vc.vc_id for vc in base.vcs] != [vc.vc_id for vc in problem.vcs]:
            return None
        if [t.thread_id for t in base.threads] != [
            t.thread_id for t in problem.threads
        ]:
            return None
        if float(base.total_bytes) != float(problem.total_bytes):
            return None
        changes = range(len(problem.vcs)), range(len(problem.threads))
    vc_positions, thread_positions = changes
    vc_pairs = [(problem.vcs[i], base.vcs[i]) for i in vc_positions]
    pairs = record_sketch_pairs(vc_pairs, problem.total_bytes, sketch_bytes)
    sketches: dict[int, MissCurveSketch] = {}
    dirty_curves: dict[int, MissCurve] = {}
    dirty_rates: dict[int, dict[int, float]] = {}
    for (vc, old), (sketch, _), delta in zip(
        vc_pairs, pairs, sketch_deltas(pairs)
    ):
        if delta > dirty_threshold:
            sketches[vc.vc_id] = sketch
            dirty_curves[vc.vc_id] = vc.miss_curve
        if vc.accesses != old.accesses:
            dirty_rates[vc.vc_id] = dict(vc.accesses)
    dirty_clusters: dict[int, str] = {}
    for i in thread_positions:
        thread = problem.threads[i]
        if thread.cluster_key != base.threads[i].cluster_key:
            dirty_clusters[thread.thread_id] = thread.cluster_key
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
