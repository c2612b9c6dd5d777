"""The analytic evaluation engine.

Evaluates any scheme's :class:`PlacementSolution` on a mix by composing:

* **Eq 2 geometry** — per-thread expected hops to its data (via each VC's
  per-bank allocation, which encodes the VTB's proportional access spread);
* **miss ratios** — each VC's miss curve at its allocated size;
* **the core model** — CPI from base CPI + exposed memory latency;
* **the DRAM bandwidth fixed point** — IPCs determine miss bandwidth,
  which determines queueing delay, which feeds back into IPCs (damped
  iteration; this is how relieving one app's misses speeds up others, as
  in Table 1's milc).

Outputs per-thread and per-process performance plus the traffic and energy
aggregates that Figs 11, 14 and 15 report.

Every call scores its ``(mix, problem, result)`` items in one stacked pass
(:meth:`AnalyticSystem.evaluate_solution` is the one-item call), each stage
a fixed number of NumPy calls per batch.  Every reduction is a
left-to-right sum (:func:`repro.util.sums.ordered_sums`), bitwise a
Python loop from ``0.0``: ``sum()`` compensates float additions from
Python 3.12 on, so it is never used on floats here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from repro.cache.miss_curve import MissCurveBatch
from repro.config import SystemConfig
from repro.cores.ooo_core import CoreModel
from repro.mem.controller import MemoryControllers
from repro.mem.dram import DramModel
from repro.model.energy import EnergyBreakdown, EnergyParams, energy_per_instruction
from repro.noc.traffic import TrafficClass
from repro.nuca.base import NucaScheme, SchemeResult, build_problem, run_schemes
from repro.sched.cost_model import reader_hops
from repro.sched.problem import PlacementProblem, PlacementSolution
from repro.util.sums import ordered_sums
from repro.util.units import CACHE_LINE_BYTES
from repro.workloads.mixes import Mix

#: Accesses sampled per monitor access (Sec IV-I: "we sample every 64th").
MONITOR_SAMPLE_RATE = 1.0 / 64

#: ``ThreadPerf.traffic_pki`` keys, in the row order of the traffic column.
TRAFFIC_KEYS = tuple(cls.value for cls in TrafficClass)

#: Schemes without utility monitors (no monitor-sample traffic).
_UNMONITORED = ("S-NUCA", "R-NUCA")

_NO_BANKS: dict[int, float] = {}


@dataclass
class ThreadPerf:
    """Steady-state performance of one thread under one scheme."""

    thread_id: int
    process_id: int
    app: str
    core: int
    ipc: float
    cpi: float
    apki: float
    mpki: float
    #: Mean network hops of one LLC access (one way).
    mean_hops: float
    #: Cycles per LLC access spent on-chip (round-trip net + bank).
    onchip_latency: float
    #: Cycles per LLC access spent off-chip (miss ratio x memory latency).
    offchip_latency: float
    #: Flit-hops per kilo-instruction by traffic class.
    traffic_pki: dict[str, float] = field(default_factory=dict)


@dataclass
class MixEvaluation:
    """Everything the benches need from one (mix, scheme) evaluation."""

    scheme: str
    #: process_id -> performance (IPC for single-threaded; harmonic mean of
    #: thread IPCs for multithreaded, modeling barrier-limited progress).
    process_perf: dict[int, float]
    process_app: dict[int, str]
    dram_extra_latency: float
    dram_utilization: float
    energy: EnergyBreakdown
    #: ``(T,)`` columns in thread order, keyed by :class:`ThreadPerf` field
    #: (``traffic_pki`` is ``(3, T)``); :attr:`threads` is built on first read.
    columns: dict[str, np.ndarray] = field(repr=False, compare=False)
    #: Fig 11b-d: on-chip latency per access, off-chip latency per
    #: kilo-instruction, traffic per instruction by class, and its total.
    aggregates: tuple = field(repr=False, compare=False)

    @cached_property
    def threads(self) -> list[ThreadPerf]:
        c = self.columns
        return [
            ThreadPerf(
                tid, pid, app, core, ipc, 1.0 / ipc, apki, mpki, hops,
                onchip, offchip, dict(zip(TRAFFIC_KEYS, traffic)),
            )
            for tid, pid, app, core, ipc, apki, mpki, hops, onchip, offchip,
            traffic in zip(*(c[key].tolist() for key in (
                "thread_id", "process_id", "app", "core", "ipc", "apki",
                "mpki", "mean_hops", "onchip_latency", "offchip_latency",
            )), c["traffic_pki"].T.tolist())
        ]

    # -- aggregates used by Fig 11b-e ---------------------------------------

    def mean_onchip_latency_per_access(self) -> float:
        """Access-weighted mean on-chip *network* latency (Fig 11b)."""
        return self.aggregates[0]

    def offchip_latency_per_kiloinstr(self) -> float:
        """Aggregate off-chip latency per kilo-instruction (Fig 11c)."""
        return self.aggregates[1]

    def traffic_per_instr(self) -> dict[str, float]:
        """IPC-weighted flit-hops per instruction by class (Fig 11d)."""
        return dict(self.aggregates[2])

    def total_traffic_per_instr(self) -> float:
        return self.aggregates[3]


def _padded(lengths: np.ndarray, values, dtype, fill=0) -> np.ndarray:
    """``(len(lengths), width)`` rows, width at least 1: row *i* holds the
    next ``lengths[i]`` items of the iterable *values*, then *fill*."""
    width = max(1, int(lengths.max(initial=0)))
    out = np.full((len(lengths), width), fill, dtype=dtype)
    out[np.arange(width) < lengths[:, None]] = np.fromiter(
        values, dtype, int(lengths.sum())
    )
    return out


def _stacked(blocks: list[np.ndarray], fill) -> np.ndarray:
    """Row blocks stacked, each right-padded with *fill* to the widest."""
    width = max(b.shape[1] for b in blocks)
    return np.concatenate([
        b if b.shape[1] == width else np.concatenate(
            [b, np.full((len(b), width - b.shape[1]), fill, b.dtype)], axis=1
        )
        for b in blocks
    ])


def _lengths(groups) -> np.ndarray:
    return np.fromiter(map(len, groups), np.int64, len(groups))


class _ProblemTables:
    """What the items of one (mix, problem) pair share, as columns: built
    once per call (the sweep's five schemes share one), never memoized."""

    def __init__(self, mix: Mix, problem: PlacementProblem):
        self.topology = problem.topology
        # The read VCs: positive total accessor rate, in problem order.
        readers = [problem.accessor_rates(vc.vc_id) for vc in problem.vcs]
        rates = ordered_sums(_padded(
            _lengths(readers),
            chain.from_iterable(r.values() for r in readers), np.float64,
        ))
        read = (rates > 0).nonzero()[0]
        self.rates = rates[read]
        read_vcs = [problem.vcs[i] for i in read.tolist()]
        self.vc_ids = [vc.vc_id for vc in read_vcs]
        self.curves = [vc.miss_curve for vc in read_vcs]
        self.owners = [vc.owner_thread for vc in read_vcs]

        # Each thread's accesses in vc_accesses order: weight rate / total
        # (zero for a thread without accesses) and the read-VC row, -1
        # where the VC is not read or the thread has no accesses.
        self.thread_ids = [t.thread_id for t in problem.threads]
        accesses = [t.vc_accesses for t in problem.threads]
        counts = _lengths(accesses)
        rates2d = _padded(
            counts, chain.from_iterable(a.values() for a in accesses),
            np.float64,
        )
        total = ordered_sums(rates2d)[:, None]
        self.weights = np.divide(
            rates2d, total, out=np.zeros_like(rates2d), where=total > 0
        )
        row_of = {vc_id: i for i, vc_id in enumerate(self.vc_ids)}.get
        rows = _padded(counts, map(row_of, chain.from_iterable(accesses),
                                   repeat(-1)), np.int64, fill=-1)
        self.vc_rows = np.where(total > 0, rows, -1)

        # Profile columns, through the mix's process of each thread.
        profile_of = {p.process_id: p.profile for p in mix.processes}
        process_of = {t: p.process_id for p in mix.processes for t in p.thread_ids}
        pids = [process_of[t] for t in self.thread_ids]
        profiles = [profile_of[pid] for pid in pids]
        self.columns = {
            "thread_id": np.array(self.thread_ids, dtype=np.int64),
            "process_id": np.array(pids, dtype=np.int64),
            "app": np.array([p.name for p in profiles], dtype=object),
        }
        #: ``(3, T)``: base CPI, LLC APKI and write fraction per thread.
        self.profile = np.array(
            [[p.base_cpi, p.llc_apki, p.write_fraction] for p in profiles],
            dtype=np.float64,
        ).reshape(len(profiles), 3).T

        # Each process's thread positions, in thread order.
        members: dict[int, list[int]] = {}
        for i, pid in enumerate(pids):
            members.setdefault(pid, []).append(i)
        self.process_ids = [p.process_id for p in mix.processes]
        groups = [members.get(pid, []) for pid in self.process_ids]
        if not all(groups):
            raise ValueError("a process of the mix has no thread in the problem")
        self.members = _padded(
            _lengths(groups), chain.from_iterable(groups), np.int64, fill=-1
        )
        self.process_app = {p.process_id: p.profile.name for p in mix.processes}


class AnalyticSystem:
    """Evaluates schemes on mixes for a given chip configuration."""

    def __init__(
        self,
        config: SystemConfig,
        energy_params: EnergyParams | None = None,
        fixed_point_iterations: int = 25,
        damping: float = 0.5,
    ):
        self.config = config
        self.energy_params = energy_params or EnergyParams()
        self.iterations = fixed_point_iterations
        self.damping = damping
        self.core_model = CoreModel(config.core)
        self.dram = DramModel(config.memory)
        self._alone_cache: dict[str, float] = {}

    # -- main entry points ---------------------------------------------------

    def evaluate(self, mix: Mix, scheme: NucaScheme) -> MixEvaluation:
        return self.evaluate_schemes([(mix, scheme)])[0]

    def evaluate_schemes(
        self, pairs: list[tuple[Mix, NucaScheme]]
    ) -> list[MixEvaluation]:
        """:meth:`evaluate` for several (mix, scheme) pairs: one problem
        is built per mix object and shared by its schemes, which treat it
        as read-only; the schemes run through one
        :func:`~repro.nuca.base.run_schemes` call, which merges their
        shared work, and one stacked pass scores every placement."""
        built: dict[int, PlacementProblem] = {}
        for mix, _ in pairs:
            if id(mix) not in built:
                built[id(mix)] = build_problem(mix, self.config)
        problems = [built[id(mix)] for mix, _ in pairs]
        results = run_schemes([
            (scheme, problem) for (_, scheme), problem in zip(pairs, problems)
        ])
        return self.evaluate_solutions_batch([
            (mix, problem, result)
            for (mix, _), problem, result in zip(pairs, problems, results)
        ])

    def alone_performance(self, mix: Mix) -> dict[int, float]:
        """Per-process performance running *alone* on this chip under
        S-NUCA — the normalization reference of the paper's weighted
        speedup (UCP-style, Sec V).  Cached per app name; the apps not
        cached yet are scored in one batch."""
        from repro.nuca.snuca import SNuca
        from repro.workloads.mixes import make_mix

        missing = list(dict.fromkeys(
            proc.profile.name for proc in mix.processes
            if proc.profile.name not in self._alone_cache
        ))
        solo = self.evaluate_schemes(
            [(make_mix([name]), SNuca()) for name in missing]
        )
        for name, evaluation in zip(missing, solo):
            self._alone_cache[name] = evaluation.process_perf[0]
        return {
            proc.process_id: self._alone_cache[proc.profile.name]
            for proc in mix.processes
        }

    def evaluate_solution(
        self, mix: Mix, problem: PlacementProblem, result: SchemeResult
    ) -> MixEvaluation:
        return self.evaluate_solutions_batch([(mix, problem, result)])[0]

    def evaluate_solutions_batch(
        self, items: list[tuple[Mix, PlacementProblem, SchemeResult]]
    ) -> list[MixEvaluation]:
        """Evaluate many (mix, problem, result) triples in one stacked pass.
        Items never mix (every row and reduction is one item's), so item
        *i*'s evaluation is bitwise the same whatever shares the call."""
        if not items:
            return []
        shapes: dict[object, list[int]] = {}
        for i, (_, problem, _) in enumerate(items):
            topo = problem.topology
            shapes.setdefault(topo._shared_cache_key() or id(topo), []).append(i)
        if len(shapes) > 1:  # one pass per chip shape: geometries differ
            out: list = [None] * len(items)
            for idxs in shapes.values():
                scored = self.evaluate_solutions_batch([items[i] for i in idxs])
                for i, evaluation in zip(idxs, scored):
                    out[i] = evaluation
            return out
        by_pair: dict[tuple[int, int], _ProblemTables] = {}
        tables = []
        for mix, problem, _ in items:
            key = (id(mix), id(problem))
            if key not in by_pair:
                by_pair[key] = _ProblemTables(mix, problem)
            tables.append(by_pair[key])
        solutions = [result.solution for _, _, result in items]
        geometry = self._geometry(tables, solutions)
        return self._assemble(items, tables, geometry)

    # -- step 1: placement-dependent geometry --------------------------------

    def _geometry(
        self, tables: list[_ProblemTables], solutions: list[PlacementSolution]
    ) -> dict[str, np.ndarray]:
        """Eq 2 geometry of same-shape items: spread rows are every item's
        read VCs and thread columns every item's threads, item by item."""
        # Spread rows: each read VC's banks and normalized bytes.
        counts = _lengths([t.vc_ids for t in tables])
        row_start = counts.cumsum() - counts
        row_item = np.arange(len(tables)).repeat(counts)
        allocs, sizes = [], []
        for t, solution in zip(tables, solutions):
            allocs += [solution.vc_allocation.get(v, _NO_BANKS) for v in t.vc_ids]
            sizes += [solution.vc_sizes.get(v, 0.0) for v in t.vc_ids]
        lengths = _lengths(allocs)
        bank_idx = _padded(lengths, chain.from_iterable(allocs), np.int64)
        nbytes = _padded(
            lengths, chain.from_iterable(a.values() for a in allocs),
            np.float64,
        )
        total = ordered_sums(nbytes)[:, None]
        # In place: the loop below rewrites every row not divided.
        weights = np.divide(nbytes, total, out=nbytes, where=total > 0)
        for row in (~(total[:, 0] > 0)).nonzero()[0].tolist():
            # A VC with accesses but no capacity: its accesses still hit
            # a home bank (one partition target); use the owner's tile.
            t, solution = tables[row_item[row]], solutions[row_item[row]]
            owner = t.owners[row - row_start[row_item[row]]]
            bank_idx[row], weights[row] = 0, 0.0
            bank_idx[row, 0] = solution.thread_cores.get(
                owner if owner is not None else -1, t.topology.center_tile()
            )
            weights[row, 0] = 1.0

        # Miss ratios min(m, rate) / rate: one curve batch holds each
        # distinct problem's curves once, gathered per row when they repeat.
        rates = np.concatenate([t.rates for t in tables])
        misses = np.empty(0)
        if len(rates):
            unique = list(dict.fromkeys(tables))
            batch = MissCurveBatch([c for t in unique for c in t.curves])
            if len(batch) != len(rates):
                first = dict(zip(unique, np.cumsum(
                    [0] + [len(t.curves) for t in unique]
                ).tolist()))
                shift = np.array([first[t] for t in tables]) - row_start
                batch = batch.take(np.arange(len(rates)) + shift.repeat(counts))
            misses = batch(np.array(sizes, dtype=np.float64))
        row_miss_ratio = np.minimum(misses, rates) / rates

        # Reader pairs: every (thread, read VC) access of an active thread;
        # an unread access points at a zero row past the last spread.
        access_w = _stacked([t.weights for t in tables], 0.0)
        local_rows = _stacked([t.vc_rows for t in tables], -1)
        n_threads = _lengths([t.thread_ids for t in tables])
        core = np.fromiter(
            chain.from_iterable(
                map(solution.thread_cores.__getitem__, t.thread_ids)
                for t, solution in zip(tables, solutions)
            ),
            np.int64, int(n_threads.sum()),
        )
        read = local_rows >= 0
        rows = np.where(
            read, local_rows + row_start.repeat(n_threads)[:, None], len(rates)
        )
        pairs = read.ravel().nonzero()[0]
        pair_row = rows.ravel()[pairs]
        pair_core = core[pairs // read.shape[1]]
        topo = tables[0].topology
        pair_hops, row_mc_hops = reader_hops(
            topo.distance_matrix,
            MemoryControllers(topo, self.config.memory).mean_distance_matrix,
            bank_idx, weights, pair_row, pair_core,
        )

        hops = np.zeros(access_w.size)
        hops[pairs] = pair_hops
        miss_w = access_w * np.concatenate((row_miss_ratio, [0.0]))[rows]
        # Per thread, ordered over its accesses: hops, MC hops, miss ratio.
        mean_hops, mc_hops, miss_ratio = ordered_sums(np.array([
            access_w * hops.reshape(access_w.shape),
            miss_w * np.concatenate((row_mc_hops, [0.0]))[rows],
            miss_w,
        ]))
        # Expected MC hops *given* a miss.
        np.divide(mc_hops, miss_ratio, out=mc_hops, where=miss_ratio > 0)
        return dict(
            bank_idx=bank_idx, weights=weights, row_mc_hops=row_mc_hops,
            pair_row=pair_row, pair_core=pair_core, pair_hops=pair_hops,
            core=core, threads=np.array([mean_hops, mc_hops, miss_ratio]),
        )

    # -- step 2: IPC <-> bandwidth fixed point --------------------------------

    def _solve_bandwidth_fixed_point(
        self, onchip_exposed, mem_base, miss_ratio, base_cpi, apki_k, mpki,
        line_bytes,
    ) -> np.ndarray:
        """The damped fixed point on ``(items, threads)`` rows of its loop
        invariants -> ``(items, 1)`` extra DRAM latencies.  Rows never
        interact: each walks its item's own float64 trajectory."""
        mlp = self.core_model.config.mlp_offchip
        damping, undamped = self.damping, 1.0 - self.damping
        # One item's queueing delay and damping run on floats, ten array
        # calls fewer per iteration (the DRAM model's forms are bitwise
        # equal).
        single = len(mpki) == 1
        if single:
            queueing_delay, extra = self.dram.queueing_delay, 0.0
        else:
            queueing_delay = self.dram.queueing_delay_batch
            extra = np.zeros((len(mpki), 1))
        for _ in range(self.iterations):
            ipc = 1.0 / (
                base_cpi
                + apki_k * (onchip_exposed + miss_ratio * (mem_base + extra) / mlp)
            )
            demand = (ipc * mpki / 1000.0 * line_bytes).cumsum(axis=1)[:, -1:]
            if single:
                demand = demand.item()
            extra = damping * extra + undamped * queueing_delay(demand)
        return np.array(extra).reshape(-1, 1)

    # -- step 3: assemble the evaluations -------------------------------------

    def _assemble(
        self,
        items: list[tuple[Mix, PlacementProblem, SchemeResult]],
        tables: list[_ProblemTables],
        geometry: dict[str, np.ndarray],
    ) -> list[MixEvaluation]:
        noc = self.config.noc
        n = len(items)
        n_threads = _lengths([t.thread_ids for t in tables])
        width = max(1, int(n_threads.max()))
        present = np.arange(width) < n_threads[:, None]
        # Thread columns, flat over the batch, as (items, width) rows.  Pad
        # threads run at infinite CPI: IPC 0, so they add nothing.
        columns = np.concatenate([
            geometry["threads"], np.concatenate([t.profile for t in tables], axis=1)
        ])
        if present.all():
            rows = columns.reshape(6, n, width)
        else:
            rows = np.empty((6, n, width))
            rows[:] = np.array([0.0, 0.0, 0.0, np.inf, 0.0, 0.0])[:, None, None]
            rows[:, present] = columns
        mean_hops, mc_hops, miss_ratio, base_cpi, apki, write_fraction = rows
        hop_cycles = 2.0 * noc.hop_latency
        onchip = hop_cycles * mean_hops + self.config.cache.bank_latency
        mem_base = hop_cycles * mc_hops + self.config.memory.zero_load_latency
        onchip_exposed = onchip / self.core_model.config.mlp_onchip
        apki_k = apki / 1000.0
        mpki = apki * miss_ratio
        # The line bytes each miss moves, dirty writebacks included:
        # (x * 64) * y == x * (64 * y) exactly, 64 being a power of two.
        line_bytes = CACHE_LINE_BYTES * (1.0 + write_fraction)
        extra = self._solve_bandwidth_fixed_point(
            onchip_exposed, mem_base, miss_ratio, base_cpi, apki_k, mpki,
            line_bytes,
        )

        # Per-thread results at the converged latency.
        offchip = miss_ratio * (mem_base + extra)
        if (onchip < 0).any() or (offchip < 0).any():
            raise ValueError("latencies cannot be negative")
        ipc = 1.0 / (
            base_cpi
            + apki_k * (onchip_exposed + offchip / self.core_model.config.mlp_offchip)
        )
        demand = ordered_sums(ipc * mpki / 1000.0 * line_bytes)
        data_flits = noc.flits_for_bytes(CACHE_LINE_BYTES)
        # L2<->LLC: request (1 flit) + data response, plus L2 writebacks;
        # LLC<->Mem: miss request + fill + dirty writebacks to memory.
        rates = np.array([apki, mpki])
        distance = np.array([mean_hops, mc_hops])
        moved = (
            rates * (1 + data_flits) * distance
            + rates * write_fraction * data_flits * distance
        )
        # Other: monitor samples routed to the VC's fixed GMON location.
        monitored = [[r.name not in _UNMONITORED] for _, _, r in items]
        other = np.where(monitored, apki * MONITOR_SAMPLE_RATE * mean_hops, 0.0)
        traffic = np.concatenate([moved, other[None]])

        # Aggregates, each a thread-order sum per item.
        sums = ordered_sums(np.concatenate([
            ipc[None],
            ipc * rates / 1000.0,
            ipc * traffic / 1000.0,
            np.array([apki, apki * onchip, apki * offchip]),
        ]))
        total_ipc = sums[0]
        accesses = np.divide(
            sums[1:3], total_ipc, out=np.zeros((2, n)), where=total_ipc != 0
        )
        per_class = np.divide(
            sums[3:6], total_ipc, out=np.zeros((3, n)), where=~(total_ipc <= 0)
        )
        flit_hops = ordered_sums(per_class.T)
        cpi = np.divide(1.0, total_ipc, out=np.ones(n), where=total_ipc > 0)
        onchip_per_access = np.divide(
            sums[7], sums[6], out=np.zeros(n), where=sums[6] != 0
        )
        offchip_per_ki = sums[8] / np.maximum(n_threads, 1)

        # process_perf: a lone thread's IPC, or the harmonic mean of the
        # threads' IPCs (barrier-limited data-parallel progress).  Pad
        # slots read -inf, whose reciprocal -0.0 adds nothing.
        members = _stacked([t.members for t in tables], -1)
        member_ipc = np.concatenate((ipc.ravel(), [-np.inf]))[np.where(
            members >= 0,
            members + (np.arange(n) * width).repeat(
                _lengths([t.process_ids for t in tables])
            )[:, None],
            ipc.size,
        )]
        size = (members >= 0).sum(axis=1)
        perf = np.where(
            size == 1, member_ipc[:, 0], size / ordered_sums(1.0 / member_ipc)
        ).tolist()

        per_thread = {
            "ipc": ipc, "apki": apki, "mpki": mpki, "mean_hops": mean_hops,
            "onchip_latency": onchip, "offchip_latency": offchip,
        }
        out = []
        thread_start = proc_start = 0
        for i, (t, (_, _, result)) in enumerate(zip(tables, items)):
            k, p = len(t.thread_ids), len(t.process_ids)
            llc, dram = accesses[:, i].tolist()
            out.append(MixEvaluation(
                scheme=result.name,
                process_perf=dict(zip(t.process_ids, perf[proc_start:proc_start + p])),
                process_app=dict(t.process_app),
                dram_extra_latency=float(extra[i, 0]),
                dram_utilization=self.dram.utilization(float(demand[i])),
                energy=energy_per_instruction(
                    self.energy_params,
                    aggregate_cpi=float(cpi[i]),
                    llc_accesses_per_instr=llc,
                    flit_hops_per_instr=float(flit_hops[i]),
                    dram_accesses_per_instr=dram,
                ),
                columns={
                    **t.columns, **{key: c[i, :k] for key, c in per_thread.items()},
                    "core": geometry["core"][thread_start:thread_start + k],
                    "traffic_pki": traffic[:, i, :k],
                },
                aggregates=(
                    float(onchip_per_access[i]), float(offchip_per_ki[i]),
                    dict(zip(TRAFFIC_KEYS, per_class[:, i].tolist())),
                    float(flit_hops[i]),
                ),
            ))
            thread_start += k
            proc_start += p
        return out
