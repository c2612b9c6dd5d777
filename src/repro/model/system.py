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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import SystemConfig
from repro.kernels import use_vectorized
from repro.cores.ooo_core import CoreModel
from repro.mem.controller import MemoryControllers
from repro.mem.dram import DramModel
from repro.model.energy import EnergyBreakdown, EnergyParams, energy_per_instruction
from repro.noc.traffic import TrafficClass
from repro.nuca.base import NucaScheme, SchemeResult, build_problem
from repro.sched.cost_model import reader_hops
from repro.sched.problem import PlacementProblem
from repro.util.units import CACHE_LINE_BYTES
from repro.workloads.mixes import Mix

#: Accesses sampled per monitor access (Sec IV-I: "we sample every 64th").
MONITOR_SAMPLE_RATE = 1.0 / 64


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
    threads: list[ThreadPerf]
    #: process_id -> performance (IPC for single-threaded; harmonic mean of
    #: thread IPCs for multithreaded, modeling barrier-limited progress).
    process_perf: dict[int, float]
    process_app: dict[int, str]
    dram_extra_latency: float
    dram_utilization: float
    energy: EnergyBreakdown

    # -- aggregates used by Fig 11b-e ---------------------------------------

    def mean_onchip_latency_per_access(self) -> float:
        """Access-weighted mean on-chip *network* latency (Fig 11b)."""
        num = sum(t.apki * (t.onchip_latency - 0.0) for t in self.threads)
        den = sum(t.apki for t in self.threads)
        return num / den if den else 0.0

    def offchip_latency_per_kiloinstr(self) -> float:
        """Aggregate off-chip latency per kilo-instruction (Fig 11c)."""
        return sum(t.apki * t.offchip_latency for t in self.threads) / max(
            len(self.threads), 1
        )

    def traffic_per_instr(self) -> dict[str, float]:
        """IPC-weighted flit-hops per instruction by class (Fig 11d)."""
        total_ipc = sum(t.ipc for t in self.threads)
        out = {cls.value: 0.0 for cls in TrafficClass}
        if total_ipc <= 0:
            return out
        for t in self.threads:
            for cls, value in t.traffic_pki.items():
                out[cls] += t.ipc * value / 1000.0
        return {cls: v / total_ipc for cls, v in out.items()}

    def total_traffic_per_instr(self) -> float:
        return sum(self.traffic_per_instr().values())


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

    # -- main entry points ---------------------------------------------------

    def evaluate(self, mix: Mix, scheme: NucaScheme) -> MixEvaluation:
        problem = build_problem(mix, self.config)
        result = scheme.run(problem)
        return self.evaluate_solution(mix, problem, result)

    def alone_performance(self, mix: Mix) -> dict[int, float]:
        """Per-process performance running *alone* on this chip under
        S-NUCA — the normalization reference of the paper's weighted
        speedup (UCP-style, Sec V).  Cached per app name."""
        from repro.nuca.snuca import SNuca
        from repro.workloads.mixes import make_mix

        if not hasattr(self, "_alone_cache"):
            self._alone_cache: dict[str, float] = {}
        out: dict[int, float] = {}
        for proc in mix.processes:
            name = proc.profile.name
            if name not in self._alone_cache:
                solo = make_mix([name])
                evaluation = self.evaluate(solo, SNuca())
                self._alone_cache[name] = evaluation.process_perf[0]
            out[proc.process_id] = self._alone_cache[name]
        return out

    def evaluate_solution(
        self, mix: Mix, problem: PlacementProblem, result: SchemeResult
    ) -> MixEvaluation:
        geometry = self._thread_geometry(mix, problem, result)
        dram_extra = self._solve_bandwidth_fixed_point(geometry)
        return self._finalize(mix, problem, result, geometry, dram_extra)

    def evaluate_solutions_batch(
        self, items: list[tuple[Mix, PlacementProblem, SchemeResult]]
    ) -> list[MixEvaluation]:
        """Evaluate many (mix, problem, result) triples as stacked passes.

        The mega-batch runner's scoring kernel: each item's geometry is
        :meth:`_thread_geometry`'s (hop sums only at the cores that read
        each VC), and the 25-iteration DRAM bandwidth fixed point runs
        once per thread-count cohort as (B, T) row operations.  Item *i*'s
        evaluation is bitwise-identical to ``evaluate_solution(*items[i])``
        — rows never mix, reductions keep per-row sequential order, and
        the final assembly is the per-item :meth:`_finalize` verbatim.
        """
        if not use_vectorized() or len(items) <= 1:
            return [self.evaluate_solution(*item) for item in items]
        geometries = [self._thread_geometry(*item) for item in items]
        dram_extra = [0.0] * len(items)
        cohorts: dict[int, list[int]] = {}
        for i, geometry in enumerate(geometries):
            if geometry:
                cohorts.setdefault(len(geometry), []).append(i)
            # else: empty geometry has zero demand, dram_extra stays 0.0
        for idxs in cohorts.values():
            columns = [self._geometry_arrays(geometries[i]) for i in idxs]
            stacked = {
                key: np.stack([arrays[key] for arrays in columns])
                for key in columns[0]
            }
            extras = self._solve_bandwidth_fixed_point_rows(stacked)
            for row, i in enumerate(idxs):
                dram_extra[i] = float(extras[row])
        return [
            self._finalize(mix, problem, result, geometries[i], dram_extra[i])
            for i, (mix, problem, result) in enumerate(items)
        ]

    # -- step 1: placement-dependent geometry --------------------------------

    def _spread_tables(
        self, problem: PlacementProblem, result: SchemeResult
    ) -> tuple[dict[int, dict[int, float]], dict[int, float]]:
        """Per-VC normalized access spread over banks and miss ratio."""
        topo = problem.topology
        solution = result.solution
        vc_spread: dict[int, dict[int, float]] = {}
        vc_miss_ratio: dict[int, float] = {}
        for vc in problem.vcs:
            rate = sum(problem.accessors_of(vc.vc_id).values())
            if rate <= 0:
                continue
            alloc = solution.vc_allocation.get(vc.vc_id, {})
            total = sum(alloc.values())
            if total > 0:
                vc_spread[vc.vc_id] = {b: v / total for b, v in alloc.items()}
            else:
                # A VC with accesses but no capacity: its accesses still hit
                # a home bank (one partition target); use the owner's tile.
                home = solution.thread_cores.get(
                    vc.owner_thread if vc.owner_thread is not None else -1,
                    topo.center_tile(),
                )
                vc_spread[vc.vc_id] = {home: 1.0}
            size = solution.vc_sizes.get(vc.vc_id, 0.0)
            vc_miss_ratio[vc.vc_id] = min(float(vc.miss_curve(size)), rate) / rate
        return vc_spread, vc_miss_ratio

    @staticmethod
    def _vc_hop_tables(
        problem: PlacementProblem,
        result: SchemeResult,
        dist,
        mc_dist: np.ndarray,
        vc_spread: dict[int, dict[int, float]],
    ) -> tuple[dict[tuple[int, int], float], dict[int, float]]:
        """Per VC, the expected access distance from each core that reads
        it — keyed ``(vc_id, core)`` for every VC named in the
        ``vc_accesses`` of a thread with accesses, exactly the lookups
        :meth:`_geometry_from_spreads` makes — and the expected
        memory-controller distance (terms accumulate in the spread's
        iteration order via cumsum, bitwise the scalar sums)."""
        if not vc_spread:
            return {}, {}
        position = {vc_id: i for i, vc_id in enumerate(vc_spread)}
        cores = result.solution.thread_cores
        pairs = dict.fromkeys(
            (vc_id, cores[thread.thread_id])
            for thread in problem.threads
            if thread.total_accesses > 0
            for vc_id in thread.vc_accesses
            if vc_id in position
        )
        hops, mc_hops = reader_hops(
            dist,
            mc_dist,
            [
                (
                    np.fromiter(spread.keys(), np.int64, len(spread)),
                    np.fromiter(spread.values(), np.float64, len(spread)),
                )
                for spread in vc_spread.values()
            ],
            np.fromiter((position[v] for v, _ in pairs), np.int64, len(pairs)),
            np.fromiter((core for _, core in pairs), np.int64, len(pairs)),
        )
        return dict(zip(pairs, hops)), dict(zip(vc_spread, mc_hops.tolist()))

    def _thread_geometry(
        self, mix: Mix, problem: PlacementProblem, result: SchemeResult
    ) -> list[dict]:
        topo = problem.topology
        dist = topo.distance_matrix
        mcs = MemoryControllers(topo, self.config.memory)  # type: ignore[arg-type]
        mc_dist = mcs.mean_distance_matrix

        vc_spread, vc_miss_ratio = self._spread_tables(problem, result)
        vc_core_hops: dict[tuple[int, int], float] = {}
        vc_mc_hops: dict[int, float] = {}
        if use_vectorized():
            vc_core_hops, vc_mc_hops = self._vc_hop_tables(
                problem, result, dist, mc_dist, vc_spread
            )
        return self._geometry_from_spreads(
            mix, problem, result, dist, mc_dist,
            vc_spread, vc_miss_ratio, vc_core_hops, vc_mc_hops,
        )

    def _geometry_from_spreads(
        self,
        mix: Mix,
        problem: PlacementProblem,
        result: SchemeResult,
        dist,
        mc_dist: np.ndarray,
        vc_spread: dict[int, dict[int, float]],
        vc_miss_ratio: dict[int, float],
        vc_core_hops: dict[tuple[int, int], float],
        vc_mc_hops: dict[int, float],
    ) -> list[dict]:
        profile_of = {p.process_id: p.profile for p in mix.processes}
        solution = result.solution
        process_of_thread = {
            t: p.process_id for p in mix.processes for t in p.thread_ids
        }
        geometry = []
        for thread in problem.threads:
            core = solution.thread_cores[thread.thread_id]
            profile = profile_of[process_of_thread[thread.thread_id]]
            total_rate = thread.total_accesses
            e_hops = 0.0
            e_mc_hops = 0.0
            miss_ratio = 0.0
            if total_rate > 0:
                for vc_id, rate in thread.vc_accesses.items():
                    w = rate / total_rate
                    mu = vc_miss_ratio.get(vc_id, 0.0)
                    if vc_id in vc_mc_hops:
                        d = vc_core_hops[vc_id, core]
                        dm = vc_mc_hops[vc_id]
                    else:
                        spread = vc_spread.get(vc_id, {})
                        d = sum(frac * dist[core, b] for b, frac in spread.items())
                        dm = sum(frac * mc_dist[b] for b, frac in spread.items())
                    e_hops += w * d
                    e_mc_hops += w * mu * dm
                    miss_ratio += w * mu
                if miss_ratio > 0:
                    e_mc_hops /= miss_ratio  # expected MC hops *given* a miss
            geometry.append(
                {
                    "thread": thread,
                    "core": core,
                    "profile": profile,
                    "process_id": process_of_thread[thread.thread_id],
                    "mean_hops": e_hops,
                    "mc_hops": e_mc_hops,
                    "miss_ratio": miss_ratio,
                }
            )
        return geometry

    # -- step 2: IPC <-> bandwidth fixed point --------------------------------

    def _access_latency(self, geo: dict, dram_extra: float) -> tuple[float, float]:
        """(on-chip, off-chip) cycles per LLC access for one thread."""
        noc = self.config.noc
        onchip = 2.0 * noc.hop_latency * geo["mean_hops"] + self.config.cache.bank_latency
        mem_lat = (
            2.0 * noc.hop_latency * geo["mc_hops"]
            + self.config.memory.zero_load_latency
            + dram_extra
        )
        offchip = geo["miss_ratio"] * mem_lat
        return onchip, offchip

    def _thread_ipc(self, geo: dict, dram_extra: float) -> float:
        onchip, offchip = self._access_latency(geo, dram_extra)
        profile = geo["profile"]
        return self.core_model.ipc(
            profile.base_cpi, profile.llc_apki, onchip, offchip
        )

    def _geometry_arrays(self, geometry: list[dict]) -> dict[str, np.ndarray]:
        """Per-thread state as (T,) float64 columns for the vectorized
        bandwidth fixed point (mean/MC hops, miss ratio, profile scalars)."""
        def column(fn) -> np.ndarray:
            return np.array([fn(geo) for geo in geometry], dtype=np.float64)

        return {
            "mean_hops": column(lambda g: g["mean_hops"]),
            "mc_hops": column(lambda g: g["mc_hops"]),
            "miss_ratio": column(lambda g: g["miss_ratio"]),
            "base_cpi": column(lambda g: g["profile"].base_cpi),
            "apki": column(lambda g: g["profile"].llc_apki),
            "write_fraction": column(lambda g: g["profile"].write_fraction),
        }

    def _demand_from_arrays(
        self, arrays: dict[str, np.ndarray], dram_extra: float
    ) -> float:
        """Vectorized :meth:`_demand`: every thread's IPC and miss
        bandwidth in whole-column operations, reduced with sequential adds
        (bitwise the scalar thread loop)."""
        noc = self.config.noc
        core = self.core_model.config
        onchip = (
            2.0 * noc.hop_latency * arrays["mean_hops"]
            + self.config.cache.bank_latency
        )
        mem_lat = (
            2.0 * noc.hop_latency * arrays["mc_hops"]
            + self.config.memory.zero_load_latency
            + dram_extra
        )
        offchip = arrays["miss_ratio"] * mem_lat
        exposed = onchip / core.mlp_onchip + offchip / core.mlp_offchip
        cpi = arrays["base_cpi"] + (arrays["apki"] / 1000.0) * exposed
        ipc = 1.0 / cpi
        mpki = arrays["apki"] * arrays["miss_ratio"]
        misses_per_cycle = ipc * mpki / 1000.0
        terms = (
            misses_per_cycle
            * CACHE_LINE_BYTES
            * (1.0 + arrays["write_fraction"])
        )
        return float(np.cumsum(terms)[-1]) if len(terms) else 0.0

    def _demand(self, geometry: list[dict], dram_extra: float) -> float:
        """DRAM bytes/cycle demanded at the given extra latency."""
        if use_vectorized() and geometry:
            return self._demand_from_arrays(
                self._geometry_arrays(geometry), dram_extra
            )
        demand = 0.0
        for geo in geometry:
            ipc = self._thread_ipc(geo, dram_extra)
            profile = geo["profile"]
            mpki = profile.llc_apki * geo["miss_ratio"]
            misses_per_cycle = ipc * mpki / 1000.0
            demand += (
                misses_per_cycle
                * CACHE_LINE_BYTES
                * (1.0 + profile.write_fraction)
            )
        return demand

    def _solve_bandwidth_fixed_point(self, geometry: list[dict]) -> float:
        dram_extra = 0.0
        if use_vectorized() and geometry:
            # Build the (T,) columns once; 25 damped iterations then run as
            # pure array math.
            arrays = self._geometry_arrays(geometry)
            for _ in range(self.iterations):
                demand = self._demand_from_arrays(arrays, dram_extra)
                target = self.dram.queueing_delay(demand)
                dram_extra = (
                    self.damping * dram_extra + (1.0 - self.damping) * target
                )
            return dram_extra
        for _ in range(self.iterations):
            demand = self._demand(geometry, dram_extra)
            target = self.dram.queueing_delay(demand)
            dram_extra = (
                self.damping * dram_extra + (1.0 - self.damping) * target
            )
        return dram_extra

    def _demand_rows(
        self, stacked: dict[str, np.ndarray], dram_extra: np.ndarray
    ) -> np.ndarray:
        """Row-wise :meth:`_demand_from_arrays` over (B, T) stacks: the
        same elementwise expressions with a per-row extra latency, reduced
        per row with sequential adds (cumsum along the thread axis), so
        row *b* is bitwise the single-item column reduction."""
        noc = self.config.noc
        core = self.core_model.config
        onchip = (
            2.0 * noc.hop_latency * stacked["mean_hops"]
            + self.config.cache.bank_latency
        )
        mem_lat = (
            2.0 * noc.hop_latency * stacked["mc_hops"]
            + self.config.memory.zero_load_latency
            + dram_extra[:, None]
        )
        offchip = stacked["miss_ratio"] * mem_lat
        exposed = onchip / core.mlp_onchip + offchip / core.mlp_offchip
        cpi = stacked["base_cpi"] + (stacked["apki"] / 1000.0) * exposed
        ipc = 1.0 / cpi
        mpki = stacked["apki"] * stacked["miss_ratio"]
        misses_per_cycle = ipc * mpki / 1000.0
        terms = (
            misses_per_cycle
            * CACHE_LINE_BYTES
            * (1.0 + stacked["write_fraction"])
        )
        return np.cumsum(terms, axis=1)[:, -1]

    def _solve_bandwidth_fixed_point_rows(
        self, stacked: dict[str, np.ndarray]
    ) -> np.ndarray:
        """The damped fixed point for B same-thread-count evaluations at
        once.  Rows never interact: demand, queueing delay, and damping are
        all elementwise, so row *b* walks the exact float64 trajectory of
        :meth:`_solve_bandwidth_fixed_point` on item *b* alone."""
        rows = next(iter(stacked.values())).shape[0]
        dram_extra = np.zeros(rows, dtype=np.float64)
        for _ in range(self.iterations):
            demand = self._demand_rows(stacked, dram_extra)
            target = self.dram.queueing_delay_batch(demand)
            dram_extra = (
                self.damping * dram_extra + (1.0 - self.damping) * target
            )
        return dram_extra

    # -- step 3: assemble the evaluation --------------------------------------

    def _finalize(
        self,
        mix: Mix,
        problem: PlacementProblem,
        result: SchemeResult,
        geometry: list[dict],
        dram_extra: float,
    ) -> MixEvaluation:
        noc = self.config.noc
        has_monitors = result.name not in ("S-NUCA", "R-NUCA")
        data_flits = noc.flits_for_bytes(CACHE_LINE_BYTES)
        threads: list[ThreadPerf] = []
        for geo in geometry:
            profile = geo["profile"]
            onchip, offchip = self._access_latency(geo, dram_extra)
            ipc = self._thread_ipc(geo, dram_extra)
            apki = profile.llc_apki
            mpki = apki * geo["miss_ratio"]
            # L2<->LLC: request (1 flit) + data response, plus L2 writebacks.
            l2_llc = apki * (1 + data_flits) * geo["mean_hops"]
            l2_llc += apki * profile.write_fraction * data_flits * geo["mean_hops"]
            # LLC<->Mem: miss request + fill + dirty writebacks to memory.
            llc_mem = mpki * (1 + data_flits) * geo["mc_hops"]
            llc_mem += mpki * profile.write_fraction * data_flits * geo["mc_hops"]
            # Other: monitor samples routed to the VC's fixed GMON location.
            other = 0.0
            if has_monitors:
                other = apki * MONITOR_SAMPLE_RATE * geo["mean_hops"]
            threads.append(
                ThreadPerf(
                    thread_id=geo["thread"].thread_id,
                    process_id=geo["process_id"],
                    app=profile.name,
                    core=geo["core"],
                    ipc=ipc,
                    cpi=1.0 / ipc,
                    apki=apki,
                    mpki=mpki,
                    mean_hops=geo["mean_hops"],
                    onchip_latency=onchip,
                    offchip_latency=offchip,
                    traffic_pki={
                        TrafficClass.L2_LLC.value: l2_llc,
                        TrafficClass.LLC_MEM.value: llc_mem,
                        TrafficClass.OTHER.value: other,
                    },
                )
            )

        process_perf: dict[int, float] = {}
        process_app: dict[int, str] = {}
        for proc in mix.processes:
            ipcs = [t.ipc for t in threads if t.process_id == proc.process_id]
            process_app[proc.process_id] = proc.profile.name
            if len(ipcs) == 1:
                process_perf[proc.process_id] = ipcs[0]
            else:
                # Barrier-limited data-parallel progress: harmonic mean.
                process_perf[proc.process_id] = len(ipcs) / sum(
                    1.0 / i for i in ipcs
                )

        total_ipc = sum(t.ipc for t in threads)

        def weighted(key: str) -> float:
            if total_ipc <= 0:
                return 0.0
            return (
                sum(t.ipc * t.traffic_pki[key] / 1000.0 for t in threads)
                / total_ipc
            )
        flit_hops_per_instr = sum(
            weighted(cls.value) for cls in TrafficClass
        )
        llc_accesses_per_instr = (
            sum(t.ipc * t.apki / 1000.0 for t in threads) / total_ipc
            if total_ipc
            else 0.0
        )
        dram_accesses_per_instr = (
            sum(t.ipc * t.mpki / 1000.0 for t in threads) / total_ipc
            if total_ipc
            else 0.0
        )
        energy = energy_per_instruction(
            self.energy_params,
            aggregate_cpi=1.0 / total_ipc if total_ipc > 0 else 1.0,
            llc_accesses_per_instr=llc_accesses_per_instr,
            flit_hops_per_instr=flit_hops_per_instr,
            dram_accesses_per_instr=dram_accesses_per_instr,
        )
        demand = self._demand(geometry, dram_extra)
        return MixEvaluation(
            scheme=result.name,
            threads=threads,
            process_perf=process_perf,
            process_app=process_app,
            dram_extra_latency=dram_extra,
            dram_utilization=self.dram.utilization(demand),
            energy=energy,
        )
