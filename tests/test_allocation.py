"""Capacity allocation: hulls and Lookahead policies (repro.sched.allocation)."""

import copy
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_test_config
from repro.geometry.mesh import Mesh
from repro.nuca.base import build_problem
from repro.sched import allocation
from repro.sched.allocation import (
    allocate_latency_aware,
    allocate_miss_driven,
    convex_hull_indices,
)
from repro.sched.cost_model import latency_curve, miss_only_curve, vc_access_rates
from repro.sched.opcount import StepCounter
from repro.util.units import kb, mb
from repro.workloads.mixes import make_mix, random_single_threaded_mix


def test_hull_indices_simple():
    values = np.array([10.0, 9.0, 5.0, 4.9, 4.8])
    hull = convex_hull_indices(values)
    assert hull[0] == 0 and hull[-1] == 4
    # Point 1 lies above the chord 0->2 and must be dropped.
    assert 1 not in hull


@given(
    st.lists(st.floats(0, 1000, allow_nan=False), min_size=2, max_size=40)
)
@settings(max_examples=100)
def test_hull_indices_lower_bound_property(values):
    arr = np.array(values)
    hull = convex_hull_indices(arr)
    # Hull interpolation never exceeds the curve.
    interp = np.interp(np.arange(len(arr)), hull, arr[hull])
    assert np.all(interp <= arr + 1e-6)
    # Hull slopes are non-decreasing (convexity).
    slopes = np.diff(arr[hull]) / np.diff(hull)
    assert np.all(np.diff(slopes) >= -1e-9)


def problem_for(names):
    config = small_test_config(4, 4)
    return config, build_problem(make_mix(names), config)


def test_cliff_app_gets_its_working_set():
    config, problem = problem_for(["omnet", "milc", "milc", "milc"])
    sizes = allocate_miss_driven(problem)
    assert sizes[0] >= mb(2.5) - kb(64)  # omnet's 2.5 MB cliff


def test_streaming_app_gets_minimum():
    config, problem = problem_for(["omnet", "milc"])
    sizes = allocate_latency_aware(problem)
    assert sizes[1] <= kb(64)  # milc: one quantum at most


def test_budget_respected():
    config, problem = problem_for(["omnet"] * 4 + ["mcf"] * 4)
    for sizes in (allocate_latency_aware(problem), allocate_miss_driven(problem)):
        assert sum(sizes.values()) <= config.llc_bytes + 1


def test_every_active_vc_gets_capacity():
    """The VTB needs a target for every live VC (min one quantum)."""
    config, problem = problem_for(["milc"] * 8)
    for sizes in (allocate_latency_aware(problem), allocate_miss_driven(problem)):
        for thread_id in range(8):
            assert sizes[thread_id] >= kb(64)


def test_latency_aware_leaves_capacity_unused():
    """Sec IV-C: with few apps, extra capacity costs on-chip latency, so
    CDCS deliberately under-allocates while Jigsaw hands everything out."""
    config, problem = problem_for(["gcc", "milc"])
    cdcs_sizes = allocate_latency_aware(problem)
    jig_sizes = allocate_miss_driven(problem)
    assert sum(cdcs_sizes.values()) < sum(jig_sizes.values())
    assert sum(jig_sizes.values()) == pytest.approx(config.llc_bytes, rel=0.01)


def test_min_quantum_steal_avoids_cliffs():
    """Stealing the mandatory minimum quantum must not take omnet below its
    cliff (the regression this suite guards: a cliff app loses its whole
    benefit if one quantum is shaved)."""
    config, problem = problem_for(
        ["omnet", "omnet", "milc", "milc", "milc", "milc", "mcf", "mcf"]
    )
    sizes = allocate_miss_driven(problem)
    for omnet_thread in (0, 1):
        assert sizes[omnet_thread] >= mb(2.5) - kb(128)


def test_miss_driven_leftover_proportional_to_rate():
    # Two purely streaming apps: Lookahead finds zero utility anywhere, so
    # the whole LLC is leftover, handed out proportionally to access rates
    # (lbm: 32 APKI vs milc: 26 APKI).
    config, problem = problem_for(["lbm", "milc"])
    sizes = allocate_miss_driven(problem)
    assert sizes[0] > sizes[1] > 0
    assert sum(sizes.values()) == pytest.approx(config.llc_bytes, rel=0.01)


def test_allocation_deterministic():
    config, problem = problem_for(["omnet", "mcf", "milc", "gcc"])
    assert allocate_latency_aware(problem) == allocate_latency_aware(problem)


@pytest.fixture
def empty_memo(monkeypatch):
    """A fresh row memo in place of the process's for one test."""
    memo = allocation.RowMemo()
    monkeypatch.setattr(allocation, "_ROW_MEMO", memo)
    return memo


def _row(problem, vc, rate, latency):
    (row,), _, _ = allocation._curve_rows(problem, [vc], [rate], latency)
    return row


def test_row_memo_keys_on_every_input_a_row_reads(empty_memo):
    """A key input changed alone, or equal bytes read as another dtype,
    misses the memo, and the row built for it is the scalar builder's."""
    config, problem = problem_for(["omnet", "milc"])
    vc, other = problem.vcs[:2]
    rate = vc_access_rates(problem)[0]
    curve = vc.miss_curve
    alias = copy.copy(curve)
    alias.sizes = curve.sizes.view(np.int64)
    alias.values = curve.values.view(np.int64)
    assert alias.sizes.tobytes() == curve.sizes.tobytes()
    variants = {
        "dtype alias": (problem, SimpleNamespace(miss_curve=alias), rate),
        "curve": (problem, other, rate),
        "rate": (problem, vc, rate * 2),
        "memory latency": (replace(problem, mem_latency=170.0), vc, rate),
        "quantum": (replace(problem, config=replace(
            config, scheduler=replace(config.scheduler, allocation_quantum=kb(128))
        )), vc, rate),
        "bank bytes": (replace(problem, config=config.with_banks(kb(256), 64)), vc, rate),
    }
    latency_only = {
        "hop cycles": (replace(problem, config=replace(
            config, noc=replace(config.noc, router_latency=4)
        )), vc, rate),
        "distance table": (replace(
            problem, config=config.with_mesh(2, 8), topology=Mesh(2, 8)
        ), vc, rate),
    }
    for latency, cases in ((True, {**variants, **latency_only}), (False, variants)):
        reference = latency_curve if latency else miss_only_curve
        _row(problem, vc, rate, latency)
        for name, (variant, variant_vc, variant_rate) in cases.items():
            before = len(empty_memo)
            row = _row(variant, variant_vc, variant_rate, latency)
            assert len(empty_memo) == before + 1, (latency, name)
            want = reference(variant, variant_vc.miss_curve, variant_rate)
            assert np.array_equal(row, want), (latency, name)
        # Every input equal: a hit, the memo's own row.
        before = len(empty_memo)
        row = _row(problem, vc, rate, latency)
        assert len(empty_memo) == before
        assert row is _row(problem, vc, rate, latency)


def test_memoized_rows_are_read_only(empty_memo):
    config, problem = problem_for(["omnet", "mcf", "milc"])
    rates = vc_access_rates(problem)
    for latency in (True, False):
        for _ in range(2):  # built, then read back from the memo
            rows, _, _ = allocation._curve_rows(problem, problem.vcs, rates, latency)
            for row in rows:
                assert not row.flags.writeable
                with pytest.raises(ValueError):
                    row[0] = 1.0


def test_row_memo_clears_past_its_byte_budget(monkeypatch):
    """Past the budget the memo clears wholesale, never holds more than
    the budget, and a later call rebuilds rows bitwise equal to the
    first build; an entry larger than the budget is not kept."""
    config, problem = problem_for(["omnet", "mcf", "milc", "gcc"])
    vcs = problem.vcs[:4]  # the four thread VCs, four distinct rows
    rates = vc_access_rates(problem, vcs)
    first, hulls, _ = allocation._curve_rows(problem, vcs, rates, True)
    sizes = [row.nbytes + 16 * len(hull) for row, hull in zip(first, hulls)]
    assert 3 * min(sizes) > 2 * max(sizes)  # any two fit, no three do
    memo = allocation.RowMemo(budget_bytes=2 * max(sizes))
    monkeypatch.setattr(allocation, "_ROW_MEMO", memo)
    built = []
    real = allocation.latency_curves_batch

    def counting(problem, rates=None, vc_indices=None):
        built.append(len(problem.vcs))
        return real(problem, rates, vc_indices)

    monkeypatch.setattr(allocation, "latency_curves_batch", counting)
    for vc, rate in zip(vcs, rates):
        allocation._curve_rows(problem, [vc], [rate], True)
        assert 0 < len(memo) <= 2 and memo.nbytes <= memo.budget_bytes
    assert built == [1] * 4
    rows, _, _ = allocation._curve_rows(problem, vcs, rates, True)
    assert built[4:] == [2]  # the two cleared rows are built again
    assert all(np.array_equal(a, b) for a, b in zip(rows, first))
    tiny = allocation.RowMemo(budget_bytes=min(sizes) - 1)
    monkeypatch.setattr(allocation, "_ROW_MEMO", tiny)
    allocation._curve_rows(problem, vcs, rates, True)
    assert len(tiny) == 0 and tiny.nbytes == 0


def _donor_case(monkeypatch):
    """A pinned subset short of budget: every greedy quantum goes to
    one VC and the others take theirs from it as donors."""
    taken = []
    real = allocation._ensure_minimum_quanta

    def recording(rates, sizes, budget, curves):
        before = list(sizes)
        real(rates, sizes, budget, curves)
        taken.append(any(a < b for a, b in zip(sizes, before)))

    monkeypatch.setattr(allocation, "_ensure_minimum_quanta", recording)
    config, problem = problem_for(["omnet", "omnet", "milc", "mcf", "milc", "gcc"])
    vc_ids = {vc.vc_id for vc in problem.vcs[:5]}
    return problem, lambda p, c: allocate_latency_aware(p, c, vc_ids, 4), taken


@pytest.mark.parametrize("case", ["cold latency-aware", "pinned donors", "miss-driven"])
def test_warm_memo_allocates_as_an_empty_one(case, monkeypatch):
    """Sizes and op counts, key order included, are the same through a
    memo that already holds every row as through an empty one."""
    taken = []
    if case == "pinned donors":
        problem, allocate, taken = _donor_case(monkeypatch)
    else:
        problem = build_problem(
            random_single_threaded_mix(12, 5, 0), small_test_config(4, 4)
        )
        allocate = (
            allocate_miss_driven if case == "miss-driven" else allocate_latency_aware
        )
    memo = allocation.RowMemo()
    monkeypatch.setattr(allocation, "_ROW_MEMO", memo)
    runs, entries = [], []
    for _ in range(2):  # empty, then holding every row the call reads
        counter = StepCounter()
        runs.append((allocate(problem, counter), list(counter.ops.items())))
        entries.append(len(memo))
    empty, warm = runs
    assert entries[0] == entries[1] > 0  # the warm call built no row
    assert warm == empty
    if case == "pinned donors":
        assert taken == [True, True]


def reference_minimum_quanta(rates, sizes, budget, curves) -> None:
    """The donor pick the heap replaced: a ``min`` scan over every VC
    above one quantum, the lowest index among equal losses."""
    spare = budget - sum(sizes)
    for i in range(len(sizes)):
        if sizes[i] > 0 or rates[i] <= 0:
            continue
        if spare > 0:
            spare -= 1
        else:
            candidates = [j for j in range(len(sizes)) if sizes[j] > 1]
            if not candidates:
                continue
            donor = min(
                candidates,
                key=lambda j: curves[j][sizes[j] - 1] - curves[j][sizes[j]],
            )
            sizes[donor] -= 1
        sizes[i] = 1


def test_minimum_quanta_donors_match_the_min_scan():
    """Seeded cases with many starved VCs, little or no spare budget,
    and losses drawn from a few values so ties are common: the heap's
    donors leave every size equal to the scan's."""
    rng = np.random.default_rng(11)
    steals = ties = 0
    for _ in range(400):
        n = int(rng.integers(1, 40))
        quanta = 12
        steps = rng.choice([0.0, 0.5, 1.0, 2.0], (n, quanta))
        curves = [np.cumsum(row[::-1])[::-1].copy() for row in steps]
        sizes = [
            int(s) if rng.random() < 0.6 else 0
            for s in rng.integers(1, quanta, n)
        ]
        rates = rng.choice([0.0, 1.0, 3.0], n).tolist()
        budget = sum(sizes) + int(rng.integers(0, 3))
        want = list(sizes)
        reference_minimum_quanta(rates, want, budget, curves)
        got = list(sizes)
        allocation._ensure_minimum_quanta(rates, got, budget, curves)
        assert got == want
        steals += any(g < s for g, s in zip(got, sizes))
        losses = [c[s - 1] - c[s] for c, s in zip(curves, sizes) if s > 1]
        ties += len(set(losses)) < len(losses)
    assert steals > 100 and ties > 100
