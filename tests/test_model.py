"""Analytic engine, metrics, and energy model (repro.model)."""

import pytest

from repro.config import case_study_config, small_test_config
from repro.model.energy import EnergyParams, energy_per_instruction
from repro.model.metrics import (
    gmean,
    inverse_cdf,
    normalize_to,
    per_app_speedups,
    weighted_speedup,
)
from repro.model.system import AnalyticSystem
from repro.nuca import Cdcs, Jigsaw, RNuca, SNuca
from repro.workloads.mixes import case_study_mix, make_mix


@pytest.fixture(scope="module")
def small_system():
    return AnalyticSystem(small_test_config(4, 4))


@pytest.fixture(scope="module")
def small_mix():
    return make_mix(["omnet", "milc", "gcc", "ilbdc"])


@pytest.fixture(scope="module")
def evaluations(small_system, small_mix):
    return {
        s.name: small_system.evaluate(small_mix, s)
        for s in (SNuca(1), RNuca(1), Jigsaw("random", 1), Cdcs(seed=1))
    }


def test_ipcs_bounded_by_core_width(evaluations, small_mix):
    for ev in evaluations.values():
        for t in ev.threads:
            profile = next(
                p.profile for p in small_mix.processes
                if t.process_id == p.process_id
            )
            assert 0 < t.ipc <= 1.0 / profile.base_cpi + 1e-9


def test_miss_ratio_within_bounds(evaluations):
    for ev in evaluations.values():
        for t in ev.threads:
            assert 0.0 <= t.mpki <= t.apki + 1e-9


def test_cdcs_beats_snuca_here(evaluations):
    cdcs = evaluations["CDCS"]
    snuca = evaluations["S-NUCA"]
    assert weighted_speedup(cdcs, snuca) > 1.05


def test_snuca_onchip_latency_is_mean_distance(evaluations, small_system):
    snuca = evaluations["S-NUCA"]
    hop = small_system.config.noc.hop_latency
    for t in snuca.threads:
        expected = 2 * hop * t.mean_hops + small_system.config.cache.bank_latency
        assert t.onchip_latency == pytest.approx(expected)
        assert 1.0 < t.mean_hops < 4.0  # spread over a 4x4 mesh


def test_bandwidth_fixed_point_converged(small_system, small_mix):
    ev = small_system.evaluate(small_mix, SNuca(1))
    assert ev.dram_extra_latency >= 0
    assert 0 <= ev.dram_utilization <= small_system.dram.max_utilization + 1e-9


def test_alone_performance_cached_and_sane(small_system, small_mix):
    alone = small_system.alone_performance(small_mix)
    assert set(alone) == {p.process_id for p in small_mix.processes}
    # Alone >= in any mix (no contention); compare against S-NUCA mix run.
    ev = small_system.evaluate(small_mix, SNuca(1))
    for pid, perf in ev.process_perf.items():
        assert perf <= alone[pid] * 1.02
    again = small_system.alone_performance(small_mix)
    assert again == alone


def test_multithreaded_process_perf_is_harmonic_mean(evaluations, small_mix):
    ev = evaluations["CDCS"]
    ilbdc_pid = next(
        p.process_id for p in small_mix.processes if p.profile.name == "ilbdc"
    )
    ipcs = [t.ipc for t in ev.threads if t.process_id == ilbdc_pid]
    hmean = len(ipcs) / sum(1 / i for i in ipcs)
    assert ev.process_perf[ilbdc_pid] == pytest.approx(hmean)


def test_traffic_breakdown_keys(evaluations):
    for ev in evaluations.values():
        traffic = ev.traffic_per_instr()
        assert set(traffic) == {"L2-LLC", "LLC-Mem", "Other"}
        assert all(v >= 0 for v in traffic.values())


def test_monitor_traffic_only_for_managed_schemes(evaluations):
    assert evaluations["S-NUCA"].traffic_per_instr()["Other"] == 0.0
    assert evaluations["CDCS"].traffic_per_instr()["Other"] > 0.0


def test_energy_breakdown_positive(evaluations):
    for ev in evaluations.values():
        parts = ev.energy.as_dict()
        assert all(v > 0 for v in parts.values())
        assert ev.energy.total == pytest.approx(sum(parts.values()))


# -- the paper's headline case study, as an integration-level assertion -------


@pytest.mark.slow
def test_case_study_ordering_matches_paper():
    system = AnalyticSystem(case_study_config())
    mix = case_study_mix()
    alone = system.alone_performance(mix)
    evals = {
        s.name: system.evaluate(mix, s)
        for s in (SNuca(1), RNuca(1), Jigsaw("clustered", 1),
                  Jigsaw("random", 1), Cdcs(seed=1))
    }
    base = evals["S-NUCA"]
    ws = {
        name: weighted_speedup(ev, base, alone)
        for name, ev in evals.items()
        if name != "S-NUCA"
    }
    # Paper Table 1 ordering: CDCS > Jigsaw variants > R-NUCA > S-NUCA.
    assert ws["CDCS"] > ws["Jigsaw+R"] > ws["R-NUCA"] > 1.0
    assert ws["CDCS"] > ws["Jigsaw+C"]
    # omnet's speedup should be large under CDCS (paper: 4.0x).
    apps = per_app_speedups(evals["CDCS"], base)
    assert apps["omnet"] > 3.0


# -- metrics helpers -----------------------------------------------------------


def test_weighted_speedup_identity(evaluations):
    snuca = evaluations["S-NUCA"]
    assert weighted_speedup(snuca, snuca) == pytest.approx(1.0)


def test_weighted_speedup_with_alone_normalization(evaluations):
    a = evaluations["CDCS"]
    b = evaluations["S-NUCA"]
    alone = {pid: 1.0 for pid in a.process_perf}
    plain = weighted_speedup(a, b)
    normalized = weighted_speedup(a, b, alone)
    assert normalized == pytest.approx(
        sum(a.process_perf.values()) / sum(b.process_perf.values())
    )
    assert plain > 0 and normalized > 0


def test_gmean_and_validation():
    assert gmean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        gmean([])
    with pytest.raises(ValueError):
        gmean([1.0, -1.0])


def test_inverse_cdf_sorted_descending():
    assert inverse_cdf([1.0, 3.0, 2.0]) == [3.0, 2.0, 1.0]


def test_normalize_to():
    out = normalize_to({"a": 2.0, "b": 4.0}, "a")
    assert out == {"a": 1.0, "b": 2.0}
    with pytest.raises(ValueError):
        normalize_to({"a": 0.0}, "a")


def test_energy_static_scales_with_cpi():
    params = EnergyParams()
    slow = energy_per_instruction(params, 2.0, 0.01, 0.1, 0.001)
    fast = energy_per_instruction(params, 1.0, 0.01, 0.1, 0.001)
    assert slow.static == pytest.approx(2 * fast.static)
    assert slow.core == fast.core
    with pytest.raises(ValueError):
        energy_per_instruction(params, 0.0, 0, 0, 0)


def test_evaluate_schemes_merges_its_sharing_solves(monkeypatch):
    """A cold evaluate_mix makes one LRU-sharing call for the solo S-NUCA
    runs of alone_performance and one for the mix's S-NUCA and R-NUCA,
    and every evaluation equals that of the scheme's own run."""
    import numpy as np

    import repro.nuca.base as base_module
    from repro.experiments.sweeps import SweepResult, evaluate_mix, standard_schemes

    config = small_test_config(4, 4)
    mix = make_mix(["omnet", "milc", "gcc", "ilbdc"])
    calls = []
    solve = base_module.solve_sharing_plans

    def counted(plans):
        calls.append(len(plans))
        return solve(plans)

    monkeypatch.setattr(base_module, "solve_sharing_plans", counted)
    schemes = standard_schemes(3)
    evaluations = evaluate_mix(
        config, mix, SweepResult(n_apps=4, n_mixes=1),
        schemes=schemes, system=AnalyticSystem(config),
    )
    assert calls == [4, 2]
    reference = AnalyticSystem(config)
    for scheme in schemes:
        problem = base_module.build_problem(mix, config)
        expected = reference.evaluate_solution(
            mix, problem, scheme.run(problem)
        )
        got = evaluations[scheme.name]
        assert got == expected
        assert got.columns.keys() == expected.columns.keys()
        for name, column in expected.columns.items():
            assert np.array_equal(got.columns[name], column), name
