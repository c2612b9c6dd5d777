"""Workload model: profiles, mixes, stream generator (repro.workloads)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.miss_curve import MissCurve, cliff_curve
from repro.util.units import CACHE_LINE_BYTES, kb, mb
from repro.workloads.generator import StackDistanceStream
from repro.workloads.mixes import (
    case_study_mix,
    fig16_case_study_mix,
    make_mix,
    random_multithreaded_mix,
    random_single_threaded_mix,
)
from repro.workloads.profiles import (
    ALL_PROFILES,
    MULTI_THREADED,
    SINGLE_THREADED,
    get_profile,
)


def measure_miss_curve(addresses: list[int], sizes_bytes: list[float]) -> MissCurve:
    """Exact LRU miss counts of an address stream at the given (ascending)
    cache sizes: the ground truth the generated streams are checked
    against.  One pass with an LRU stack; a hit at recency depth d is a
    hit for every size >= d lines (stack inclusion)."""
    if not addresses:
        raise ValueError("empty address stream")
    depth_hist: dict[int, int] = {}
    stack: list[int] = []
    for addr in addresses:
        try:
            depth = stack.index(addr)
        except ValueError:
            depth = -1
        if depth >= 0:
            stack.pop(depth)
            depth_hist[depth + 1] = depth_hist.get(depth + 1, 0) + 1
        stack.insert(0, addr)
    values = []
    for size in sizes_bytes:
        size_lines = max(int(size // CACHE_LINE_BYTES), 0)
        hits = sum(c for d, c in depth_hist.items() if d <= size_lines)
        values.append(float(len(addresses) - hits))
    return MissCurve([float(s) for s in sizes_bytes], values)


# -- profiles ----------------------------------------------------------------


def test_paper_app_pool_is_complete():
    expected = {
        "bzip2", "gcc", "bwaves", "mcf", "milc", "zeusmp", "cactusADM",
        "leslie3d", "calculix", "GemsFDTD", "libquantum", "lbm", "astar",
        "omnet", "sphinx3", "xalancbmk",
    }
    assert set(SINGLE_THREADED) == expected  # the 16 >=5-MPKI apps (Sec V)


def test_multithreaded_pool_has_fig16_apps():
    for name in ("ilbdc", "md", "mgrid", "nab"):
        assert name in MULTI_THREADED
        assert MULTI_THREADED[name].threads == 8


def test_all_profiles_internally_consistent():
    for name, p in ALL_PROFILES.items():
        assert p.base_cpi > 0, name
        assert p.llc_apki >= 0, name
        # Misses can never exceed accesses.
        assert p.private_curve(0) <= p.private_apki + 1e-9, name
        if p.shared_curve is not None:
            assert p.shared_curve(0) <= p.shared_apki + 1e-9, name


def test_fig2_omnet_cliff():
    omnet = get_profile("omnet")
    assert omnet.private_curve(mb(1)) == pytest.approx(85.0)  # ~85 MPKI
    assert omnet.private_curve(mb(3)) < 5.0  # fits above 2.5 MB


def test_fig2_milc_is_streaming():
    milc = get_profile("milc")
    assert milc.private_curve(0) == milc.private_curve(mb(32))


def test_fig2_ilbdc_small_shared_footprint():
    ilbdc = get_profile("ilbdc")
    assert ilbdc.shared_curve(mb(1)) < 0.2 * ilbdc.shared_curve(0)


def test_total_mpki_uses_both_vcs():
    ilbdc = get_profile("ilbdc")
    full = ilbdc.total_mpki(0, 0)
    assert full == pytest.approx(
        float(ilbdc.private_curve(0)) + float(ilbdc.shared_curve(0))
    )
    assert ilbdc.total_mpki(mb(8), mb(8)) < full


def test_unknown_profile_error_lists_names():
    with pytest.raises(KeyError, match="omnet"):
        get_profile("nonexistent-app")


def test_profile_validation():
    from repro.cache.miss_curve import flat_curve
    from repro.workloads.profiles import AppProfile

    with pytest.raises(ValueError):
        AppProfile("x", base_cpi=0, llc_apki=1, private_curve=flat_curve(1, 1))
    with pytest.raises(ValueError):
        AppProfile(
            "x", base_cpi=1, llc_apki=1, private_curve=flat_curve(1, 1),
            shared_fraction=0.5,  # needs a shared curve
        )


# -- mixes --------------------------------------------------------------------


def test_case_study_mix_composition():
    mix = case_study_mix()
    assert mix.total_threads == 36  # 6 + 14 + 2x8
    assert mix.names.count("omnet") == 6
    assert mix.names.count("milc") == 14
    assert mix.names.count("ilbdc") == 2


def test_fig16_mix_composition():
    mix = fig16_case_study_mix()
    assert mix.total_threads == 32
    assert set(mix.names) == {"mgrid", "md", "ilbdc", "nab"}


def test_thread_ids_contiguous_and_disjoint():
    mix = make_mix(["omnet", "ilbdc", "milc"])
    ids = [t for p in mix.processes for t in p.thread_ids]
    assert ids == list(range(mix.total_threads))


def test_random_mixes_deterministic_per_seed():
    a = random_single_threaded_mix(8, seed=1, mix_id=2)
    b = random_single_threaded_mix(8, seed=1, mix_id=2)
    c = random_single_threaded_mix(8, seed=1, mix_id=3)
    assert a.names == b.names
    assert a.names != c.names or True  # different id, usually different


def test_random_mix_draws_from_correct_pools():
    st_mix = random_single_threaded_mix(20, seed=0)
    assert all(n in SINGLE_THREADED for n in st_mix.names)
    mt_mix = random_multithreaded_mix(4, seed=0)
    assert all(n in MULTI_THREADED for n in mt_mix.names)
    assert mt_mix.total_threads == 32


def test_mix_rejects_empty():
    with pytest.raises(ValueError):
        random_single_threaded_mix(0, seed=1)


def test_fixed_work_instructions():
    mix = make_mix(["milc", "omnet"])
    targets = mix.fixed_work_instructions({"milc": 0.5, "omnet": 0.25})
    assert targets[0] == 500_000_000
    assert targets[1] == 250_000_000


# -- stream generator ----------------------------------------------------------


def test_stream_realizes_cliff_curve():
    curve = cliff_curve(kb(256), 20.0, kb(128), 2.0)
    stream = StackDistanceStream(curve, apki=20.0, seed=3)
    addrs = stream.addresses(20_000)
    measured = measure_miss_curve(addrs, [kb(64), kb(128), kb(256)])
    total = len(addrs)
    assert measured.values[0] / total > 0.9  # thrashes below the cliff
    assert measured.values[-1] / total < 0.3  # mostly hits above it


def test_stream_addresses_respect_base_and_footprint():
    curve = cliff_curve(kb(64), 10.0, kb(32), 1.0)
    stream = StackDistanceStream(
        curve, apki=10.0, footprint_bytes=kb(64), address_base=1 << 20, seed=1
    )
    addrs = stream.addresses(5_000)
    assert all(a >= 1 << 20 for a in addrs)
    assert len(set(addrs)) <= kb(64) // 64


def test_stream_rejects_zero_apki():
    with pytest.raises(ValueError):
        StackDistanceStream(cliff_curve(kb(64), 1, kb(32), 0.1), apki=0)


def test_measure_miss_curve_exact_on_known_stream():
    # a b a b: with >=2 lines of capacity the two re-touches hit.
    addrs = [1, 2, 1, 2]
    curve = measure_miss_curve(addrs, [64, 128, 256])
    assert curve.values[0] == 4  # 1 line: everything misses
    assert curve.values[1] == 2  # 2 lines: both re-touches hit


def test_measure_miss_curve_rejects_empty():
    with pytest.raises(ValueError):
        measure_miss_curve([], [64])


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=20, deadline=None)
def test_measured_misses_monotone_in_capacity(n_lines):
    """Property: LRU miss counts never increase with capacity (stack
    inclusion)."""
    curve = cliff_curve(kb(64), 10.0, kb(16), 1.0)
    stream = StackDistanceStream(curve, apki=10.0, seed=n_lines)
    addrs = stream.addresses(2_000)
    sizes = [64 * k for k in range(1, n_lines + 1)]
    measured = measure_miss_curve(addrs, sizes)
    vals = list(measured.values)
    assert all(a >= b for a, b in zip(vals, vals[1:]))
