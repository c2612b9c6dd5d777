"""Virtual caches, descriptors, and the VTB (repro.vcache)."""

from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.miss_curve import flat_curve
from repro.vcache.descriptor import BucketTarget, VCDescriptor, build_descriptor
from repro.vcache.virtual_cache import VCKind, VirtualCache
from repro.vcache.vtb import VTB


def test_descriptor_apportions_by_capacity():
    desc = build_descriptor({0: 1.0, 1: 3.0}, {0: 5, 1: 6}, num_buckets=64)
    fractions = desc.bank_fractions()
    assert fractions[0] == pytest.approx(0.25)  # paper's 1MB/3MB example
    assert fractions[1] == pytest.approx(0.75)


def test_descriptor_rounding_within_one_bucket():
    alloc = {b: 1.0 for b in range(7)}  # 64/7 is not integral
    desc = build_descriptor(alloc, {b: b for b in alloc}, num_buckets=64)
    counts = {b: f * 64 for b, f in desc.bank_fractions().items()}
    assert sum(counts.values()) == 64
    assert all(abs(c - 64 / 7) <= 1.0 for c in counts.values())


def test_descriptor_lookup_deterministic_and_distributed():
    desc = build_descriptor({0: 1.0, 1: 1.0}, {0: 0, 1: 0}, num_buckets=64)
    targets = [desc.lookup(a) for a in range(4000)]
    assert targets == [desc.lookup(a) for a in range(4000)]
    count0 = sum(1 for t in targets if t.bank == 0)
    assert 1400 < count0 < 2600  # roughly half


def test_descriptor_rejects_empty():
    with pytest.raises(ValueError):
        build_descriptor({}, {})
    with pytest.raises(ValueError):
        build_descriptor({0: 0.0}, {0: 0})
    with pytest.raises(ValueError):
        VCDescriptor([])


@given(
    st.dictionaries(
        st.integers(0, 15),
        st.floats(min_value=0.01, max_value=100.0),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=60)
def test_descriptor_fraction_error_bounded(alloc):
    """Property: bucket apportionment is within one bucket of proportional."""
    desc = build_descriptor(alloc, {b: 1 for b in alloc}, num_buckets=64)
    total = sum(alloc.values())
    for bank, frac in desc.bank_fractions().items():
        assert abs(frac - alloc[bank] / total) <= 1.0 / 64 + 1e-9


def test_vtb_lookup_and_exception_on_miss():
    vtb = VTB(max_entries=3)
    desc = build_descriptor({2: 1.0}, {2: 7}, num_buckets=8)
    vtb.install(1, desc)
    result = vtb.lookup(1, 0xABC)
    assert result.target == BucketTarget(2, 7)
    assert not result.moved
    with pytest.raises(KeyError):
        vtb.lookup(99, 0xABC)  # "exception on miss" (Fig 3)


def test_vtb_capacity_limit():
    vtb = VTB(max_entries=1)
    desc = build_descriptor({0: 1.0}, {0: 0}, num_buckets=4)
    vtb.install(1, desc)
    with pytest.raises(ValueError):
        vtb.install(2, desc)
    vtb.evict(1)
    vtb.install(2, desc)


def test_vtb_shadow_descriptor_lifecycle():
    vtb = VTB()
    old = build_descriptor({0: 1.0}, {0: 0}, num_buckets=8)
    new = build_descriptor({1: 1.0}, {1: 0}, num_buckets=8)
    vtb.install(5, old)
    vtb.begin_reconfiguration(5, new)
    assert vtb.reconfiguring
    result = vtb.lookup(5, 42)
    assert result.target.bank == 1
    assert result.old_target.bank == 0
    assert result.moved
    vtb.end_reconfiguration(5)
    assert not vtb.reconfiguring
    assert vtb.lookup(5, 42).old_target is None


def test_vtb_begin_reconfiguration_installs_when_new():
    vtb = VTB()
    desc = build_descriptor({0: 1.0}, {0: 0}, num_buckets=8)
    vtb.begin_reconfiguration(3, desc)
    assert vtb.lookup(3, 7).target.bank == 0


def test_virtual_cache_properties():
    vc = VirtualCache(
        vc_id=1, kind=VCKind.THREAD, process_id=0,
        miss_curve=flat_curve(1024, 5.0),
        accesses={1: 10.0, 2: 30.0},
        allocation={0: 1000.0, 3: 3000.0},
        owner_thread=1,
    )
    assert vc.size == 4000.0
    assert vc.total_accesses == 40.0
    assert vc.intensity_capacity_product == pytest.approx(160_000.0)
    assert vc.access_fraction(3) == pytest.approx(0.75)
    assert vc.access_fraction(9) == 0.0
    assert vc.misses() == 5.0
    assert "thread" in repr(vc)


@pytest.mark.parametrize("name", [f.name for f in fields(VirtualCache)])
def test_virtual_cache_is_frozen(name):
    vc = VirtualCache(
        vc_id=1, kind=VCKind.THREAD, process_id=0,
        miss_curve=flat_curve(1024, 5.0), accesses={1: 10.0},
    )
    with pytest.raises(FrozenInstanceError):
        setattr(vc, name, getattr(vc, name))
