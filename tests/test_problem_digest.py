"""``problem_digest`` against ``content_digest`` as the oracle.

The delta-telemetry anchor hashes a fixed structural encoding of a
:class:`~repro.sched.problem.PlacementProblem` instead of walking it
through the generic ``canonical_repr``.  The contract: two problems get
equal digests exactly when ``content_digest`` calls them equal.  These
tests check it over a corpus of real problems (the golden fig11 mix,
the epochs of two small phased chips, and the problems the service
patched from their deltas), over every single-field change, over dict
insertion order, over exotic leaf and record types, and across
interpreters with different hash seeds.
"""

import itertools
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from repro.cache.miss_curve import MissCurve
from repro.config import small_test_config
from repro.geometry.mesh import Mesh
from repro.nuca.base import build_problem
from repro.sched.problem import RECORD_DIGESTS, PlacementProblem, ThreadSpec
from repro.service import problem_digest
from repro.testing import golden_problem, small_problem
from repro.util.hashing import content_digest
from repro.vcache.virtual_cache import VCKind, VirtualCache
from repro.workloads.mixes import random_multithreaded_mix

SRC = Path(__file__).resolve().parent.parent / "src"


def _assert_equivalent(problems):
    """Pairwise: equal digests exactly when content_digest is equal."""
    digests = [problem_digest(p) for p in problems]
    oracle = [content_digest(p) for p in problems]
    equal_pairs = 0
    for i, j in itertools.combinations(range(len(problems)), 2):
        same = oracle[i] == oracle[j]
        assert (digests[i] == digests[j]) == same, (i, j)
        equal_pairs += same
    return equal_pairs


def test_digest_matches_content_digest_over_corpus(served_problems):
    corpus = [golden_problem()]
    patched_pairs = []
    for mix_id in (0, 1):
        pairs = served_problems(mix_id=mix_id)
        corpus += [problem for pair in pairs for problem in pair]
        patched_pairs += pairs[1:]
    equal_pairs = _assert_equivalent(corpus)
    assert len({content_digest(p) for p in corpus}) >= 8
    # The problems the service patched from deltas must anchor the next
    # delta: same content, same digest (stationary epochs re-solve the
    # base object itself; moved ones build new objects).
    assert any(patched is not client for client, patched in patched_pairs)
    for client_problem, patched in patched_pairs:
        assert problem_digest(patched) == problem_digest(client_problem)
    assert equal_pairs >= len(patched_pairs)


def test_digest_is_memoized_in_the_single_slot():
    problem, _ = small_problem(apps=8)
    digest = problem_digest(problem)
    assert problem._memo["digest"] == digest
    assert problem_digest(problem) is digest


def test_memos_set_no_attribute_on_the_problem():
    problem, _ = small_problem(apps=8)
    before = set(vars(problem))
    problem_digest(problem)
    assert set(vars(problem)) == before
    # The digest and its per-record digest lists.
    assert "digest" in problem._memo and RECORD_DIGESTS in problem._memo
    assert len(problem._memo) == 2


# -- every single-field change -------------------------------------------------


def _flip_last_bit(array: np.ndarray) -> np.ndarray:
    out = array.copy()
    out.view(np.uint64)[-1] ^= 1
    return out


def _bump(rates: dict) -> dict:
    """*rates* with its first rate moved by one ulp."""
    out = dict(rates)
    key = next(iter(out))
    out[key] = float(np.nextafter(out[key], np.inf))
    return out


VC_MUTATIONS = {
    "vc_id": lambda vc: {"vc_id": vc.vc_id + 10_000},
    "kind": lambda vc: {
        "kind": VCKind.GLOBAL if vc.kind is not VCKind.GLOBAL else VCKind.THREAD
    },
    "process_id": lambda vc: {"process_id": vc.process_id + 1},
    "miss_curve": lambda vc: {"miss_curve": MissCurve(
        vc.miss_curve.sizes, _flip_last_bit(vc.miss_curve.values)
    )},
    "accesses": lambda vc: {"accesses": _bump(vc.accesses)},
    "allocation": lambda vc: {"allocation": {**vc.allocation, 0: 4096.0}},
    "owner_thread": lambda vc: {
        "owner_thread": None if vc.owner_thread is not None else 0
    },
}

THREAD_MUTATIONS = {
    "thread_id": lambda t: {"thread_id": t.thread_id + 10_000},
    "process_id": lambda t: {"process_id": t.process_id + 1},
    "vc_accesses": lambda t: {"vc_accesses": _bump(t.vc_accesses)},
    "cluster_key": lambda t: {"cluster_key": t.cluster_key + "-x"},
}


def test_mutation_tables_cover_every_field():
    # A new record field must get a mutation here, or the digest could
    # silently ignore it.
    assert set(VC_MUTATIONS) == {f.name for f in fields(VirtualCache)}
    assert set(THREAD_MUTATIONS) == {
        f.name for f in fields(ThreadSpec)
    }
    assert {f.name for f in fields(PlacementProblem)} == {
        "config", "topology", "vcs", "threads", "mem_latency",
    }


def _base_problem():
    problem, _ = small_problem(apps=8)
    assert problem.vcs[0].accesses and problem.threads[0].vc_accesses
    return problem


def _assert_changes_digest(base, changed):
    assert content_digest(changed) != content_digest(base)  # oracle sanity
    assert problem_digest(changed) != problem_digest(base)


@pytest.mark.parametrize("name", sorted(VC_MUTATIONS))
def test_each_vc_field_change_alters_digest(name):
    base = _base_problem()
    vcs = list(base.vcs)
    vcs[0] = replace(vcs[0], **VC_MUTATIONS[name](vcs[0]))
    _assert_changes_digest(base, replace(base, vcs=vcs))


@pytest.mark.parametrize("name", sorted(THREAD_MUTATIONS))
def test_each_thread_field_change_alters_digest(name):
    base = _base_problem()
    threads = list(base.threads)
    threads[0] = replace(
        threads[0], **THREAD_MUTATIONS[name](threads[0])
    )
    _assert_changes_digest(base, replace(base, threads=threads))


@pytest.mark.parametrize("name", ("config", "topology", "mem_latency"))
def test_each_problem_field_change_alters_digest(name):
    base = _base_problem()
    change = {
        "config": replace(
            base.config, clock_hz=base.config.clock_hz + 1
        ),
        # Same tile count, different shape.
        "topology": Mesh(8, 2),
        "mem_latency": float(np.nextafter(base.mem_latency, np.inf)),
    }[name]
    _assert_changes_digest(base, replace(base, **{name: change}))


def test_curve_size_knot_last_bit_alters_digest():
    base = _base_problem()
    vcs = list(base.vcs)
    curve = vcs[0].miss_curve
    vcs[0] = replace(
        vcs[0], miss_curve=MissCurve(_flip_last_bit(curve.sizes), curve.values)
    )
    _assert_changes_digest(base, replace(base, vcs=vcs))


def test_int_vs_float_rate_alters_digest():
    base = _base_problem()
    thread = base.threads[0]
    vc_id = next(iter(thread.vc_accesses))

    def with_rate(rate):
        return replace(base, threads=[
            replace(
                thread, vc_accesses={**thread.vc_accesses, vc_id: rate}
            ),
            *base.threads[1:],
        ])

    _assert_changes_digest(with_rate(3.0), with_rate(3))


def test_negative_zero_alters_digest():
    base = _base_problem()
    vcs = list(base.vcs)
    with_zero = list(vcs)
    with_zero[0] = replace(vcs[0], allocation={3: 0.0})
    with_neg = list(vcs)
    with_neg[0] = replace(vcs[0], allocation={3: -0.0})
    _assert_changes_digest(
        replace(base, vcs=with_zero), replace(base, vcs=with_neg)
    )
    _assert_changes_digest(
        replace(base, mem_latency=0.0), replace(base, mem_latency=-0.0)
    )


def test_dict_insertion_order_does_not_alter_digest():
    problem = build_problem(
        random_multithreaded_mix(2, 7), small_test_config(4, 4)
    )

    def reversed_dict(d):
        return dict(reversed(list(d.items())))

    shuffled = replace(
        problem,
        vcs=[
            replace(
                vc,
                accesses=reversed_dict(vc.accesses),
                allocation=reversed_dict({**vc.allocation, 1: 2.0, 0: 1.0}),
            )
            for vc in problem.vcs
        ],
        threads=[
            replace(t, vc_accesses=reversed_dict(t.vc_accesses))
            for t in problem.threads
        ],
    )
    ordered = replace(
        problem,
        vcs=[
            replace(vc, allocation={**vc.allocation, 0: 1.0, 1: 2.0})
            for vc in problem.vcs
        ],
    )
    assert any(len(vc.accesses) > 1 for vc in problem.vcs)
    assert content_digest(shuffled) == content_digest(ordered)
    assert problem_digest(shuffled) == problem_digest(ordered)


# -- exotic leaves and record types --------------------------------------------


def _variants():
    """One base problem restated with leaf and record types the fast
    encoding must reduce exactly as canonical_repr does."""
    base = _base_problem()
    thread, vc = base.threads[0], base.vcs[0]
    vc_id = next(iter(thread.vc_accesses))

    def with_thread(**changes):
        return replace(base, threads=[
            replace(thread, **changes), *base.threads[1:]
        ])

    def with_vc(**changes):
        return replace(base, vcs=[replace(vc, **changes), *base.vcs[1:]])

    def with_rate(rate):
        return with_thread(vc_accesses={**thread.vc_accesses, vc_id: rate})

    class SubclassedVC(VirtualCache):
        pass

    def with_values_split(cut):
        # The same concatenated curve values, split between the first
        # two curves at another point (attributes set past MissCurve's
        # constructor, which would refuse the uneven lengths).
        first, second = base.vcs[0].miss_curve, base.vcs[1].miss_curve
        joined = np.concatenate([first.values, second.values])
        curves = []
        for curve, values in ((first, joined[:cut]), (second, joined[cut:])):
            split = MissCurve(curve.sizes, curve.values)
            split.values = values
            curves.append(split)
        return replace(base, vcs=[
            replace(base.vcs[0], miss_curve=curves[0]),
            replace(base.vcs[1], miss_curve=curves[1]),
            *base.vcs[2:],
        ])

    rate = thread.vc_accesses[vc_id]
    return {
        "base": base,
        "np-float64-rate": with_rate(np.float64(rate)),
        "np-int64-ids": with_thread(
            thread_id=np.int64(thread.thread_id),
            vc_accesses={np.int64(k): v for k, v in thread.vc_accesses.items()},
        ),
        "np-float32-rate": with_rate(np.float32(0.1)),
        "float-of-float32-rate": with_rate(float(np.float32(0.1))),
        "int-rate": with_rate(int(rate)),
        "nan-rate": with_rate(float("nan")),
        "negative-nan-rate": with_rate(-float("nan")),
        "np-str-cluster": with_thread(cluster_key=np.str_(thread.cluster_key)),
        "str-kind": with_vc(kind="enum:VCKind.THREAD"),
        "mixed-keys": with_vc(allocation={0: 1.0, "bank": 2.0}),
        "mixed-keys-reversed": with_vc(allocation={"bank": 2.0, 0: 1.0}),
        "values-split-even": with_values_split(len(vc.miss_curve.values)),
        "values-split-shifted": with_values_split(len(vc.miss_curve.values) + 1),
        "tuple-vcs": replace(base, vcs=tuple(base.vcs)),
        "tuple-vcs-again": replace(base, vcs=tuple(base.vcs)),
        "subclassed-vc": replace(base, vcs=[
            SubclassedVC(**{
                f.name: getattr(vc, f.name)
                for f in fields(VirtualCache)
            }),
            *base.vcs[1:],
        ]),
    }


def test_exotic_leaves_match_content_digest():
    variants = _variants()
    equal_pairs = _assert_equivalent(list(variants.values()))
    digest = {name: problem_digest(p) for name, p in variants.items()}
    # Spot checks on the reductions the oracle treats as equal.
    assert digest["np-float64-rate"] == digest["base"]
    assert digest["np-int64-ids"] == digest["base"]
    assert digest["np-float32-rate"] == digest["float-of-float32-rate"]
    assert digest["nan-rate"] == digest["negative-nan-rate"]
    assert digest["mixed-keys"] == digest["mixed-keys-reversed"]
    assert digest["tuple-vcs"] == digest["tuple-vcs-again"]
    assert digest["values-split-even"] == digest["base"]
    assert digest["values-split-shifted"] != digest["base"]
    assert digest["int-rate"] != digest["base"]
    assert digest["np-str-cluster"] != digest["base"]
    assert digest["str-kind"] != digest["base"]
    assert digest["subclassed-vc"] != digest["base"]
    assert equal_pairs >= 6


# -- independence from the interpreter's hash seed ----------------------------

_DIGEST_SCRIPT = """
from repro.config import small_test_config
from repro.nuca.base import build_problem
from repro.service import problem_digest
from repro.testing import golden_problem
from repro.workloads.mixes import random_multithreaded_mix
problems = [
    golden_problem(),
    build_problem(random_multithreaded_mix(2, 7), small_test_config(4, 4)),
]
print(" ".join(problem_digest(p) for p in problems))
"""


def test_digest_independent_of_hash_seed():
    expected = " ".join(problem_digest(p) for p in (
        golden_problem(),
        build_problem(random_multithreaded_mix(2, 7), small_test_config(4, 4)),
    ))
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == expected
