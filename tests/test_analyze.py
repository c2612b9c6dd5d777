"""Tests for the repro-analyze invariant suite (``tools/analyze``).

Three layers:

* the fixture corpus under ``tests/analyze_fixtures/`` pins the exact
  findings every rule produces on known-bad code, and that suppressions
  (``# repro: allow[rule]``) and the committed baseline silence them;
* CLI behavior: exit codes 0/1/2, ``--write-baseline`` round-trip,
  ``--rules`` selection;
* the gate itself: ``python -m tools.analyze src`` must be clean with
  the committed (empty) baseline — the same invocation ``make analyze``
  and CI run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:  # tools/ is not a src/ package
    sys.path.insert(0, str(REPO))

from tools.analyze import (  # noqa: E402
    GUARDED_STATE,
    RULES,
    ModuleSource,
)
from tools.analyze.__main__ import main  # noqa: E402

FIXTURES = REPO / "tests" / "analyze_fixtures"


def _findings(rel_path: str, rule: str):
    module = ModuleSource(FIXTURES / rel_path)
    return RULES[rule].check(module)


# -- per-rule fixtures --------------------------------------------------------


def test_determinism_flags_every_bad_site():
    found = _findings("repro/sched/bad_determinism.py", "determinism")
    snippets = [f.snippet for f in found]
    assert len(found) == 5
    assert any("random.seed(1)" in s for s in snippets)
    assert any("np.random.shuffle" in s for s in snippets)
    assert any("time.perf_counter()" in s for s in snippets)
    assert any("set(vcs)" in s for s in snippets)
    assert any("list({1, 2, 3})" in s for s in snippets)
    # The explicitly seeded generator is never flagged.
    assert not any("default_rng" in s for s in snippets)


def test_determinism_suppressions_silence_every_site():
    assert _findings("repro/sched/allowed_determinism.py", "determinism") == []


def test_lock_discipline_flags_only_the_unlocked_access():
    found = _findings("repro/geometry/mesh.py", "lock-discipline")
    assert len(found) == 1
    assert found[0].snippet.startswith("return _SHARED_GEOMETRY_CACHE")
    assert "_GEOMETRY_LOCK" in found[0].message


def test_lock_discipline_reports_stale_registry_entries(tmp_path):
    # A module that matches a registry suffix but no longer defines the
    # registered name must produce a stale-entry finding, so removals
    # deregister in the same change.
    module = "repro/geometry/mesh.py"
    entry = next(g for g in GUARDED_STATE if g.module == module)
    fake = tmp_path / module
    fake.parent.mkdir(parents=True)
    other = [g.name for g in GUARDED_STATE if g.module == module]
    other.remove(entry.name)
    body = "\n".join(f"{name} = True" for name in other)
    fake.write_text(body + "\n")
    found = RULES["lock-discipline"].check(ModuleSource(fake))
    assert any(
        "stale registry entry" in f.message and entry.name in f.message
        for f in found
    )


def test_shared_view_flags_every_mutation_alias():
    found = _findings("repro/cache/bad_views.py", "shared-view")
    snippets = [f.snippet for f in found]
    assert len(found) == 5
    assert any("dist += 1.0" in s for s in snippets)
    assert any("topo.distance_matrix[0, 0]" in s for s in snippets)
    assert any("out=dist" in s for s in snippets)
    assert any("dist.sort()" in s for s in snippets)
    assert any("view.fill(0.0)" in s for s in snippets)
    # Mutating a private .copy() is clean, as is the suppressed write.
    assert not any("safe += 1.0" in s for s in snippets)
    assert not any("batch.values2d" in s for s in snippets)


def test_shared_view_flags_writes_into_memoized_rows():
    found = _findings("repro/sched/bad_rows.py", "shared-view")
    snippets = [f.snippet for f in found]
    assert len(found) == 2
    assert any("rows[0][0] = 0.0" in s for s in snippets)
    assert any("row *= 2.0" in s for s in snippets)
    assert not any("mine[0]" in s for s in snippets)


def test_async_discipline_flags_coroutine_blocking_calls():
    found = _findings("repro/service/bad_async.py", "async-discipline")
    snippets = [f.snippet for f in found]
    assert len(found) == 3
    assert any("time.sleep" in s for s in snippets)
    assert any("open(path)" in s for s in snippets)
    assert any("engine.solve" in s for s in snippets)
    # Same call in a sync helper or under a suppression: clean.
    assert all(f.line < 17 for f in found)


def test_rule_registry_is_well_formed():
    assert set(RULES) == {
        "determinism",
        "lock-discipline",
        "shared-view",
        "async-discipline",
    }
    for name, rule in RULES.items():
        assert rule.name == name
        assert rule.invariant  # docs_check mirrors these into ANALYSIS.md


# -- CLI behavior -------------------------------------------------------------


def test_cli_reports_fixture_findings(capsys):
    rc = main([str(FIXTURES), "--no-baseline"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[determinism]" in out
    assert "[lock-discipline]" in out
    assert "[shared-view]" in out
    assert "[async-discipline]" in out


def test_cli_baseline_roundtrip(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main([str(FIXTURES), "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    # Everything just written is tolerated: the gate passes...
    assert main([str(FIXTURES), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "baselined" in out
    # ...but a finding not in the baseline still fails.
    assert main([str(FIXTURES / "repro/sched/bad_determinism.py"),
                 "--baseline", str(tmp_path / "empty.json")]) == 1


def test_cli_rule_selection(capsys):
    rc = main([
        str(FIXTURES / "repro/sched/bad_determinism.py"),
        "--rules", "async-discipline",
        "--no-baseline",
    ])
    assert rc == 0  # wrong rule for this fixture: nothing to report
    assert main(["--rules", "nonsense", str(FIXTURES)]) == 2
    capsys.readouterr()


def test_cli_rejects_empty_path_set(tmp_path):
    assert main([str(tmp_path)]) == 2


def test_cli_rejects_corrupt_baseline(tmp_path, capsys):
    bad = tmp_path / "baseline.json"
    bad.write_text('{"not": "a list"}')
    assert main([str(FIXTURES), "--baseline", str(bad)]) == 2
    capsys.readouterr()


# -- the gate -----------------------------------------------------------------


@pytest.mark.slow
def test_src_tree_is_clean_via_module_entrypoint():
    """The exact invocation `make analyze` runs must pass on src/."""
    proc = subprocess.run(
        [sys.executable, "-m", "tools.analyze", "src"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 new finding(s)" in proc.stdout
