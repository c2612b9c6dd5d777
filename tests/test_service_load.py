"""The deterministic load harness end-to-end (ISSUE 6; marked slow).

Full sessions: a fleet of seeded chips through one service, with and
without an injected fault plan, plus the ``service_load`` registry
experiment and the ``serve`` CLI wrapper around the same path.
"""

import json

import pytest

from repro.service import FaultPlan, LoadReport, LoadSpec, run_load

pytestmark = pytest.mark.slow

SPEC = LoadSpec(chips=3, epochs=3, tiles=16)


def test_load_session_serves_every_epoch_of_every_chip():
    report = run_load(SPEC)
    assert report.requests == SPEC.chips * SPEC.epochs
    assert report.ok == report.requests
    assert report.degraded == 0 and report.timeouts == 0
    assert report.rejected == {}
    assert [chip for chip, _, _ in report.per_chip] == [
        f"chip-{i}" for i in range(SPEC.chips)
    ]
    assert all(ok == SPEC.epochs for _, ok, _ in report.per_chip)
    assert report.wall_seconds > 0 and report.requests_per_sec > 0
    assert 0 < report.p50_latency_ms <= report.p99_latency_ms
    assert report.mean_modeled_mcycles > 0


def test_fault_plan_counts_rejections_without_touching_placements():
    clean = run_load(SPEC)
    faulted = run_load(
        SPEC, FaultPlan(malformed=((0, 1), (2, 0), (2, 2)))
    )
    assert faulted.rejected == {"malformed_telemetry": 3}
    assert faulted.ok == clean.ok == clean.requests
    # Placements are engine-deterministic: the garbage requests changed
    # nothing about what each chip was told to do.
    assert faulted.mean_modeled_mcycles == clean.mean_modeled_mcycles
    assert faulted.per_chip == clean.per_chip


def test_load_report_round_trips_through_dict():
    report = run_load(LoadSpec(chips=2, epochs=2, tiles=16))
    clone = LoadReport.from_dict(
        json.loads(json.dumps(report.to_dict()))
    )
    assert clone == report


def test_load_spec_validation():
    with pytest.raises(ValueError, match="at least one chip"):
        LoadSpec(chips=0)
    with pytest.raises(ValueError, match="at least one epoch"):
        LoadSpec(epochs=0)
    with pytest.raises(ValueError, match="unknown dynamism"):
        LoadSpec(dynamism="chaotic")


def test_service_load_experiment_runs_through_the_registry():
    from repro.api import Session

    session = Session()
    record = session.run(
        "service_load", chips=2, epochs=2, strategies="incremental",
        dynamism="phased",
    )
    assert session.stats.submitted == 1
    result = record.result
    assert record.experiment == "service_load"
    (table,) = record.tables
    (row,) = table.rows
    assert row[:2] == ("incremental", "phased")
    report = result.report(("incremental", "phased"))
    assert report.ok == 4


def test_serve_cli_reports_a_session(capsys):
    from repro.__main__ import main

    assert main([
        "serve", "--chips", "2", "--epochs", "2", "--format", "json",
    ]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["experiment"] == "serve"
    assert record["params"]["chips"] == 2
    (table,) = record["tables"]
    (row,) = table["rows"]
    assert row[table["headers"].index("ok")] == 4
    assert row[table["headers"].index("degraded")] == 0


def test_serve_cli_rejects_bad_fleet(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["serve", "--chips", "0"])
    assert "at least one chip" in capsys.readouterr().err
