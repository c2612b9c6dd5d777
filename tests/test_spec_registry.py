"""The declarative experiment layer: spec registry, typed results,
structured export, and the `repro.api.Session` facade."""

import importlib
import importlib.util
import json
import pathlib
import pkgutil

import pytest

import repro.experiments
from repro.__main__ import build_parser
from repro.api import Session
from repro.experiments.results import (
    ResultSeries,
    ResultTable,
    RunRecord,
    render,
    render_csv,
    render_text,
)
from repro.experiments.spec import (
    SPEC_MODULES,
    ExperimentSpec,
    all_specs,
    get_spec,
    register,
    spec_names,
)

#: Modules of repro.experiments that are infrastructure, not experiments.
NON_EXPERIMENT_MODULES = {"report", "results", "spec"}


# ---------------------------------------------------------------------------
# Registry completeness
# ---------------------------------------------------------------------------


def test_every_experiment_module_registers_a_spec():
    specs = all_specs()
    registered_modules = {spec.build_jobs.__module__ for spec in specs}
    # Each spec comes from the module its name is declared with.
    assert {
        spec.name: spec.build_jobs.__module__ for spec in specs
    } == SPEC_MODULES
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        if info.name in NON_EXPERIMENT_MODULES:
            continue
        module = f"repro.experiments.{info.name}"
        importlib.import_module(module)
        assert module in registered_modules, (
            f"{module} registers no ExperimentSpec"
        )


def test_register_rejects_undeclared_and_foreign_names():
    def spec_named(name):
        return ExperimentSpec(
            name=name, summary="", figure="", params=(),
            build_jobs=lambda params: [], reduce=lambda records, params: None,
            present=lambda result, params: None,
        )

    with pytest.raises(ValueError, match="not declared"):
        register(spec_named("fig99"))
    with pytest.raises(ValueError, match="declared in repro.experiments.sweeps"):
        register(spec_named("fig11"))
    with pytest.raises(ValueError, match="registered twice"):
        register(get_spec("fig11"))


def test_registry_covers_the_paper_evaluation():
    assert set(spec_names()) >= {
        "table1", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
        "fig17", "fig18", "table3", "gmon", "placers", "phase_study",
        "scalability",
    }


def test_every_spec_has_a_seed_param_and_unique_names():
    names = [spec.name for spec in all_specs()]
    assert names == sorted(set(names))
    for spec in all_specs():
        assert spec.param("seed").kind == "int", spec.name
        assert spec.summary and spec.figure, spec.name


def test_spec_params_round_trip_through_the_cli_parser():
    """Parsing just the subcommand must reproduce each spec's defaults."""
    parser = build_parser()
    for spec in all_specs():
        args = parser.parse_args([spec.name])
        for param in spec.params:
            if param.name == "seed":
                assert args.seed is None  # falls back to the spec default
            else:
                assert getattr(args, param.name) == param.default, (
                    f"{spec.name} --{param.name}"
                )
        # The generic form accepts every spec name too.
        run_args = parser.parse_args(["run", spec.name])
        assert run_args.name == spec.name


def test_resolve_parses_strings_and_rejects_unknown_names():
    spec = get_spec("fig14")
    assert spec.resolve({"mixes": "3"})["mixes"] == 3
    assert spec.resolve()["mixes"] == 10
    with pytest.raises(ValueError, match="unknown parameter"):
        spec.resolve({"bogus": 1})
    tiles = get_spec("scalability").resolve({"tiles": "16,64"})["tiles"]
    assert tiles == (16, 64)


# ---------------------------------------------------------------------------
# Typed results and structured export
# ---------------------------------------------------------------------------


def _sample_record() -> RunRecord:
    return RunRecord(
        experiment="fig99",
        params={"mixes": 2, "seed": 7, "tiles": (16, 64)},
        tables=(
            ResultTable.make(
                "a table", ("name", "value"),
                [("CDCS", 1.25), ("R-NUCA", 1.0)],
            ),
        ),
        series=(
            ResultSeries.make("a series", [(0.0, 1.0), (1.0, 2.5)],
                              fmt="{:.2f}"),
        ),
        result=object(),  # excluded from equality and serialization
    )


def test_run_record_round_trips_through_to_dict():
    record = _sample_record()
    assert RunRecord.from_dict(record.to_dict()) == record
    # ... and through an actual JSON wire format.
    wire = json.loads(json.dumps(record.to_dict()))
    assert RunRecord.from_dict(wire) == record
    assert "result" not in record.to_dict()


def test_run_record_params_are_json_safe():
    record = _sample_record()
    assert record.params["tiles"] == [16, 64]  # tuples normalized
    json.dumps(record.to_dict())  # must not raise


def test_render_formats():
    record = _sample_record()
    text = render_text(record)
    assert "a table" in text and "CDCS" in text and "a series" in text
    csv_text = render_csv(record)
    lines = csv_text.splitlines()
    assert "# a table" in lines[0]
    assert lines[1] == "name,value"
    assert lines[2] == "CDCS,1.25"
    assert "# a series" in csv_text and "0.0,1.0" in csv_text
    parsed = json.loads(render(record, "json"))
    assert parsed["experiment"] == "fig99"
    with pytest.raises(ValueError, match="unknown format"):
        render(record, "yaml")


# ---------------------------------------------------------------------------
# Session facade
# ---------------------------------------------------------------------------


def test_session_run_batch_shares_one_runner(tmp_path):
    session = Session(cache_dir=tmp_path / "cache")
    first, second = session.run_batch([
        ("gmon", {}),
        ("gmon", {"app": "milc"}),
    ])
    assert first.experiment == "gmon" and second.experiment == "gmon"
    assert first.params["app"] == "astar"
    assert second.params["app"] == "milc"
    assert session.stats.submitted == 6  # 3 geometries x 2 requests
    assert session.stats.cached == 0
    # A second session over the same cache executes nothing.
    warm = Session(cache_dir=tmp_path / "cache")
    again = warm.run("gmon")
    assert again == first  # typed equality: same tables, same params
    assert warm.stats.cached == 3 and warm.stats.executed == 0


def test_session_rejects_unknown_experiment_and_param():
    with pytest.raises(KeyError, match="unknown experiment"):
        Session().run("fig99")
    with pytest.raises(ValueError, match="unknown parameter"):
        Session().run("gmon", bogus=1)


def test_resolve_type_checks_programmatic_overrides():
    """Wrong-typed non-string overrides fail in resolve with the
    parameter's name, not deep inside a job builder."""
    with pytest.raises(ValueError, match="mixes"):
        get_spec("fig14").resolve({"mixes": 2.5})
    with pytest.raises(ValueError, match="app"):
        get_spec("gmon").resolve({"app": 3})
    with pytest.raises(ValueError, match="steady_ws"):
        get_spec("fig18").resolve({"steady_ws": "fast"})
    assert get_spec("fig18").resolve({"steady_ws": 2})["steady_ws"] == 2.0
    # tiles accepts a bare int or any int sequence, normalized to a tuple.
    spec = get_spec("scalability")
    assert spec.resolve({"tiles": 16})["tiles"] == (16,)
    assert spec.resolve({"tiles": [16, 64]})["tiles"] == (16, 64)
    with pytest.raises(ValueError, match="perfect square"):
        spec.resolve({"tiles": [10]})
    with pytest.raises(ValueError, match="tiles"):
        spec.resolve({"tiles": 1.5})


@pytest.fixture(scope="module")
def docs_check():
    """``tools/docs_check.py``, loaded by path (``tools/`` is no package)."""
    path = pathlib.Path(__file__).parent.parent / "tools" / "docs_check.py"
    module_spec = importlib.util.spec_from_file_location("docs_check", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def test_docs_check_rejects_flag_on_wrong_experiment(docs_check):
    problems: list[str] = []
    docs_check.check_cli_commands(
        "```\npython -m repro table1 --mixes 2\n```", "t.md", problems
    )
    assert problems and "--mixes" in problems[0]
    problems.clear()
    docs_check.check_cli_commands(
        "python -m repro run fig11 --param mixes=2 --jobs 4",
        "t.md", problems,
    )
    assert problems == []


def test_docs_check_rejects_stale_python_imports(docs_check):
    fresh = (
        "```python\n"
        "import repro.sched\n"
        "from repro.sched import reconfigure\n"
        "from repro.nuca.sharing import (\n"
        "    shared_cache_occupancies_grouped,\n"
        "    solve_sharing_plans,\n"
        ")\n"
        "from numpy import gone_from_numpy\n"
        "```\n"
    )
    problems: list[str] = []
    docs_check.check_python_imports(fresh, "t.md", problems)
    assert problems == []
    stale = (
        "```python\n"
        "from repro.nuca.sharing import solve_sharing_plans, no_such_kernel\n"
        "import repro.no_such_module\n"
        "```\n"
        "```sh\n"
        "from repro.nuca.sharing import not_python\n"
        "```\n"
        "```python\n"
        "print(\n"
        "```\n"
    )
    docs_check.check_python_imports(stale, "t.md", problems)
    assert len(problems) == 3
    assert "no_such_kernel" in problems[0]
    assert "repro.no_such_module" in problems[1]
    assert "does not parse" in problems[2]


def test_docs_check_resolves_every_dotted_name_in_prose(docs_check):
    fresh = (
        "`repro.nuca.sharing.solve_sharing_plans([plan])` merges plans; "
        "`repro.sched.cost_model` and `src/repro/nuca/sharing.py` exist.\n"
    )
    problems: list[str] = []
    docs_check.check_modules_and_paths(fresh, "t.md", problems)
    assert problems == []
    stale = (
        "`repro.nuca.sharing.no_such_kernel(fns, 1.0)` is gone, "
        "and so is `with repro.no_such_module.switch():`.\n"
    )
    docs_check.check_modules_and_paths(stale, "t.md", problems)
    assert len(problems) == 2
    assert "no_such_kernel" in problems[0]
    assert "repro.no_such_module" in problems[1]


def test_docs_check_requires_golden_regeneration_rows(docs_check, tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "tests" / "golden").mkdir(parents=True)
    for name in ("a.json", "b.json", "c.json"):
        (tmp_path / "tests" / "golden" / name).write_text("{}")
    testing = tmp_path / "docs" / "TESTING.md"
    testing.write_text(
        "# Testing\n\n## Goldens\n\n| Golden | Pins | Regenerate |\n"
        "| --- | --- | --- |\n"
        "| `tests/golden/a.json` | a | `python tools/make_a.py` |\n"
        "| `tests/golden/b.json` | b | by hand |\n"
    )
    problems = docs_check.check_goldens(tmp_path)
    assert len(problems) == 2
    assert "b.json" in problems[0] and "c.json" in problems[1]
    testing.write_text("# Testing\n")
    assert "missing the '## Goldens' section" in docs_check.check_goldens(
        tmp_path
    )[0]
