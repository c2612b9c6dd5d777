"""Cold start: each entry point imports only the code its run calls.

Every case starts a fresh interpreter (``PYTHONPATH=src``), runs one
entry point, and reads ``sys.modules`` at the end.  ``scipy`` and
``networkx`` load only inside the placers that call them, and an
experiment module loads only when one of its specs (or one of the names
``repro.experiments`` re-exports from it) is asked for.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

HEAVY = ("scipy", "networkx")

#: Entry point -> the code a fresh interpreter runs for it.
ENTRY_POINTS = {
    "import repro": "import repro",
    "import repro.__main__": "import repro.__main__",
    "build_chip": (
        "from repro.service.load import LoadSpec, build_chip\n"
        "build_chip(LoadSpec(tiles=16), 0)"
    ),
    "run table1": (
        "import runpy\n"
        "sys.argv = ['repro', 'run', 'table1', '--format', 'json', "
        "'--no-cache']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
    ),
    "get_spec fig11": (
        "from repro.experiments.spec import get_spec\n"
        "get_spec('fig11')"
    ),
}


def run_fresh(code: str) -> dict:
    """Run *code* in a fresh interpreter; it may set ``report``, a
    JSON-able value.  Returns ``{"modules": [...], "report": ...}``."""
    script = (
        "import json, sys\n"
        "report = None\n"
        f"{code}\n"
        "print(json.dumps({'modules': sorted(sys.modules), "
        "'report': report}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@functools.cache
def loaded_by(entry: str) -> frozenset[str]:
    return frozenset(run_fresh(ENTRY_POINTS[entry])["modules"])


def heavy_in(modules) -> list[str]:
    return sorted(set(HEAVY) & set(modules))


def experiment_modules(modules) -> set[str]:
    prefix = "repro.experiments."
    return {m[len(prefix):] for m in modules if m.startswith(prefix)}


def test_entry_points_load_neither_scipy_nor_networkx():
    entries = ("import repro", "import repro.__main__", "build_chip",
               "run table1")
    offenders = {
        entry: heavy_in(loaded_by(entry)) for entry in entries
    }
    assert offenders == {entry: [] for entry in entries}


def test_cli_import_and_build_chip_load_only_the_registry():
    for entry in ("import repro.__main__", "build_chip"):
        loaded = experiment_modules(loaded_by(entry))
        assert loaded <= {"spec", "results", "report"}, (entry, loaded)


def test_get_spec_imports_only_the_declaring_module():
    loaded = loaded_by("get_spec fig11")
    assert "repro.experiments.sweeps" in loaded
    assert "repro.experiments.placers_study" not in loaded
    assert heavy_in(loaded) == []


def test_package_reexports_resolve_on_first_access():
    out = run_fresh(
        "import repro.experiments as pkg\n"
        "eager = sorted(m for m in sys.modules "
        "if m.startswith('repro.experiments.'))\n"
        "listed = set(dir(pkg))\n"
        "report = {\n"
        "    'eager': eager,\n"
        "    'names': len(pkg.__all__),\n"
        "    'unresolved': [n for n in pkg.__all__ "
        "if not hasattr(pkg, n)],\n"
        "    'unlisted': [n for n in pkg.__all__ if n not in listed],\n"
        "}"
    )
    report = out["report"]
    assert report["eager"] == []
    assert report["names"] > 0
    assert report["unresolved"] == []
    assert report["unlisted"] == []
