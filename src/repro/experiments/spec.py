"""Declarative experiment specs and the process-wide registry.

The paper's evaluation is one family of sweeps over the same
(config, mix, scheme) axes; this module is the uniform request/response
schema over that family.  Each experiment module declares one (or more)
:class:`ExperimentSpec` — a name, a one-line summary, the paper
figure/table it reproduces, a typed parameter schema
(:class:`Param`), and three pure functions:

* ``build_jobs(params) -> list[Job]`` — the experiment's fan-out as
  :class:`repro.runner.Job` points (so every spec transparently gains
  ``--jobs`` parallelism and content-hashed caching);
* ``reduce(records, params) -> result`` — fold the job payloads back
  into the experiment's rich result object (``SweepResult``,
  ``PhaseStudyResult``, ...);
* ``present(result, params) -> RunRecord`` — the typed, serializable
  presentation (:class:`repro.experiments.results.RunRecord`).

Specs register into a process-wide registry (:func:`register`); the CLI
(``python -m repro run <name>``), :class:`repro.api.Session`, the
``list`` command, and ``tools/docs_check.py`` are all driven from it.
The registry is lazy: :data:`SPEC_MODULES` declares every spec name with
the module that registers it, so :func:`spec_names` imports nothing,
:func:`get_spec` imports only the named spec's module, and
:func:`all_specs` imports every experiment module.  An experiment's
heavy dependencies load only when something asks for it.

The legacy ``run_*`` functions remain as thin compatibility shims over
the same job builders and reducers, so both paths are bitwise-identical
by construction.
"""

from __future__ import annotations

import argparse
import importlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.config import mesh_width
from repro.experiments.results import RunRecord
from repro.runner import Job


def parse_tiles(text: str) -> tuple[int, ...]:
    """Parse comma-separated square tile counts (the CLI ``--tiles`` and
    ``--param tiles=...`` grammar); raises ``argparse.ArgumentTypeError``
    with a usable message on bad input."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError(
            "--tiles needs at least one tile count"
        )
    values = []
    for part in parts:
        try:
            count = int(part)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--tiles expects comma-separated integers, got {part!r}"
            ) from None
        try:
            mesh_width(count)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        values.append(count)
    return tuple(values)


#: Parameter kind -> parser callable (argparse ``type=`` compatible:
#: raises ``ValueError``/``ArgumentTypeError`` with a usable message).
PARAM_KINDS: dict[str, Callable[[str], Any]] = {
    "int": int,
    "float": float,
    "str": str,
    "tiles": parse_tiles,
}


@dataclass(frozen=True)
class Param:
    """One typed experiment parameter: name, kind, default, help text."""

    name: str
    kind: str = "int"
    default: Any = None
    help: str = ""

    def __post_init__(self) -> None:
        if self.kind not in PARAM_KINDS:
            raise ValueError(
                f"param {self.name!r}: unknown kind {self.kind!r} "
                f"(choose from {sorted(PARAM_KINDS)})"
            )

    @property
    def parser(self) -> Callable[[str], Any]:
        """The ``type=`` callable argparse (and ``--param k=v``) uses."""
        return PARAM_KINDS[self.kind]

    def parse(self, text: str) -> Any:
        try:
            return self.parser(text)
        except argparse.ArgumentTypeError:
            raise
        except ValueError:
            raise ValueError(
                f"parameter {self.name!r} expects {self.kind}, "
                f"got {text!r}"
            ) from None

    def coerce(self, value: Any) -> Any:
        """Validate/normalize one override of any origin: strings go
        through :meth:`parse` (the CLI path), everything else is
        type-checked against the kind so a wrong-typed programmatic value
        fails here — with a parameter-named message — instead of deep
        inside a job builder."""
        if isinstance(value, str):
            return self.parse(value) if self.kind != "str" else value
        if self.kind == "str":
            raise ValueError(
                f"parameter {self.name!r} expects str, got {value!r}"
            )
        if self.kind == "tiles":
            return self._coerce_tiles(value)
        if isinstance(value, bool):
            raise ValueError(
                f"parameter {self.name!r} expects {self.kind}, "
                f"got {value!r}"
            )
        if self.kind == "int":
            if not isinstance(value, int):
                raise ValueError(
                    f"parameter {self.name!r} expects int, got {value!r}"
                )
            return value
        if not isinstance(value, (int, float)):
            raise ValueError(
                f"parameter {self.name!r} expects float, got {value!r}"
            )
        return float(value)

    def _coerce_tiles(self, value: Any) -> tuple[int, ...]:
        if isinstance(value, bool):
            raise ValueError(
                f"parameter {self.name!r} expects tile counts, "
                f"got {value!r}"
            )
        if isinstance(value, int):
            value = (value,)
        try:
            counts = tuple(value)
        except TypeError:
            raise ValueError(
                f"parameter {self.name!r} expects an int or a sequence "
                f"of ints, got {value!r}"
            ) from None
        if not counts:
            raise ValueError(
                f"parameter {self.name!r} needs at least one tile count"
            )
        for count in counts:
            if isinstance(count, bool) or not isinstance(count, int):
                raise ValueError(
                    f"parameter {self.name!r} expects ints, got {count!r}"
                )
            mesh_width(count)  # raises ValueError on non-square counts
        return counts

    def describe(self) -> dict[str, Any]:
        from repro.experiments.results import _cell

        return {
            "name": self.name,
            "kind": self.kind,
            "default": _cell(self.default),
            "help": self.help,
        }


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: schema plus build/reduce/present."""

    name: str
    summary: str
    #: The paper figure/table reproduced ("Fig 11", "Table 3", ...) or
    #: "beyond paper" for the post-paper studies.
    figure: str
    params: tuple[Param, ...]
    build_jobs: Callable[[dict[str, Any]], list[Job]]
    reduce: Callable[[list, dict[str, Any]], Any]
    present: Callable[[Any, dict[str, Any]], RunRecord]

    def defaults(self) -> dict[str, Any]:
        return {p.name: p.default for p in self.params}

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"{self.name}: no parameter {name!r}")

    def resolve(self, overrides: Mapping[str, Any] | None = None) -> dict:
        """Defaults with *overrides* applied; strings are parsed and
        other values type-checked through the parameter's kind
        (:meth:`Param.coerce`), unknown names raise ``ValueError``."""
        params = self.defaults()
        for key, value in (overrides or {}).items():
            key = key.replace("-", "_")
            if key not in params:
                raise ValueError(
                    f"{self.name}: unknown parameter {key!r} "
                    f"(have: {', '.join(sorted(params))})"
                )
            params[key] = self.param(key).coerce(value)
        return params

    def describe(self) -> dict[str, Any]:
        """Machine-readable registry entry (``list --json``)."""
        return {
            "name": self.name,
            "summary": self.summary,
            "figure": self.figure,
            "params": [p.describe() for p in self.params],
        }


#: Every experiment name -> the module that registers it.  The registry
#: reads names from here and imports a module only when one of its specs
#: is asked for; :func:`register` rejects any other pairing, so this table
#: cannot drift from the code.
SPEC_MODULES: dict[str, str] = {
    "fig11": "repro.experiments.sweeps",
    "fig12": "repro.experiments.factor_analysis",
    "fig13": "repro.experiments.sweeps",
    "fig14": "repro.experiments.sweeps",
    "fig15": "repro.experiments.sweeps",
    "fig16": "repro.experiments.sweeps",
    "fig17": "repro.experiments.reconfig_study",
    "fig18": "repro.experiments.reconfig_study",
    "gmon": "repro.experiments.monitors_study",
    "phase_study": "repro.experiments.phase_study",
    "placers": "repro.experiments.placers_study",
    "scalability": "repro.experiments.scalability",
    "service_load": "repro.experiments.service_study",
    "sketch_study": "repro.experiments.sketch_study",
    "solver_study": "repro.experiments.solver_study",
    "table1": "repro.experiments.case_study",
    "table3": "repro.experiments.table3",
}

_REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add *spec* to the registry.  Its name must be declared in
    :data:`SPEC_MODULES` with the module that defines its functions, and
    may register once."""
    module = SPEC_MODULES.get(spec.name)
    if module is None:
        raise ValueError(
            f"experiment {spec.name!r} is not declared in SPEC_MODULES"
        )
    if spec.build_jobs.__module__ != module:
        raise ValueError(
            f"experiment {spec.name!r} is declared in {module}, not "
            f"{spec.build_jobs.__module__}"
        )
    if spec.name in _REGISTRY:
        raise ValueError(f"experiment {spec.name!r} registered twice")
    _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> ExperimentSpec:
    """The spec registered as *name*, importing only its module."""
    if name not in SPEC_MODULES:
        raise KeyError(
            f"unknown experiment {name!r} "
            f"(have: {', '.join(spec_names())})"
        )
    importlib.import_module(SPEC_MODULES[name])
    return _REGISTRY[name]


def spec_names() -> list[str]:
    return sorted(SPEC_MODULES)


def all_specs() -> list[ExperimentSpec]:
    return [get_spec(name) for name in spec_names()]
