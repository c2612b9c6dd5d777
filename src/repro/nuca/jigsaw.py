"""Jigsaw [4]: partitioned NUCA with miss-driven sizing and greedy
placement, but **no thread placement** — threads come from an external
scheduler (clustered or random), which is exactly the sensitivity the
paper exploits (Fig 1b/1c, Fig 11a).
"""

from __future__ import annotations

from repro.nuca.base import NucaScheme, SchemeResult
from repro.sched.problem import PlacementProblem
from repro.sched.reconfigure import ReconfigPolicy, reconfigure
from repro.sched.thread_placement import (
    clustered_thread_placement,
    random_thread_placement,
)


class Jigsaw(NucaScheme):
    """Jigsaw with a fixed external thread scheduler.

    *scheduler* is ``"clustered"`` (Jigsaw+C: processes grouped in adjacent
    tiles) or ``"random"`` (Jigsaw+R: threads pinned randomly).
    """

    def __init__(self, scheduler: str = "random", seed: int = 0):
        if scheduler not in ("clustered", "random"):
            raise ValueError(f"unknown scheduler {scheduler!r}")
        self.scheduler = scheduler
        self.seed = seed
        self.name = "Jigsaw+C" if scheduler == "clustered" else "Jigsaw+R"

    def thread_cores(self, problem: PlacementProblem) -> dict[int, int]:
        if self.scheduler == "clustered":
            return clustered_thread_placement(problem)
        return random_thread_placement(problem, self.seed)

    def lane(
        self, problem: PlacementProblem
    ) -> tuple[ReconfigPolicy, dict[int, int]]:
        """This scheme's ``(policy, external_thread_cores)`` lane of a
        :func:`~repro.sched.reconfigure.reconfigure_schemes` call."""
        return ReconfigPolicy.jigsaw(), self.thread_cores(problem)

    def run(self, problem: PlacementProblem) -> SchemeResult:
        result = reconfigure(problem, *self.lane(problem))
        return SchemeResult(self.name, result.solution, result.step_cycles())
