"""Write the spec job-identity golden: ``tests/golden/spec_jobs.json``.

For every registered experiment spec at its default parameters, pins the
ordered list of its jobs' identities, ``content_digest(job.fn,
dict(job.kwargs), job.seed)``: the job digest without its package-version
salt, so a release does not rewrite the file.  A job's digest keys the
result cache and seeds the job's global RNGs (``Job.execute``), so an
unchanged list means every spec still runs the same points, in the same
order (fig12's and fig13's reducers chunk their payloads by position).

Run from the repository root, only when a change of jobs is intended::

    PYTHONPATH=src python tools/golden_spec_jobs.py
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "spec_jobs.json"


def spec_job_digests() -> dict[str, list[str]]:
    """Spec name -> its default-params jobs' unsalted digests, in order."""
    from repro.experiments.spec import all_specs
    from repro.util.hashing import content_digest

    return {
        spec.name: [
            content_digest(job.fn, dict(job.kwargs), job.seed)
            for job in spec.build_jobs(spec.resolve())
        ]
        for spec in all_specs()
    }


def main() -> None:
    digests = spec_job_digests()
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    total = sum(len(jobs) for jobs in digests.values())
    print(
        f"golden_spec_jobs: wrote {total} job digests of "
        f"{len(digests)} specs to {GOLDEN}"
    )


if __name__ == "__main__":
    main()
