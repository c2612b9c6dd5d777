"""``tools/bench_compare.py``: what gates, and the leaves that do not.

One synthetic baseline entry is compared with a candidate that moves a
gated leaf (modeled Mcycles) or an ungated one (aggregate IPC) by 30%.
"""

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:  # tools/ is not a src/ package
    sys.path.insert(0, str(REPO))

from tools import bench_compare  # noqa: E402

BASELINE = {
    "solve_mcycles": 10.0,
    "aggregate_ipc": 50.0,
    "detection_speedup_x": 4.0,
}


def compare_pair(tmp_path, capsys, **changes) -> tuple[int, str]:
    """Exit code and stdout of comparing BASELINE with *changes* applied."""
    entries = [
        {"bench": "bench_synthetic", "recorded": day, "host": "h",
         "metrics": metrics}
        for day, metrics in (
            ("2026-01-01", BASELINE), ("2026-01-02", {**BASELINE, **changes}),
        )
    ]
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"entries": entries}))
    code = bench_compare.main(["--candidate", str(path)])
    return code, capsys.readouterr().out


def test_ungated_leaves_are_named_and_do_not_fail(tmp_path, capsys):
    code, out = compare_pair(tmp_path, capsys, aggregate_ipc=35.0)
    assert code == 0
    assert (
        "  ungated: metrics.aggregate_ipc, metrics.detection_speedup_x\n"
        in out
    )


def test_modeled_cycle_growth_still_fails(tmp_path, capsys):
    code, out = compare_pair(tmp_path, capsys, solve_mcycles=13.0)
    assert code == 1
    assert "metrics.solve_mcycles: 10.0000 Mcyc -> 13.0000 Mcyc" in out
