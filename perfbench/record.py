"""Regenerate perfbench/recorded_queries.json: the answer (exit code and
stdout) of every request the queries workload can draw, as the library
computes it now.

    python3 perfbench/record.py

The queries workload compares each answer with this record, and with the
published values where they exist.  Rerun only when an answer is meant to
change, and review the diff.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from hallinv import braids  # noqa: E402


def main():
    names = list(workloads.QUERY_GROUPS) + \
        [f"horizontal:{tau}" for tau in workloads.PERM5_POOL]
    groups = {name: braids.fixture(name) for name in names}
    recorded = {}
    for argv in workloads.query_pool(groups):
        code, out = workloads.run_cli(argv + ["--json", "--jobs", "1"])
        recorded[" ".join(argv)] = [code, out]
    lines = [f"{json.dumps(key)}: {json.dumps(recorded[key])}"
             for key in sorted(recorded)]
    workloads.RECORDED_QUERIES.write_text(
        "{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(recorded)} answers -> {workloads.RECORDED_QUERIES}")


if __name__ == "__main__":
    main()
