"""One timed pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload betti --seed 1 --t0 <monotonic>
        [--setup-only] [--trace]

Set-up runs from interpreter start (the parent's time.monotonic() just
before launching this process, passed as --t0; CLOCK_MONOTONIC is
system-wide) through ``import hallinv`` to every input built.  The solve
answers the whole request set once; checks run after it, outside the
timed interval.  The last stdout line is a JSON record for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import hallinv  # noqa: F401  (part of set-up)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
        tracer.enabled = True
    import workloads
    requests = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0
    record = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(record))
        return

    answers = []
    latencies = []
    start = time.perf_counter()
    for req in requests:
        t = time.perf_counter()
        try:
            answers.append((req.run(), None))
        except Exception as e:  # a failed request is counted, not fatal
            answers.append((None, f"{type(e).__name__}: {e}"))
        latencies.append([req.rid, time.perf_counter() - t])
    solve_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.enabled = False

    failures = []
    for req, (answer, error) in zip(requests, answers):
        if error is None:
            try:
                error = req.check(answer)
            except Exception as e:
                error = f"check raised {type(e).__name__}: {e}"
        if error is not None:
            failures.append([req.rid, error[:500]])
    orbits = sum(workloads.orbit_count(P, p)
                 for req in requests for P, p in req.orbit_groups)
    record.update(solve_s=solve_s, latencies=latencies, orbits=orbits,
                  attempted=len(requests), failures=failures,
                  peak_rss_mb=peak_rss_mb)
    if tracer is not None:
        metrics, absent = tracer.metrics()
        record.update(layers=metrics, absent=absent)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
