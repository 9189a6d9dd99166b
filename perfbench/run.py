"""hallinv benchmark: exact answers, timed end to end and layer by layer.

    python3 perfbench/run.py --workload {betti,oracle,queries} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout.  Every timed pass is a fresh interpreter
(perfbench/worker.py), so no program cache outlives a pass; repeats of a
request inside a pass are part of the traffic.  Passes run one after
another (a closed loop with one client) for about S seconds, and at least
once.  Set-up is also measured on its own in several extra interpreters.

--trace 0 prints the end-to-end metrics, as medians over the passes of
the run: setup_s (over every interpreter of the run), solve_s,
chars_per_s (order-p character orbits the requests resolve, over solve_s)
and peak_rss_mb; then request_p50_ms and request_p90_ms over every request
of every pass, and failed_frac.  --trace 1 runs one pass untraced and one
traced, and prints the per-layer metrics of the traced pass (set-up and
solve), with the tracing overhead.

Every answer is checked after its pass, outside the timed interval; a
wrong answer or an exception counts as failed.  The last stdout line is
the JSON result; a record with the environment, the raw passes and the
failures goes to perfbench/out/<workload>-seed<N>-trace<T>.json.  A
traced run compares its counts with the previous traced run of the same
workload and seed, if one is on file, and flags any count that differs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("betti", "oracle", "queries")
END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("chars_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
# printed and recorded, but not in the JSON result: on betti and oracle a
# pass has 12 to 18 requests, too few for a steady percentile
LATENCY = (("request_p50_ms", "ms"), ("request_p90_ms", "ms"))
# set-up-only interpreters per run, half before the passes and half after
SETUP_REPEATS = 8
RUN_LIMIT_S = 170


class BenchmarkError(Exception):
    """The benchmark could not measure: no result is printed."""


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _worker(workload, seed, deadline, *, setup_only=False, trace=False):
    """Run one fresh-interpreter pass; its JSON record and wall time."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed)]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv.append("--trace")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("time limit reached before a pass could start")
    t0 = time.monotonic()
    # its own process group, so a timeout also ends forked --jobs workers
    proc = subprocess.Popen(argv + ["--t0", repr(t0)], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{workload} pass exceeded the time limit")
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} pass exited {proc.returncode}:\n"
                             + err.strip()[-2000:])
    return json.loads(out.strip().splitlines()[-1]), wall


def _end_to_end(passes, setups):
    solve_s = statistics.median(p["solve_s"] for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "solve_s": solve_s,
        "chars_per_s": passes[0]["orbits"] / solve_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def _latency(passes):
    """Percentiles over every request of every pass."""
    latencies = [t * 1000 for p in passes for _, t in p["latencies"]]
    return {"request_p50_ms": statistics.median(latencies),
            "request_p90_ms": statistics.quantiles(latencies, n=10)[-1],
            "requests": len(latencies)}


def _count_metrics(layers):
    return {k: v for k, v in layers.items()
            if ".calls" in k or k.startswith("oracle.plan.")
            or k == "charvar.pool.launches"}


def measure(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if not (ROOT / "src" / "hallinv" / "__init__.py").is_file():
        raise BenchmarkError(f"no hallinv package under {ROOT / 'src'}")
    # untimed warm-up: the program imports and its bytecode cache is written
    _worker(workload, seed, deadline, setup_only=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "python": platform.python_version(),
              "nproc": os.cpu_count(), "loadavg_start": _loadavg()}

    if trace:
        plain, _ = _worker(workload, seed, deadline)
        traced, _ = _worker(workload, seed, deadline, trace=True)
        passes = [plain, traced]
        record["tracing_overhead_s"] = traced["solve_s"] - plain["solve_s"]
        record["absent"] = traced["absent"]
        metrics = traced["layers"]
    else:
        def setup_samples(n):
            return [_worker(workload, seed, deadline, setup_only=True)[0]
                    ["setup_s"] for _ in range(n)]

        setups = setup_samples(SETUP_REPEATS // 2)
        measure_start = time.monotonic()
        passes, walls = [], []
        while not passes or (time.monotonic() - measure_start + max(walls)
                             <= seconds):
            result, wall = _worker(workload, seed, deadline)
            passes.append(result)
            walls.append(wall)
        setups += setup_samples(SETUP_REPEATS - SETUP_REPEATS // 2)
        setups += [p["setup_s"] for p in passes]
        record["setup_samples"] = setups
        record["latency"] = _latency(passes)
        metrics = _end_to_end(passes, setups)

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    record.update(
        loadavg_end=_loadavg(), metrics=metrics, attempted=attempted,
        failed=len(failures), failed_frac=len(failures) / attempted,
        failures=failures[:50],
        passes=[{k: v for k, v in p.items() if k != "layers"}
                for p in passes])
    if trace:
        previous = OUT / f"{workload}-seed{seed}-trace1.json"
        record["counts_compared"] = previous.is_file()
        record["count_flags"] = _count_flags(workload, previous, metrics,
                                             traced["orbits"])
    return record


def _count_flags(workload, previous, metrics, orbits):
    """Counts that did not repeat, against the previous traced run of the
    same workload and seed, and invariants of the counts."""
    flags = []
    counts = _count_metrics(metrics)
    if previous.is_file():
        before = _count_metrics(json.loads(previous.read_text())["metrics"])
        for k in sorted(set(counts) | set(before)):
            if counts.get(k) != before.get(k):
                flags.append(f"{k}: {before.get(k)} before, "
                             f"{counts.get(k)} now")
    if workload == "betti":
        depth_calls = sum(v for k, v in counts.items()
                          if k.startswith("charvar.depth.calls."))
        if depth_calls != orbits:
            flags.append(f"charvar.depth.calls.* = {depth_calls}, "
                         f"orbit representatives = {orbits}")
    return flags


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except (BenchmarkError, OSError, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    _report(args.workload, record)
    return 0


def _report(workload, record):
    """Readable lines, then the JSON result as the last line."""
    if record["trace"]:
        units = {m[0]: m[1] for m in METRICS}
        moves = {m[0]: m[4] for m in METRICS}
        absent = set(record["absent"])
        for metric, value in record["metrics"].items():
            shown = "absent" if metric in absent else value
            print(f"{workload} {metric} = {shown} {units[metric]}"
                  f"  [should move {moves[metric]}]")
        print(f"{workload} tracing overhead = "
              f"{record['tracing_overhead_s']:.3f} s (traced minus untraced "
              "solve_s); spans inside forked --jobs workers are not captured")
        for flag in record["count_flags"]:
            print(f"{workload} COUNT FLAG {flag}")
        if record["counts_compared"] and not record["count_flags"]:
            print(f"{workload} counts repeat the previous traced run "
                  "of this seed exactly")
    else:
        units = dict(END_TO_END)
        for metric, value in record["metrics"].items():
            print(f"{workload} {metric} = {value:.6g} {units[metric]}")
        latency = record["latency"]
        for metric, unit in LATENCY:
            print(f"{workload} {metric} = {latency[metric]:.6g} {unit} "
                  f"(over {latency['requests']} requests)")
    print(f"{workload} failed_frac = {record['failed_frac']} ratio "
          f"({record['failed']} of {record['attempted']} requests)")
    for rid, message in record["failures"]:
        print(f"{workload} FAILED {rid}: {message}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in record["metrics"].items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
