"""malcev benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload align --seed 1729 --seconds 20 --trace 0

Run from anywhere; the program under test is the ``src`` tree next to this
directory.  Workloads are defined in workloads.py and explained in README.md.

--trace 0 measures the end-to-end metrics.  Set-up is timed over several
fresh workers and reported as the median; then one worker runs passes of the
workload until --seconds have passed.  Times are scaled to a reference host
speed measured by a probe between commands (see worker.PROBE_REF_S); the
unscaled times are printed in the context line.

--trace 1 reports the per-layer metrics.  One worker runs pass 0 untraced and
then traced, and a second worker runs pass 0 traced again.  The run is correct
only if all three produce byte-identical outputs and both traced passes
repeat every work count exactly.  It runs a fixed amount of work, not for
--seconds.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it give the context and each metric by name.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import PROBE_REF_S  # noqa: E402

SETUP_SAMPLES = 11  # fresh workers timed for setup_s, the measuring one included
RUN_LIMIT_S = 170  # every worker of a run must be done by then

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def run_worker(job: dict, deadline: float):
    """Run one worker to completion: return (seconds from spawn to its ready
    line, its result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE,
        bufsize=0,  # unbuffered, so reading the ready line leaves the rest
        env=dict(os.environ, PYTHONHASHSEED="0"),
        cwd=ROOT,
    )
    try:
        readable, _, _ = select.select(
            [proc.stdout], [], [], max(0.0, deadline - time.monotonic())
        )
        ready = proc.stdout.readline() if readable else b""
        setup_s = time.perf_counter() - start
        if ready.strip() != b"ready":
            raise RuntimeError("worker failed during set-up")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
        return setup_s, json.loads(out.splitlines()[-1])
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker ran past the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def nearest_rank(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def timings(passes, setup_s):
    """End-to-end timing metrics from per-pass lists of command latencies."""
    return {
        "setup_s": setup_s,
        "verdict_s": statistics.median(sum(p) for p in passes),
        "query_p50_ms": 1000 * statistics.median(nearest_rank(p, 0.50) for p in passes),
        "query_p99_ms": 1000 * statistics.median(nearest_rank(p, 0.99) for p in passes),
        "queries_per_s": sum(map(len, passes)) / sum(map(sum, passes)),
    }


def measure(args, deadline):
    base = {"workload": args.workload, "ns": workloads.PRESENTATION_N[args.workload]}
    setups, probes = [], []
    for _ in range(SETUP_SAMPLES - 1):
        setup_s, res = run_worker({**base, "mode": "setup"}, deadline)
        setups.append(setup_s)
        probes.append(res["probe_s"])
    job = {**base, "mode": "measure", "seed": args.seed, "seconds": args.seconds}
    setup_s, res = run_worker(job, deadline)
    setups.append(setup_s)
    setup_scale = PROBE_REF_S / statistics.fmean(probes)
    values = timings(res["scaled"], statistics.median(setups) * setup_scale)
    values["peak_rss_mb"] = res["peak_rss_mb"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    context = {
        "passes": len(res["raw"]),
        "query_samples": sum(map(len, res["raw"])),
        "unscaled": timings(res["raw"], statistics.median(setups)),
    }
    return res, metrics, context, True


def trace(args, deadline):
    base = {
        "workload": args.workload,
        "ns": workloads.PRESENTATION_N[args.workload],
        "seed": args.seed,
    }
    _, first = run_worker({**base, "mode": "trace"}, deadline)
    _, second = run_worker({**base, "mode": "trace-repeat"}, deadline)
    ok = True
    if len(set(first["digests"] + second["digests"])) != 1:
        print("self-test: traced and untraced outputs differ", file=sys.stderr)
        ok = False
    if first["counts"] != second["counts"]:
        diff = {
            k: (first["counts"].get(k), second["counts"].get(k))
            for k in first["counts"].keys() | second["counts"].keys()
            if first["counts"].get(k) != second["counts"].get(k)
        }
        print(f"self-test: work counts differ between traced runs: {diff}", file=sys.stderr)
        ok = False
    print(first["table"], file=sys.stderr)
    res = {
        **first,
        "attempted": first["attempted"] + second["attempted"],
        "failed": first["failed"] + second["failed"],
        "failures": first["failures"] + second["failures"],
    }
    return res, first["metrics"], {"self_test": "pass" if ok else "fail"}, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "malcev" / "cli.py").is_file():
        print(f"error: no malcev source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        res, metrics, extra, ok = (trace if args.trace else measure)(args, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for argv, reason in res["failures"]:
        print(f"FAILED {' '.join(argv)}: {reason}", file=sys.stderr)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": res["calibration_s"],
        "fail_ratio": res["failed"] / res["attempted"],
        **extra,
    }
    print(json.dumps({"context": context}))
    for name, m in metrics.items():
        print(f"{name:34} {m['value']:14.6f} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": ok and res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
