"""Benchmark worker: one fresh interpreter that imports malcev and runs a job.

Started by run.py as ``python3 bench/worker.py JOB_JSON``.  It imports
``malcev.cli`` from the checkout's ``src``, builds the presentations the
workload uses, and writes ``ready`` to stdout; run.py times set-up up to that
line.  A ``setup`` job then runs one speed probe and ends.  Other jobs run
passes of the workload, a single client calling ``malcev.cli.run`` in a closed
loop, and write one JSON result line.  Answers are checked after each pass,
outside the timed region.

Modes:
  setup         report ready and one speed probe
  measure       untraced passes until the time budget is spent
  trace         pass 0 untraced, then pass 0 traced
  trace-repeat  pass 0 traced only, to check that work counts repeat
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program(ns):
    sys.path.insert(0, str(ROOT / "src"))
    import malcev.cli
    from malcev.presentation import build_presentation

    if not Path(malcev.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"malcev was imported from {malcev.cli.__file__}, not {ROOT / 'src'}")
    for n in ns:
        build_presentation(n)
    return malcev.cli


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of host speed, not a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


# Host speed on the shared development host drifted by up to a third over
# minutes, which moved raw times between sets of runs by more than any usable
# bound.  So a short fixed probe runs between commands, at least once a second
# and never inside a timed command, and each command's time is also reported
# scaled to the speed at which the probe takes PROBE_REF_S, its median time on
# that host.
PROBE_REF_S = 0.060
PROBE_EVERY_S = 1.0


def probe() -> float:
    """Seconds for a fixed mix of tuple, dict and integer work (~0.06 s)."""
    start = time.perf_counter()
    table = {}
    for i in range(200_000):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def run_pass(cli, commands):
    """Run commands back to back; return (per-command s, the same scaled by
    the mean of the probes before and after them, outputs)."""
    latencies, scaled, outputs, segment = [], [], [], []
    edge = probe()
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.run(cmd.argv)
            except Exception:  # a crash is a failed command, not a dead run
                code = None
                traceback.print_exc()
            segment.append(time.perf_counter() - t0)
        outputs.append((code, out.getvalue(), err.getvalue()))
        if sum(segment) >= PROBE_EVERY_S or len(outputs) == len(commands):
            after = probe()
            factor = 2 * PROBE_REF_S / (edge + after)
            latencies += segment
            scaled += [t * factor for t in segment]
            segment, edge = [], after
    return latencies, scaled, outputs


def check_pass(workloads, commands, outputs):
    """Failures as (argv, reason), and a digest of every output in order."""
    failures = []
    digest = hashlib.sha256()
    for cmd, (code, out, err) in zip(commands, outputs):
        reason = workloads.judge(cmd, code, out)
        if reason is not None:
            failures.append((cmd.argv, f"{reason}; stderr: {err.strip()[-300:]}"))
        digest.update(repr((code, out, err)).encode())
    return failures, digest.hexdigest()


def main() -> None:
    job = json.loads(sys.argv[1])
    cli = _import_program(job["ns"])
    print("ready", flush=True)
    if job["mode"] == "setup":
        print(json.dumps({"probe_s": probe()}))
        return

    import tracing
    import workloads

    make = workloads.WORKLOADS[job["workload"]]
    seed = job["seed"]
    result = {"calibration_s": calibrate(), "attempted": 0, "failed": 0, "failures": []}

    def one_pass(pass_no):
        commands = make(seed, pass_no)
        latencies, scaled, outputs = run_pass(cli, commands)
        failures, digest = check_pass(workloads, commands, outputs)
        result["attempted"] += len(commands)
        result["failed"] += len(failures)
        result["failures"] = (result["failures"] + failures)[:10]
        return latencies, scaled, digest

    if job["mode"] == "measure":
        raw, scaled = [], []
        start = time.perf_counter()
        while not raw or time.perf_counter() - start < job["seconds"]:
            lat, lat_scaled, _ = one_pass(len(raw))
            raw.append(lat)
            scaled.append(lat_scaled)
        result.update(raw=raw, scaled=scaled)
    else:
        digests = []
        if job["mode"] == "trace":
            _, scaled, digest = one_pass(0)
            wall = sum(scaled)
            digests.append(digest)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, scaled, digest = one_pass(0)
            traced_wall = sum(scaled)
        finally:
            tracer.uninstall()
        digests.append(digest)
        overhead = traced_wall / wall - 1 if job["mode"] == "trace" else None
        result.update(
            digests=digests,
            counts=tracer.counts(),
            metrics=tracer.metrics(overhead),
            table=tracer.table(),
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
