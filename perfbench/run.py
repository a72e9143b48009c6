"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload converge --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half with spans recorded around every layer's entry
points, and prints the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every output check passed, 1 when one failed and 2 when the
working directory holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import warnings

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.stats import median  # noqa: E402
from perfbench.workloads.base import OUT_DIR  # noqa: E402

#: Set-ups timed per run; ``setup_s`` is their median.  One is the
#: run's own; the others run in fresh processes, half before the timed
#: loop and half after it, so one slow moment of the host moves few.
SETUP_SAMPLES = 17

#: End-to-end metrics and their units, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("samples_per_s", "1/s"),
    ("interactions_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time one set-up in this fresh process and exit",
    )
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident set (``VmHWM``) of this process plus its live child
    processes, in MiB."""
    me = os.getpid()
    pids = [me]
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as f:
                stat = f.read()
        except OSError:
            continue
        # Fields after the parenthesized command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            continue
    return total_kib / 1024


def setup_in_fresh_process(args) -> float:
    """Time one set-up in a new interpreter (imports included)."""
    out = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--setup-only",
        ],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def timed_setup(workload) -> float:
    start = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - start
    import repro

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise RuntimeError(f"measuring {repro.__file__}, not {src}")
    return elapsed


def quiet_fallbacks() -> None:
    """Fallback warnings are expected on the leader cells; the traced run
    counts them, the output stays readable."""
    from repro.errors import BackendFallbackWarning

    warnings.simplefilter("ignore", BackendFallbackWarning)


def end_to_end(workload, record, setup_samples, rss_mb) -> dict[str, float]:
    rates = workload.rates(record)
    return {
        "setup_s": median(setup_samples),
        "peak_rss_mb": rss_mb,
        "samples_per_s": rates.samples_per_s,
        "interactions_per_s": rates.interactions_per_s,
        "jobs_per_s": rates.jobs_per_s,
        "job_p50_ms": workload.p50_latency(record) * 1e3,
    }


def extras(workload, record) -> list[tuple[str, str, str]]:
    """Rows printed beside the metrics: the error rate and the
    workload's own headlines."""
    rate = record.failed / max(record.attempted, 1)
    return [("error_rate", f"{rate:.4f}", "ratio")] + workload.headlines(
        record
    )


def report(workload, attempted, failed, problems, metrics, units, rows):
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {workload.name}: {attempted} attempted, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:32} {value:>16.6g} {units[name]}")
    for name, value, unit in rows:
        print(f"  {name:32} {value:>16} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def timed_run(workload, args) -> int:
    fresh = SETUP_SAMPLES - 1
    setup_samples = [
        setup_in_fresh_process(args) for _ in range(fresh // 2)
    ]
    setup_samples.append(timed_setup(workload))
    quiet_fallbacks()
    try:
        workload.make_inputs(args.seed, args.seconds)
        record = workload.run(args.seconds)
        problems = record.problems + workload.final_checks()
        rss = peak_rss_mb()
    finally:
        workload.close()
    setup_samples += [
        setup_in_fresh_process(args) for _ in range(fresh - fresh // 2)
    ]
    failed = record.failed + len(problems) - len(record.problems)
    if not record.done:
        problems.append("no request succeeded")
        return report(workload, record.attempted, max(failed, 1), problems,
                      {}, {}, [])
    return report(
        workload,
        record.attempted,
        failed,
        problems,
        end_to_end(workload, record, setup_samples, rss),
        dict(END_TO_END),
        extras(workload, record),
    )


def traced_run(workload, args) -> int:
    from perfbench.layers import PER_LAYER, instrument, layer_metrics
    from perfbench.spans import SpanRecorder

    recorder = SpanRecorder()
    with instrument(recorder), recorder.span("setup", "bench"):
        timed_setup(workload)
    quiet_fallbacks()
    half = args.seconds / 2
    try:
        workload.make_inputs(args.seed, args.seconds)
        untraced = workload.run(half)
        with instrument(recorder):
            start = time.perf_counter()
            traced = workload.run(half, recorder)
            end = time.perf_counter()
        problems = (
            untraced.problems + traced.problems + workload.final_checks()
        )
        crashes = workload.worker_crashes()
    finally:
        workload.close()
    attempted = untraced.attempted + traced.attempted
    failed = (
        untraced.failed + traced.failed + len(problems)
        - len(untraced.problems) - len(traced.problems)
    )
    metrics = layer_metrics(
        recorder.spans, (start, end), workload.threads, crashes
    )
    if traced.done and untraced.done:
        base = 1 / workload.rates(untraced).jobs_per_s
        cost = 1 / workload.rates(traced).jobs_per_s
        metrics["trace.overhead_s"] = cost - base
        metrics["trace.overhead_ratio"] = cost / base - 1
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.write(
        os.path.join(OUT_DIR, f"spans-{workload.name}-{args.seed}.jsonl")
    )
    units = dict(PER_LAYER)
    refused = [
        (name, value, units[name])
        for name, value in metrics.items()
        if isinstance(value, str)
    ]
    ordered = {}
    for name in units:
        value = metrics.get(name, 0.0)
        ordered[name] = 0.0 if isinstance(value, str) else float(value)
    return report(workload, attempted, failed, problems, ordered, units,
                  refused)


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    from perfbench.workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            "perfbench: no src/repro under the working directory; "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)} or all",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        try:
            elapsed = timed_setup(workload)
        finally:
            workload.close()
        print(json.dumps({"setup_s": elapsed}))
        return 0
    if args.trace:
        return traced_run(workload, args)
    return timed_run(workload, args)


if __name__ == "__main__":
    sys.exit(main())
