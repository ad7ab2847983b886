"""The qwalk benchmark: end-to-end timings of three workloads, or a traced
per-module breakdown of one pass.

    python3 qwbench/run.py --workload line-recurrence --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Everything runs in this process on one thread (BLAS is pinned
to one thread before numpy loads), except the set-up probes, which are
fresh interpreters.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs a fixed number of passes over the workload's operation
list: ``--seconds`` divided by the nominal pass time of the workload on the
reference machine, at least ``MIN_PASSES``.  The amount of work therefore
depends on ``--seconds`` only, and ``wall_norm_s`` compares across commits.
Pass times are reported at reference machine speed (see ``calibration``);
the raw wall times go to standard error.
``--trace 1`` runs untraced passes around two traced ones (spans, then
``tracemalloc`` peaks), writes the spans to ``qwbench/out/`` and prints the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibration  # noqa: E402  (loads numpy, so after the BLAS settings)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Seconds one pass takes, calibration kernels included, on the reference
#: machine (2 vCPU, see README), rounded.
NOMINAL_PASS_S = {"line-recurrence": 3.0, "line-compare": 2.0, "circle-mix": 1.9}
MIN_PASSES = 3
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def require_sources() -> None:
    if not (SRC / "qwalk" / "__init__.py").is_file():
        sys.exit(f"error: no qwalk sources under {SRC}; run from a source checkout")


def load_program():
    """Import numpy and the checkout's ``qwalk``."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import qwalk
    import qwalk.cli

    if Path(qwalk.__file__).resolve().parent != (SRC / "qwalk").resolve():
        sys.exit(f"error: imported qwalk from {qwalk.__file__}, not from {SRC}")
    return qwalk


def set_up(workload: str, seed: int):
    """Everything a run does before its first measured pass."""
    qwalk = load_program()
    import workloads

    ops, warmup = workloads.build(workload, qwalk, seed)
    if workloads.cli_call(qwalk, warmup).rc != 0:
        sys.exit(f"error: warm-up call {' '.join(warmup)} failed")
    return qwalk, workloads, ops


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter to its set-up being done."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            ready = proc.stdout.readline().strip() == "ready"
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        if not ready or rc != 0:
            sys.exit(f"error: set-up probe exited with code {rc}")
    return statistics.median(samples)


def run_pass(ops, gauge=None, ref_s=None):
    """Run every operation once.

    Returns the pass wall time, the pass time at reference machine speed
    (``None`` without ``gauge``) and the records.  With ``gauge``, the
    calibration kernel runs before the first operation and after each one,
    and each operation's time is scaled by ``ref_s`` over the mean of the
    kernel times on either side of it.
    """
    records, seconds, scaled = [], 0.0, 0.0
    before = gauge() if gauge else None
    for op in ops:
        start = time.perf_counter()
        try:
            records.append((op.run(), None))
        except Exception as exc:  # an operation that raises counts as failed
            records.append((None, f"{type(exc).__name__}: {exc}"))
        elapsed = time.perf_counter() - start
        seconds += elapsed
        if gauge:
            after = gauge()
            scaled += elapsed * ref_s / ((before + after) / 2)
            before = after
    return seconds, scaled if gauge else None, records


def traced_pass(qwalk, ops, memory: bool):
    """One pass with every traced callable wrapped.

    Spans for timing come from a pass without ``tracemalloc``, which slows
    each allocation; the pass with ``memory=True`` supplies only the peaks.
    """
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(qwalk)
    if memory:
        tracemalloc.start()
    try:
        seconds, _, records = run_pass(ops)
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    return tracer, seconds, records


def judge(workloads, ops, passes):
    """Count failed operations and collect wrong results over all passes.

    Outputs of the first pass are checked; every later pass must reproduce
    them byte for byte, since the program's outputs are deterministic.
    """
    failed, wrong = 0, []
    first = passes[0]
    for i, op in enumerate(ops):
        outcome, error = first[i]
        verdict = error
        if outcome is not None:
            try:
                op.check(outcome)
            except workloads.NoResult as exc:
                verdict = str(exc)
            except workloads.Wrong as exc:
                wrong.append(f"{op.name}: {exc}")
        digest = outcome.digest() if outcome is not None else None
        reasons = []
        for records in passes:
            later, later_error = records[i]
            if later_error is not None or verdict is not None:
                reasons.append(later_error or verdict)
            elif later.digest() != digest:
                wrong.append(f"{op.name}: output differs between passes")
        if reasons:
            print(f"failed in {len(reasons)} of {len(passes)} passes: {op.name}: {reasons[0]}",
                  file=sys.stderr)
        failed += len(reasons)
    return failed, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if args.setup_probe:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    require_sources()
    setup_s = setup_seconds(args.workload, args.seed) if not args.trace else None
    qwalk, workloads, ops = set_up(args.workload, args.seed)

    if args.trace:
        # The first pass after start-up runs slower (allocator and caches
        # warming), and the machine's speed drifts, so the traced pass is
        # compared with the mean of the untraced passes on either side.
        _, _, warm_records = run_pass(ops)
        before_s, _, before_records = run_pass(ops)
        timing, traced_s, traced_records = traced_pass(qwalk, ops, memory=False)
        after_s, _, after_records = run_pass(ops)
        memory, _, memory_records = traced_pass(qwalk, ops, memory=True)
        passes = [warm_records, before_records, traced_records, after_records, memory_records]
        untraced_s = (before_s + after_s) / 2
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        timing.write(path, memory, {"workload": args.workload, "seed": args.seed,
                                    "untraced_s": untraced_s, "traced_s": traced_s})
        print(f"spans: {len(timing.spans)} written to {path.relative_to(ROOT)}",
              file=sys.stderr)
        metrics = timing.layer_metrics(memory, traced_s - untraced_s)
    else:
        count = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        times, scaled, passes, kernel_s = [], [], [], []

        def gauge():
            kernel_s.append(calibration.kernel_seconds(args.workload))
            return kernel_s[-1]

        ref_s = calibration.KERNELS[args.workload][1]
        for _ in range(count):
            seconds, at_ref, records = run_pass(ops, gauge, ref_s)
            times.append(seconds)
            scaled.append(at_ref)
            passes.append(records)
        print("pass_s: " + " ".join(f"{x:.3f}" for x in times), file=sys.stderr)
        print("pass_norm_s: " + " ".join(f"{x:.3f}" for x in scaled), file=sys.stderr)
        print(f"kernel_s: median {statistics.median(kernel_s):.4f} over {len(kernel_s)} runs",
              file=sys.stderr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_norm_s": (sum(scaled), "s"),
            "pass_p50_norm_s": (statistics.median(scaled), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    failed, wrong = judge(workloads, ops, passes)
    for line in wrong:
        print(f"wrong: {line}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
