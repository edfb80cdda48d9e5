"""vidtext benchmark: one workload per process, timed end to end, or traced
layer by layer with `--trace 1`.

    python3 benchmarks/run.py --workload pretrain-mix --seed 1 --seconds 40 --trace 0

The inputs are generated from `--seed` by a child process into a scratch
directory under `.bench_work/` in the checkout, so the measured process
only reads files.  Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  Exit code 0 means the run finished, whether or not its
outputs passed the checks (see `correct`); any other code means no result.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy loads: the ops are small and the
# benchmark must not use more threads than cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(CHECKOUT / "src"))

try:
    import numpy as np
    import vidtext
except ImportError as exc:
    print(f"error: cannot import the program from {CHECKOUT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)
if not Path(vidtext.__file__).resolve().is_relative_to(CHECKOUT / "src"):
    print(f"error: vidtext comes from {vidtext.__file__}, not this checkout", file=sys.stderr)
    sys.exit(2)

import inputs
import tracing
from workloads import WORKLOADS, Budget

# The machine's speed can drift by half within seconds, so the set-ups are
# spread over the run: each of `ROUNDS` rounds sets up `SETUPS_PER_ROUND`
# times and then runs ops on the last set-up for its share of the time.
ROUNDS = 4
SETUPS_PER_ROUND = 5
MIN_STEPS_PER_ROUND = 3
GENERATE_TIMEOUT_S = 120

# name -> (unit, better): gated on every workload; a "step" is one closed-loop
# operation: a training step, or a ranked query on retrieval-eval.  Step
# times are gated in units of `reference_ms()`, timed around each step,
# because the host's speed drifts more between runs than the bounds allow;
# the same figures in wall-clock units are printed but not gated.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "step_ref.p50": ("ref", "lower"),
    "step_ref.p90": ("ref", "lower"),
    "steps_per_ref": ("1/ref", "higher"),
}


def machine_record(seed: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
        "workload_seed": seed,
    }


def process_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def generate_inputs(args, workdir: Path) -> inputs.InputFiles:
    """Write the inputs from a child process so the measured process only
    reads them, and its peak memory is its own."""
    cmd = [sys.executable, str(Path(__file__)), "--generate", str(workdir),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    subprocess.run(cmd, check=True, timeout=GENERATE_TIMEOUT_S)
    return inputs.InputFiles.under(workdir)


# -- the untraced, timed run ---------------------------------------------------------


def timed_run(workload, seconds: float) -> dict:
    """`ROUNDS` rounds of set-ups and ops over `seconds`.  Each round goes on
    from the step or query where the one before stopped."""
    start = time.perf_counter()
    setup_s, ops, steps, step_refs, refs = [], [], [], [], []
    for r in range(ROUNDS):
        for _ in range(SETUPS_PER_ROUND):
            # hold one set-up at a time, as the commands do, so peak memory
            # counts one copy and no set-up pays to collect the one before
            st = None
            gc.collect()
            t0 = time.perf_counter()
            st = workload.setup()
            setup_s.append(time.perf_counter() - t0)
        left = seconds - (time.perf_counter() - start)
        budget = Budget(seconds=left / (ROUNDS - r), min_ops=MIN_STEPS_PER_ROUND)
        new = workload.run(st, budget, tracing.NoTrace(), start=len(steps))
        ops += new
        steps += [o for o in new if o.kind in workload.kinds]
        # step i of the round lies between reference times i and i + 1
        step_refs += [(a + b) / 2 for a, b in zip(budget.ref_ms, budget.ref_ms[1:])]
        refs += budget.ref_ms
    assert len(step_refs) == len(steps), "a workload loop must call Budget.more() once per step and once after"
    step_ms = [o.ms for o in steps]
    step_ref = [o.ms / ref for o, ref in zip(steps, step_refs)]
    values = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "step_ref.p50": statistics.median(step_ref),
        "step_ref.p90": float(np.percentile(step_ref, 90)),
        "steps_per_ref": len(steps) / sum(o.wall * 1e3 / ref for o, ref in zip(steps, step_refs)),
    }
    metrics = {k: (v, END_TO_END[k][0]) for k, v in values.items()}
    # wall-clock figures, and latencies that exist on one workload only:
    # printed, not gated
    metrics["reference_ms.p50"] = (statistics.median(refs), "ms")
    metrics["step_ms.p50"] = (statistics.median(step_ms), "ms")
    metrics["step_ms.p90"] = (float(np.percentile(step_ms, 90)), "ms")
    metrics["steps_per_s"] = (len(steps) / sum(o.wall for o in steps), "1/s")
    if workload.name == "retrieval-eval":
        metrics["encode_ms_per_clip.p50"] = (statistics.median(o.ms for o in ops if o.kind == "encode"), "ms")
        metrics["rank_ms_per_query.p50"] = metrics["step_ms.p50"]
        metrics["rank_ms_per_query.p90"] = metrics["step_ms.p90"]
    if workload.name == "pretrain-mix":
        for kind in workload.kinds:
            ms = [o.ms for o in steps if o.kind == kind]
            metrics[f"step_ms.{kind}"] = (statistics.median(ms) if ms else float("nan"), "ms")
    samples = {kind: sum(o.kind == kind for o in ops) for kind in sorted({o.kind for o in ops})}
    return {
        "ops": ops,
        "checks": [],
        "metrics": metrics,
        "extra": {"samples": samples, "setup_s_runs": setup_s, **workload.report(st, ops)},
    }


# -- the traced run ---------------------------------------------------------------------


def traced_run(workload, trace_ops: int, spans_path: Path) -> dict:
    """Four passes over the same fixed op list: untraced, traced, untraced,
    traced.  Tracing overhead compares the time of each op between the two
    kinds of pass.  Every pass must produce the same losses or rankings bit
    for bit, and the two traced passes the same counts.  The spans of the
    traced passes are written to `spans_path` at the end."""
    passes = []
    for traced in (False, True, False, True):
        if traced:
            tracer = tracing.Tracer()
            with tracer.installed():
                with tracer.span("setup"):
                    st = workload.setup()
                ops = workload.run(st, Budget(ops=trace_ops), tracer)
        else:
            tracer = tracing.NoTrace()
            st = workload.setup()
            ops = workload.run(st, Budget(ops=trace_ops), tracer)
        passes.append((tracer, ops))

    # per op, traced over untraced time; the median resists bursts of load
    (_, u1), (_, t1), (_, u2), (_, t2) = passes
    ratios = [(a.wall + b.wall) / (c.wall + d.wall) for a, b, c, d in zip(t1, t2, u1, u2)]
    untraced_s = sum(o.wall for o in u1 + u2)
    traced_s = sum(o.wall for o in t1 + t2)
    tracers = [t for t, _ in passes[1::2]]
    layer = tracing.layer_metrics(tracers, statistics.median(ratios) - 1.0)
    tracing.write_spans(spans_path, tracers)

    checks = []
    values = [[o.value for o in ops] for _, ops in passes]
    if any(v != values[0] for v in values[1:]):
        checks.append("losses or rankings differ between traced and untraced passes")
    counts = [t.exact_counts() for t in tracers]
    if counts[0] != counts[1]:
        checks.append(f"exact counts differ between traced passes: {counts[0]} vs {counts[1]}")
    if workload.name == "retrieval-eval" and any(
        layer[k] for k in layer if k.startswith("tensor.")
    ):
        checks.append("retrieval-eval touched the gradient tape, backward or the optimizer")
    return {
        "ops": [o for _, ops in passes for o in ops],
        "checks": checks,
        "metrics": {k: (v, tracing.LAYER_METRICS[k][0]) for k, v in layer.items()},
        "extra": {"exact_counts": counts[0], "untraced_op_s": untraced_s, "traced_op_s": traced_s,
                  "spans_per_pass": [len(t.spans) for t in tracers], "spans_file": str(spans_path)},
    }


# -- entry point ----------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    p.add_argument("--generate", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sizes = (inputs.TINY if args.tiny else inputs.FULL)[args.workload]
    if args.generate:
        inputs.generate(args.workload, args.seed, Path(args.generate), sizes)
        return 0

    machine = machine_record(args.seed)
    scratch = CHECKOUT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        files = generate_inputs(args, workdir)
        workload = WORKLOADS[args.workload](files, workdir)
        if args.trace:
            spans_path = scratch / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result = traced_run(workload, sizes.trace_ops, spans_path)
        else:
            result = timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine["threads"] = process_threads()
    if machine["threads"] > machine["nproc"]:
        result["checks"].append(f"{machine['threads']} threads on {machine['nproc']} cores")

    ops = result["ops"]
    failed = [o for o in ops if o.error]
    gated = tracing.LAYER_METRICS if args.trace else END_TO_END
    errors = sorted({o.error for o in failed}) + result["checks"]

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"# machine {json.dumps(machine)}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:36s} {value:14.4f} {unit}")
    print(f"{'ops.attempted':36s} {len(ops):14d}")
    print(f"{'ops.failed':36s} {len(failed):14d}")
    print(f"# extra {json.dumps(result['extra'])}")
    for err in errors:
        print(f"# error {err}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": result["metrics"][k][0], "unit": result["metrics"][k][1]}
                    for k in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
