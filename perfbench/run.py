"""storage-pricer benchmark runner.

    python3 perfbench/run.py --workload day24 --seed 1 --seconds 40 --trace 0

Runs one workload (``day24``, ``week168`` or ``compare``; see workloads.py)
in this process as a closed loop with one caller, on the thread settings the
environment gives (nothing is pinned), and checks every operation's output.
``--workload all`` runs the three in turn, each in a fresh process.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
runs the operations untraced for half the time, replays the same inputs
with span hooks attached (spans.py), checks that the prices are bit for bit
the same, and reports per-layer metrics per operation.

The human-readable report goes first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The package is imported from ``src/`` next to this directory and nowhere
else; without it the runner exits with code 2 and prints no result.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("day24", "week168", "compare")
SETUP_REPEATS = 11
# Loaded before the set-up clock starts: see setup.
THIRD_PARTY = ("numpy", "scipy.linalg", "scipy.optimize", "scipy.special")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "STORAGE_PRICER_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import storage_pricer from this checkout's src/, or exit with code 2."""
    if not (SRC / "storage_pricer" / "__init__.py").is_file():
        _fail(f"no storage_pricer source under {SRC}")
    sys.path.insert(0, str(SRC))
    import storage_pricer

    if Path(storage_pricer.__file__).resolve().parent != SRC / "storage_pricer":
        _fail(f"imported storage_pricer from {storage_pricer.__file__}, not {SRC}")


def machine_info():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError) as exc:
        blas = f"unknown ({exc})"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def _cpu():
    t = os.times()
    return t.user + t.system


@dataclass
class Op:
    key: str
    seconds: float
    cpu: float
    problems: list
    fingerprint: bytes | None


def run_ops(workload, inputs, reference, seconds, recorder=None):
    """Closed loop, one caller: run ``inputs`` in order, checking each output,
    until the next operation is expected to end past ``seconds`` (at least one
    operation runs).  A failed check or an exception fails that operation
    only."""
    import workloads

    ops = []
    start = time.perf_counter()
    for key, item in inputs:
        cpu0, t0 = _cpu(), time.perf_counter()
        try:
            if recorder is None:
                output = workloads.operate(workload, item)
            else:
                recorder.enabled = True
                try:
                    with recorder.span("op"):
                        output = workloads.operate(workload, item)
                finally:
                    recorder.enabled = False
            error = None
        except Exception:  # the loop must go on; the traceback is the report
            error = traceback.format_exc(limit=3)
        elapsed, cpu = time.perf_counter() - t0, _cpu() - cpu0
        if error is None:
            problems = workloads.check(workload, output, reference.get(workload, {}).get(key))
            stamp = workloads.fingerprint(workload, output)
            del output
        else:
            problems, stamp = [error], None
        ops.append(Op(key, elapsed, cpu, problems, stamp))
        typical = statistics.median(op.seconds for op in ops)
        if time.perf_counter() - start + typical > seconds:
            break
    return ops


def _forget_package():
    for name in list(sys.modules):
        if name.split(".")[0] in ("storage_pricer", "workloads", "spans"):
            del sys.modules[name]


def setup(workload, seed, tiny):
    """Import the package and synthesise the inputs SETUP_REPEATS times, each
    from a fresh import of the package; (inputs, median seconds).

    The third-party libraries the package imports are loaded first and not
    timed: they are not this repository's code, and on a shared host their
    import time swung by 30% between two sets of runs, more than any bound
    the benchmark may set.
    """
    for name in THIRD_PARTY:
        importlib.import_module(name)
    times = []
    for _ in range(SETUP_REPEATS):
        _forget_package()
        t0 = time.perf_counter()
        inputs = importlib.import_module("workloads").make_inputs(workload, seed, tiny)
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(times)


def end_to_end(workload, seed, seconds, tiny=False, reference=None):
    """Untraced run: (result dict, report lines)."""
    inputs, setup_s = setup(workload, seed, tiny)
    import workloads

    reference = workloads.load_reference() if reference is None else reference
    ops = run_ops(workload, _cycle(inputs, workload), reference, seconds)
    busy = sum(op.seconds for op in ops)
    cpu = sum(op.cpu for op in ops)
    times = [op.seconds for op in ops]
    failed = sum(1 for op in ops if op.problems)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ops) / busy, "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p80": (statistics.quantiles(times, n=5, method="inclusive")[3] if len(times) > 1
                     else times[0], "s"),
        "cpu_s_per_op": (cpu / len(ops), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # The same figures under the names of the operation each workload runs.
    named = {"setup_s": (setup_s, "s")}
    if workload == "compare":
        named["compare_s"] = (statistics.median(times), "s")
    else:
        named["solves_per_s"] = metrics["ops_per_s"]
        named["solve_s_p50"] = metrics["op_s_p50"]
        if workload == "day24":
            named["solve_s_p80"] = metrics["op_s_p80"]
    named["cpu_s"] = (cpu, "s")
    named["peak_rss_mb"] = metrics["peak_rss_mb"]
    named["fail_frac"] = (failed / len(ops), "ratio")
    lines = [f"{workload}: {len(ops)} operations in {busy:.2f} s busy, {failed} failed"]
    lines += [f"  {name:<14} {value:.6g} {unit}" for name, (value, unit) in named.items()]
    beyond = sum(1 for t in times if t > metrics["op_s_p80"][0])
    lines.append(f"  samples        {len(ops)} ({beyond} beyond p80)")
    lines += _failure_lines(ops)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, lines


def _cycle(inputs, workload):
    """week168 and compare repeat their inputs; day24 walks its stream once."""
    if workload == "day24":
        yield from inputs
    else:
        while True:
            yield from inputs


def _failure_lines(ops):
    lines = []
    for op in ops:
        for problem in op.problems:
            lines.append(f"  FAILED {op.key}: {problem.strip().splitlines()[-1]}")
    return lines


def traced(workload, seed, seconds, tiny=False, reference=None):
    """Untraced pass, then the same inputs with hooks attached: (result, report lines)."""
    import spans
    import workloads

    reference = workloads.load_reference() if reference is None else reference
    inputs = workloads.make_inputs(workload, seed, tiny)
    plain = run_ops(workload, _cycle(inputs, workload), reference, seconds / 2)
    replay = [inputs[i % len(inputs)] for i in range(len(plain))]
    recorder = spans.Recorder()
    with spans.hooks(recorder):
        recorder.enabled = True
        workloads.make_inputs(workload, seed, tiny)
        recorder.enabled = False
        synth_s = sum(s.end - s.start for s in recorder.spans if s.name == "scenarios.synth")
        recorder.spans.clear()
        traced_ops = run_ops(workload, iter(replay), reference, float("inf"), recorder)
    caller = threading.get_ident()
    metrics = spans.layer_metrics(recorder, len(traced_ops), caller)
    if "scenarios.synth" not in recorder.missing:
        metrics["scenarios.synth_s"] = {"value": synth_s, "unit": "s"}
    plain_s = sum(op.seconds for op in plain)
    traced_s = sum(op.seconds for op in traced_ops)
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_s - plain_s) / plain_s, "unit": "%"}

    failed = 0
    for a, b in zip(plain, traced_ops):
        if a.fingerprint is not None and b.fingerprint is not None and a.fingerprint != b.fingerprint:
            b.problems.append("traced prices differ from the untraced run")
        failed += bool(a.problems or b.problems)
    lines = [f"{workload} traced: {len(traced_ops)} operations, {traced_s:.2f} s traced "
             f"vs {plain_s:.2f} s untraced, {failed} failed"]
    lines += [f"  {name:<27} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    per_op = traced_s / len(traced_ops)
    shares = {
        "costs": ("costs.gate_s", "costs.kernel_s"),
        "solver": ("solver.self_s",),
        "dispatch": ("dispatch.assemble_s", "dispatch.audit_s"),
        "baseline.price_scenarios": ("baseline.price_scenarios_s",),
    }
    for layer, names in shares.items():
        if all(n in metrics for n in names):
            share = sum(metrics[n]["value"] for n in names) / per_op
            lines.append(f"  thread time / op wall time: {layer:<24} {100 * share:.1f}%")
    for hook, reason in recorder.missing.items():
        lines.append(f"  MISSING {hook}: {reason}")
    lines += _failure_lines(plain) + _failure_lines(traced_ops)
    result = {"correct": failed == 0, "attempted": len(traced_ops), "failed": failed,
              "metrics": metrics}
    return result, lines


def run_all(args):
    """Each workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            _fail(f"workload {workload} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        run_all(args)
        return
    import_package()
    info = machine_info()
    print("machine: " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    if args.trace:
        result, lines = traced(args.workload, args.seed, args.seconds)
    else:
        result, lines = end_to_end(args.workload, args.seed, args.seconds)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
