"""Write reference.json: the result of every input the benchmark can draw.

Run from the repository root, on the default thread settings of a machine
with at least two cores (takes several minutes):

    python3 perfbench/make_reference.py

Every input is solved twice: here, on the default BLAS threads, and in a
child process on one BLAS thread.  The reference holds the first result.
The objective, the energy and scenario prices and the welfare summary must
agree between the two; theta and pi are kept only where they agree to a
tenth of the tolerance the benchmark checks them with, and the entry is
marked ``degenerate`` otherwise.

Regenerate only when the program's answers are meant to change; the
benchmark fails every operation whose output no longer matches.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

STABLE_RTOL = workloads.PRICE_RTOL / 10


def solve_all():
    """({workload: {key: reference entry}}, failures) on this process's
    thread settings; inputs that fail are left out."""
    reference, failures = {}, []
    for workload in workloads.WORKLOADS:
        entries = reference[workload] = {}
        for key, item in workloads.reference_inputs(workload):
            try:
                output = workloads.operate(workload, item)
            except Exception as exc:  # report every failing input, not just the first
                failures.append(f"{workload} {key}: {type(exc).__name__}: {exc}")
                continue
            entry = workloads.reference_entry(workload, output)
            problems = workloads.check(workload, output, entry)
            if problems:
                failures.append(f"{workload} {key}: {problems}")
                continue
            entries[key] = entry
            print(workload, key, file=sys.stderr, flush=True)
    return reference, failures


def solve_all_on_one_blas_thread():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, make_reference; json.dump(make_reference.solve_all()[0], sys.stdout)"],
        cwd=HERE, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def unstable(workload, entry, other):
    """Names of the unique answers that differ between the two solves."""
    if workload == "compare":
        names = [f"welfare {k}" for k in workloads.SUMMARY_KEYS
                 if not workloads.close(entry["welfare"][k], other["welfare"][k],
                                         workloads.SUMMARY_RTOL)]
        if not workloads.prices_close(entry["scenario_lam"], other["scenario_lam"]):
            names.append("scenario_lam")
        return names
    names = [] if workloads.close(entry["objective"], other["objective"],
                                   workloads.OBJECTIVE_RTOL) else ["objective"]
    return names + ([] if workloads.prices_close(entry["lam"], other["lam"]) else ["lam"])


def main():
    if (os.cpu_count() or 1) < 2 or {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
        raise SystemExit("run on the default thread settings of a machine with two or more cores")
    reference, failures = solve_all()
    single = solve_all_on_one_blas_thread()
    for workload, entries in reference.items():
        for key in list(entries):
            entry, other = entries[key], single[workload].get(key)
            names = ["no one-thread result"] if other is None else unstable(workload, entry, other)
            if names:
                failures.append(f"{workload} {key}: differs on one BLAS thread: {names}")
                del entries[key]
            elif workload != "compare" and not all(
                    workloads.prices_close(entry[n], other[n], STABLE_RTOL) for n in ("theta", "pi")):
                del entry["theta"], entry["pi"]
                entry["degenerate"] = True
    write_reference(reference)
    if failures:
        raise SystemExit("failed inputs:\n" + "\n".join(failures))


def write_reference(reference):
    """One line per entry, so a changed answer shows as a one-line diff."""
    lines = []
    for workload in sorted(reference):
        entries = reference[workload]
        body = ",\n".join(f"  {json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
                          for key in sorted(entries, key=lambda k: (len(k), k)))
        lines.append(f" {json.dumps(workload)}: {{\n{body}\n }}")
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
