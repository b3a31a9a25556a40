"""rdbw benchmark: one workload, one seed, a fixed measuring time.

Run from the repository root:

    python3 bench/run.py --workload mc_n500 --seed 1 --seconds 25 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json; bench/NOTES.md
explains them.  With ``--trace 0`` the last stdout line holds every
end-to-end metric, with ``--trace 1`` every per-layer metric from a traced
run.  The lines before it print each metric with its unit and direction,
the workload-specific figures under their own names, and provenance; the
whole record also goes to bench/out/<workload>-seed<seed>-trace<t>.json.

This process does not import numpy.  It times set-up in fresh interpreters
(bench/setup_probe.py, median of 9) and runs the workload itself in
a separate process (bench/measure.py), so that the workload's peak memory
is not mixed with the probes'.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import monotonic

from common import BENCH_DIR, OUT, ROOT, WORKLOADS

SETUP_PROBES = 9
# time a run may take beyond --seconds: the set-up probes, the workload's
# set-up, the round that crosses --seconds, and for a traced MC run the
# rest of its first pass over the cells; at --seconds 25 a run ends
# within 165 s
OVERRUN_S = 140.0


class BenchError(Exception):
    pass


def _last_json_line(stdout, what):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise BenchError(f"{what} printed nothing")
    return json.loads(lines[-1])


def _run_child(cmd, timeout, what):
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return _last_json_line(proc.stdout, what)


def measure_setup(args, deadline):
    os.makedirs(OUT, exist_ok=True)
    probe = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
             "--workload", args.workload, "--seed", str(args.seed), "--work-dir", OUT]
    values = []
    for i in range(1 if args.tiny else SETUP_PROBES):
        values.append(_run_child(probe, deadline - monotonic(), f"set-up probe {i}")["setup_s"])
    return statistics.median(values), values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="small inputs, one set-up probe (for the smoke tests)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    deadline = monotonic() + args.seconds + OVERRUN_S
    if not os.path.isfile(os.path.join(ROOT, "src", "rdbw", "__init__.py")):
        print(f"error: no rdbw sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        setup = None if args.trace else measure_setup(args, deadline)
        cmd = [sys.executable, os.path.join(BENCH_DIR, "measure.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        record = _run_child(cmd + (["--tiny"] if args.tiny else []), deadline - monotonic(), "measurement")
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    values = dict(record["metrics"])
    if setup is not None:
        values["setup_s"] = setup[0]
        record["detail"]["setup_probes_s"] = setup[1]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: measurement lacks declared metrics {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(record, metrics=metrics), fh, indent=1)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f" correct={record['correct']} attempted={record['attempted']} failed={record['failed']}")
    for m in declared:
        print(f"#   {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']:<9} ({m['better']} is better)")
    for name, entry in record["named"].items():
        note = f"  [{entry[3]}]" if len(entry) > 3 else ""
        print(f"#   {name:<40} {entry[0]:>14.6g} {entry[1]:<9} ({entry[2]} is better){note}")
    for problem in record["problems"]:
        print(f"# problem: {problem.strip()}")
    print("# provenance: " + json.dumps(record["provenance"]))
    print("# detail: " + json.dumps(record["detail"]))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
