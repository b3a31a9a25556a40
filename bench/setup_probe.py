"""One set-up measurement in a fresh interpreter.

Times ``import rdbw`` plus one small warm-up call of the workload's entry
point, leaving out the time spent generating the warm-up input, and
prints ``{"setup_s": ...}``.  Run from the repository root:

    python3 bench/setup_probe.py --workload select_n5e5 --seed 1 --work-dir bench/out
"""

import argparse
import json
import os
import sys
from time import perf_counter

import common


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=common.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()

    t0 = perf_counter()
    import rdbw

    t1 = perf_counter()
    csv_path = os.path.join(args.work_dir, f"probe-{os.getpid()}.csv")
    json_path = os.path.join(args.work_dir, f"probe-{os.getpid()}.json")
    rc = 0
    if args.workload == "mc_n500":
        spec = rdbw.DgpSpec(design="design1", n=500, seed=args.seed)
        t2 = perf_counter()
        rdbw.run_monte_carlo(spec, "mmse_f", 1)
    elif args.workload == "select_n5e5":
        x, y, d = common.design1_arrays(args.seed, 2_000)
        t2 = perf_counter()
        sample = rdbw.Sample(x=x, y=y, d=d, c=0.0)
        pair = rdbw.select_bandwidths(sample).bandwidths
        rdbw.frd_estimate(sample, pair.h_plus, pair.h_minus)
    else:
        t2 = perf_counter()
        from rdbw import cli

        seed = str(args.seed)
        rc = cli.main(["dgp-sample", "--design", "1", "--n", "500", "--seed", seed, "--output", csv_path])
        rc = rc or cli.main(["select", "--input", csv_path, "--output", json_path])
    t3 = perf_counter()
    for path in (csv_path, json_path):
        if os.path.exists(path):
            os.remove(path)
    if rc != 0:
        sys.exit(f"warm-up exited with {rc}")
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))


if __name__ == "__main__":
    main()
