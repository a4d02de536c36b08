#!/usr/bin/env python3
"""Run one pqlab benchmark workload; the last stdout line is its result.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the root of a pqlab source tree (the program is imported from its
``src/``).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  Lines before the result give
the environment and a readable summary.  Exit code 0 when every output
check passed, 1 when one failed, 2 when the pqlab sources are missing.
"""

import os

# Pin BLAS and OpenMP pools to one thread before anything imports numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "pqlab_run_threads": 1,
        "nproc": os.cpu_count(),
    }


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pqlab", "cli.py")):
        print(f"perfbench: no pqlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import layers, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    print(json.dumps({"environment": environment(args)}))

    work_dir = os.path.join(ROOT, ".perfbench_work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), work_dir)
    for reason in result.pop("failures"):
        print(f"perfbench: failed: {reason}", file=sys.stderr)

    units = (layers.unit_of if args.trace else workloads.E2E_UNITS.get)
    declared = declared_metrics(bool(args.trace))
    metrics = {name: {"value": value, "unit": units(name)}
               for name, value in result["metrics"].items()}
    if result["correct"] and {n: m["unit"] for n, m in metrics.items()} != declared:
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        result["correct"] = False
    result["metrics"] = metrics

    unit = workloads.WORK_UNIT[args.workload]
    for name, m in metrics.items():
        label = f"{args.workload}_{unit}_per_s" if name == "throughput_per_s" else name
        print(f"  {label:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':48s} {result['failed']}/{result['attempted']} CLI calls")
    for label, walls in result.pop("samples").items():
        print(f"  {label + ' (s)':48s} n={len(walls)} min={min(walls):.4g} "
              f"median={statistics.median(walls):.4g} max={max(walls):.4g}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
