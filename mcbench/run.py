"""Monte-Carlo benchmark of cosetcode: one workload, one seed, one run.

    python3 mcbench/run.py --workload bsc-bp --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
With `--trace 0` the run measures the end-to-end metrics, with times stated
at a nominal host speed (see hostspeed.py); with `--trace 1`
it traces calls into the library's layers and reports per-layer metrics
(see layers.py).  Workloads are defined in workloads.json.  Report lines
come first; the last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  The exit code is 0
only when every output check passed.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads: on 2 cores, default
# OpenBLAS threading shifted trial times by about 10%.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cosetcode" / "__init__.py").is_file():
        print(f"cosetcode sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    workloads = bench.load_workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads)}",
              file=sys.stderr)
        return 2
    cfg = workloads[args.workload]
    work = bench.make_workload(cfg)
    run = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "loop": "closed, 1 client, 1 thread"}
    print("run", json.dumps(run))
    print("config", json.dumps({k: v for k, v in cfg.items()
                                if k not in ("why", "probe", "moves", "flat", "flat_e2e")}))
    print("env", json.dumps(environment()))

    if args.trace:
        metrics, summary, _ = bench.run_traced(work, args.seed, args.seconds)
        for name, (value, unit) in metrics.items():
            print(f"{name:36s} {value:14.6g} {unit}")
        out = metrics
    else:
        metrics, notes, summary = bench.run_plain(work, args.seed, args.seconds)
        for name, (value, unit) in metrics.items():
            print(f"{name:14s} {value:12.6g} {unit:6s} {notes[name]}")
        out = {k: metrics[k] for k in bench.E2E_METRICS}
    for v in summary.violations[:20]:
        print("violation", v)
    print(json.dumps({
        "correct": summary.correct,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.items()},
    }))
    return 0 if summary.correct else 1


if __name__ == "__main__":
    sys.exit(main())
