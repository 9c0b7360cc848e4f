"""One repetition of a workload, in a fresh process.

    python3 perfbench/rep.py CONFIG OUT_DIR [--setup-only] [--trace SPANS_FILE]

Pins BLAS to one thread, imports fracbundle from the checkout's `src/`,
parses the config, then calls `fracbundle.runner.run_from_file` as
`fracbundle run` does.  Prints one JSON line: the monotonic time at which
set-up ended, the environment, the run's wall and CPU time, exit code and
peak RSS, and with --trace the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set before numpy is imported: BLAS reads them once, when it loads
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
from fracbundle.config import parse_config  # noqa: E402
from fracbundle.runner import run_from_file  # noqa: E402


def environment():
    """What makes timings from two machines comparable or not."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="write spans here and report layer metrics")
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args()
    with open(args.config, encoding="utf-8") as fh:
        parse_config(json.load(fh))
    result = {"ready": time.monotonic(), "environment": environment()}
    if args.setup_only:
        print(json.dumps(result))
        return
    run = run_from_file
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(args.run_id)
        spans.install(tracer)
        run = tracer.wrap("runner.run_from_file", run_from_file)
    start, cpu_start = time.perf_counter(), time.process_time()
    _, code = run(args.config, out_dir=args.out_dir)
    result["run_s"] = time.perf_counter() - start
    result["cpu_s"] = time.process_time() - cpu_start
    result["exit_code"] = code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        with open(os.path.join(args.out_dir, "report.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        result["layers"] = tracer.metrics(payload)
        tracer.write(args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
