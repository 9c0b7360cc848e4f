"""Benchmark `fracbundle run` on one pinned workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition is a fresh process
(perfbench/rep.py) that pins BLAS to one thread and calls
`fracbundle.runner.run_from_file` on the workload's config; repetitions run
one at a time until S seconds have passed.  Extra set-up-only processes
bring the set-up samples to SETUP_SAMPLES.  With --trace 1 one more
repetition runs with spans around each layer (perfbench/spans.py).

Every repetition is checked: exit code 0, every task `pass`, every CSV the
report lists on disk, and `measures` bit-identical to the first repetition.
The next-to-last line of output is a JSON record of every sample and the
environment; the last line is the result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import per_layer_spec
from workloads import WORKLOADS, config_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "fracbundle"
SCRATCH = ROOT / ".perfbench_out"
SETUP_SAMPLES = 4
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def spawn(args, timeout):
    """Run rep.py; (monotonic start, parsed last line) or (start, None) on failure."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "rep.py"), *args],
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print("perfbench: repetition timed out", file=sys.stderr)
        return start, None
    if proc.returncode != 0:
        print(f"perfbench: repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return start, None
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def read_outputs(out_dir):
    """The tasks of report.json, or None if the report or a CSV it lists is missing."""
    report_path = out_dir / "report.json"
    if not report_path.is_file():
        return None
    report = json.loads(report_path.read_text(encoding="utf-8"))
    for task in report["tasks"]:
        for table in task["tables"]:
            if not (out_dir / f"{task['name']}__{table}.csv").is_file():
                return None
    return report["tasks"]


class Session:
    """The repetitions of one benchmark run and the checks on their outputs."""

    def __init__(self, workload, seed, work):
        self.cfg = config_for(workload, seed)
        self.run_id = f"{workload}:{seed}"
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.cfg), encoding="utf-8")
        self.started = time.monotonic()
        self.setup_s, self.run_s, self.cpu_s, self.rss_mb = [], [], [], []
        self.task_s = {name: [] for name in self.cfg["tasks"]}
        self.environment = None
        self.reference = None
        self.attempted = self.failed = 0

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.started)

    def setup_only(self):
        start, res = spawn([str(self.config_path), str(self.work), "--setup-only"],
                           self.remaining())
        if res is not None:
            self.setup_s.append(res["ready"] - start)
            self.environment = self.environment or res["environment"]

    def repetition(self, spans_path=None):
        """One checked run; returns its result line, or None if the process failed."""
        out_dir = self.work / f"out{self.attempted}"
        args = [str(self.config_path), str(out_dir)]
        if spans_path is not None:
            args += ["--trace", str(spans_path), "--run-id", f"{self.run_id}:traced"]
        start, res = spawn(args, self.remaining())
        tasks = read_outputs(out_dir) if res is not None else None
        shutil.rmtree(out_dir, ignore_errors=True)
        names = list(self.cfg["tasks"])
        self.attempted += len(names)
        if res is None:
            self.failed += len(names)
            return None
        self.environment = self.environment or res["environment"]
        if spans_path is None:
            self.setup_s.append(res["ready"] - start)
            self.run_s.append(res["run_s"])
            self.cpu_s.append(res["cpu_s"])
            self.rss_mb.append(res["peak_rss_mb"])
        if tasks is None or [t["name"] for t in tasks] != names:
            self.failed += len(names)
            return res
        if self.reference is None:
            self.reference = tasks
        failed = sum(t["status"] != "pass" or t["measures"] != ref["measures"]
                     for t, ref in zip(tasks, self.reference))
        self.failed += max(failed, res["exit_code"] != 0)
        if spans_path is None:
            for t in tasks:
                self.task_s[t["name"]].append(t["elapsed_s"])
        return res


def run(workload, seed, seconds, trace):
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        s = Session(workload, seed, work)
        loop_start = time.monotonic()
        while True:
            rep_start = time.monotonic()
            res = s.repetition()
            last = time.monotonic() - rep_start
            if res is None or time.monotonic() - loop_start >= seconds:
                break
            if s.remaining() < last * (2 if trace else 1) + 5:
                break
        while len(s.setup_s) < SETUP_SAMPLES and s.remaining() > 10:
            s.setup_only()
        traced = None
        if trace and s.run_s:
            spans_path = SCRATCH / f"spans-{workload}-{seed}.jsonl"
            traced = s.repetition(spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return s, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "runner.py").is_file():
        print(f"perfbench: no fracbundle sources at {PACKAGE}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(PACKAGE), quiet=1)

    s, traced = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if not s.run_s or (args.trace and traced is None):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    medians = {"setup_s": statistics.median(s.setup_s),
               "run_s": statistics.median(s.run_s),
               "peak_rss_mb": statistics.median(s.rss_mb)}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "config": s.cfg,
        "environment": s.environment,
        "samples": {"setup_s": s.setup_s, "run_s": s.run_s, "cpu_s": s.cpu_s,
                    "peak_rss_mb": s.rss_mb},
        "median": medians,
        "task_s": {name: statistics.median(v) for name, v in s.task_s.items() if v},
        "task_fail_frac": s.failed / s.attempted,
    }
    distances = next((t["measures"] for t in s.reference or ()
                      if t["name"] == "reconstruct_distances"), None)
    if distances is not None:
        record["accuracy"] = {m: distances[m] for m in ("profile_match_fraction", "cut_time_rel")}
    if traced is not None:
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = traced["run_s"] / medians["run_s"] - 1.0
        record["traced_run_s"] = traced["run_s"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in per_layer_spec()}
    else:
        metrics = {name: {"value": medians[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps(record))
    print(json.dumps({"correct": s.failed == 0, "attempted": s.attempted,
                      "failed": s.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
