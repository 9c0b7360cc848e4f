"""Check that every workload runs with every task passing.

    python3 perfbench/selfcheck.py

Runs each workload once at its default seed, and the two torus workloads
once more at another seed (their bundles are drawn from the seed; the
cycle-readme reconstruction scene is seed-free).  Exits 1 if any run is not
correct.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

OTHER_SEED = 1


def main():
    runs = [(name, cfg["seed"]) for name, cfg in WORKLOADS.items()]
    runs += [("torus-operator", OTHER_SEED), ("torus-forward", OTHER_SEED)]
    all_ok = True
    for name, seed in runs:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
             "--seed", str(seed), "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True)
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
        ok = result is not None and result["correct"]
        all_ok &= ok
        detail = (f"{result['failed']} of {result['attempted']} tasks failed"
                  if result else proc.stderr.strip()[-500:])
        print(f"{name} seed {seed}: {'ok' if ok else 'FAILED'} ({detail})")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
