"""The pinned workloads: one `fracbundle run` config each, plus the seed rule.

Every workload is a closed loop: one run at a time, in one process, with the
tasks running sequentially as `run_experiment` does.
"""

from __future__ import annotations

import copy

# The README example, unchanged.  Its reconstruction scene (trivial bundle,
# zero potential) draws nothing at random, so a seed changes only the four
# verify tasks; reconstruct_distances repeats exactly across seeds.
CYCLE_README = {
    "manifold": {"kind": "cycle", "count": 64, "length": 6.283185307179586},
    "bundle": {"rank": 1, "connection": "trivial", "potential": "zero", "seed": 7},
    "region": {"type": "arc", "start": 0, "count": 16},
    "orders": [0.3, 0.5, 0.7],
    "time": {"horizon": 4.5, "steps": 1280},
    "tasks": ["verify_spectral", "verify_transmutation", "verify_blago",
              "verify_gauge_equivariance", "reconstruct_distances"],
    "seed": 99,
    "tolerances": {"profile_match_fraction": 0.9},
    "output_dir": "out",
}

# The ROADMAP's pinned torus config: bulk probe responses and per-vertex
# least squares, with no containment sweeps.
TORUS_OPERATOR = {
    "manifold": {"kind": "torus_grid", "counts": [8, 8], "lengths": [8.0, 8.0]},
    "bundle": {"rank": 2, "connection": "random", "potential": "random_positive",
               "potential_scale": 0.3, "potential_shift": 0.2, "seed": 42},
    "region": {"type": "block", "rows": 4, "cols": 4},
    "time": {"horizon": 6.0, "steps": 1200},
    "tasks": ["verify_blago", "reconstruct_operator"],
    "options": {"probe_delta": 1.2, "probe_lead_step": 0.5, "probe_width": 1.0},
    "seed": 5,
}

# Forward layers only (dimension 512): Duhamel solves over full-manifold
# modes, fractional powers, heat kernels; no reconstruction.
TORUS_FORWARD = {
    "manifold": {"kind": "torus_grid", "counts": [16, 16], "lengths": [16.0, 16.0]},
    "bundle": {"rank": 2, "connection": "random", "potential": "random_positive",
               "potential_scale": 0.3, "potential_shift": 0.2, "seed": 11},
    "region": {"type": "block", "rows": 4, "cols": 4},
    "orders": [0.3, 0.5, 0.7],
    "time": {"horizon": 6.0, "steps": 1200},
    "tasks": ["verify_spectral", "verify_transmutation", "verify_blago",
              "verify_gauge_equivariance"],
    "seed": 21,
}

WORKLOADS = {
    "cycle-readme": CYCLE_README,
    "torus-operator": TORUS_OPERATOR,
    "torus-forward": TORUS_FORWARD,
}


def config_for(name, seed):
    """The workload's config for a workload seed.

    The config's own `seed` is the default: it returns the config unchanged.
    Any other seed replaces both `seed` and `bundle.seed`.
    """
    cfg = copy.deepcopy(WORKLOADS[name])
    if seed != cfg["seed"]:
        cfg["seed"] = seed
        cfg["bundle"]["seed"] = seed
    return cfg
