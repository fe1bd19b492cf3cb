"""The benchmark's workloads: fixed inputs, with the seed choosing the order.

The dilation tuples are fixed because the refinement depth, and with it the
cost of a norm, jumps with n; a seeded n would make the run length depend on
the seed.  The seed permutes the order of the norm operations (which changes
what the allocator has seen before each one) and picks verify's random
points.  The reasons for each input are in README.md.
"""

from __future__ import annotations

import random

WORKLOADS = ("grid-d", "slice-r", "cli-study")

GRID_D = [
    ("D", (256, 256)),        # largest full-FFT grid, 8232^2
    ("D", (384, 384)),        # last level 12320^2 takes the chunked fallback
    ("D", (64, 4096)),        # doubles its short axis needlessly
    ("D", (16, 32, 64)),
    ("D", (7, 29)),           # known fault, see KNOWN_FAULTS
]

SLICE_R = [
    ("R", (7.3, 19.6)),
    ("R", (10.5, 30.2)),
    ("R", (5, 9.5, 23)),
    ("S", (48.5, 3000.7)),
    ("Fcomposite", (48.5, 3000.7)),
    ("S", (5, 9.5, 23)),
    ("Fcomposite", (5, 9.5, 23)),
]

SWEEP_N1 = (5.5, 7.3, 9.7)
VERIFY_N = "5,9.5,23"
IRRATIONAL_NMAX = 131072

# Operations that fail on every seed because of a fault in the program.
KNOWN_FAULTS = {
    "D(7,29)": "core.build_lattice evaluates L_2(7) = 29 - 7*(29/7) in "
               "floats as -3.6e-15 and drops the point (7, 0): 120 points "
               "instead of 121",
}


def _norm_op(kernel, n) -> dict:
    label = ",".join(f"{v:g}" for v in n)
    return {"name": f"{kernel}({label})", "kind": "norm", "kernel": kernel,
            "n": [float(v) for v in n]}


def _cli_op(name, argv) -> dict:
    return {"name": name, "kind": "cli", "argv": argv}


def operations(workload: str, seed: int) -> list:
    """The operations of one round, in the order they run."""
    rng = random.Random(seed)
    if workload == "grid-d":
        ops = [_norm_op(k, n) for k, n in GRID_D]
        rng.shuffle(ops)
        return ops
    if workload == "slice-r":
        ops = [_norm_op(k, n) for k, n in SLICE_R]
        rng.shuffle(ops)
        return ops
    if workload == "cli-study":
        point_seed = str(rng.randrange(2**31))
        n1 = "list(" + ",".join(f"{v:g}" for v in SWEEP_N1) + ")"
        verify = ["verify", "--n", VERIFY_N, "--points", "200",
                  "--seed", point_seed, "--nu-max"]
        return [
            _cli_op("sweep", ["sweep", "--n1", n1, "--n2", "2.3*n1",
                              "--n3", "1.9*n2"]),
            _cli_op("verify-4096", verify + ["4096"]),
            _cli_op("verify-8192", verify + ["8192"]),
            _cli_op("irrational", ["irrational", "--alpha", "golden",
                                   "--nmax", str(IRRATIONAL_NMAX)]),
        ]
    raise ValueError(f"unknown workload {workload!r}")
