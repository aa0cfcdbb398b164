#!/usr/bin/env python3
"""Track the discrete Dirichlet energy of coordinate functions across levels.

The interior part of the energy of f(x, y) = x converges to sqrt(3) times
the snowflake area (6/5 exactly); the boundary part diverges.  Prints the
per-level table with increments so the geometric decay is visible.
"""

import argparse

from snowlab.cli import FUNCTIONS
from snowlab.operators import energy_sequence


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=5)
    ap.add_argument("--function", type=str, default="linear-x")
    args = ap.parse_args()

    fn = FUNCTIONS[args.function]

    interior = energy_sequence(fn, args.n_max, part="interior")
    boundary = energy_sequence(fn, args.n_max, part="boundary")
    print(f"f = {args.function}")
    print(f"{'n':>3} {'interior':>12} {'increment':>12} {'boundary':>14}")
    prev = None
    for n, (e_i, e_b) in enumerate(zip(interior, boundary)):
        inc = "" if prev is None else f"{e_i - prev:12.6f}"
        print(f"{n:>3} {e_i:12.6f} {inc:>12} {e_b:14.6f}")
        prev = e_i
    if args.function == "linear-x":
        print(f"\nlimit of the interior part: 6/5 = 1.2 "
              f"(gap at n={args.n_max}: {1.2 - interior[-1]:.6f})")


if __name__ == "__main__":
    main()
