"""Contrast the i-operator search on the Euclidean plane (a structure exists
and is found quickly) with the l1 plane (no norm-compatible structure exists;
the search reports its best residual and an exhausted budget).

Usage:  PYTHONPATH=src python3 scripts/search_l1_structure.py [--budget 2000] [--seed 0]
"""

import argparse
import math
import time

from istruct.spaces import lp_space
from istruct.structures import search_i_operator


def run(label, space, budget, seed):
    start = time.perf_counter()
    result = search_i_operator(space, budget=budget, seed=seed)
    elapsed = time.perf_counter() - start
    print(f"{label}: {result.tag} "
          f"(best residual {result.best_residual:.3e}, {elapsed:.2f}s)")
    if result.found is not None:
        print(f"  A =\n{result.found.A.round(6)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    run("l2 plane  ", lp_space(2, 2.0), args.budget, args.seed)
    run("l1 plane  ", lp_space(2, 1.0), args.budget, args.seed)
    run("linf plane", lp_space(2, math.inf), args.budget, args.seed)
    print("\nA residual stuck far above tolerance is evidence, not proof, "
          "that no compatible structure exists on that space.")


if __name__ == "__main__":
    main()
