"""The three answers of the i-operator existence decision: found on the
Euclidean plane and on l2 (+) l2 (the rotation of each plane), none on the
l1 plane (its isometry group is finite), and undecided on l1 (+) l2, where no
exact argument applies.

Usage:  PYTHONPATH=src python3 scripts/search_l1_structure.py
"""

from istruct.spaces import direct_sum, lp_space
from istruct.structures import search_i_operator


def main():
    for label, space in [("l2 plane", lp_space(2, 2.0)),
                         ("l1 plane", lp_space(2, 1.0)),
                         ("l2 (+) l2", direct_sum(lp_space(2, 2.0), lp_space(2, 2.0))),
                         ("l1 (+) l2", direct_sum(lp_space(2, 1.0), lp_space(2, 2.0)))]:
        result = search_i_operator(space)
        print(f"{label:10} {result.tag}")
        if result.found is not None:
            print(f"  A =\n{result.found.A}")


if __name__ == "__main__":
    main()
