"""Regenerate the bundled scenario under src/istruct/data/.

Run from the repository root:  PYTHONPATH=src python3 scripts/make_fixtures.py
"""

import json
import pathlib

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "istruct" / "data"

J = [[0.0, -1.0], [1.0, 0.0]]

SPACES = {
    "plane-l2": {"dim": 2, "norm": {"kind": "lp", "p": 2.0}},
    "plane-l1": {"dim": 2, "norm": {"kind": "lp", "p": 1.0}},
    "plane-linf": {"dim": 2, "norm": {"kind": "lp", "p": "inf"}},
    "plane-l3": {"dim": 2, "norm": {"kind": "lp", "p": 3.0}},
    "wl1-2": {"dim": 2, "norm": {"kind": "wlp", "p": 1.0, "weights": [1.0, 2.0]}},
    "quad-2": {"dim": 2, "norm": {"kind": "quad", "G": [[2.0, 0.5], [0.5, 1.0]]}},
    "hex-2": {"dim": 2, "norm": {"kind": "poly",
                                 "functionals": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}},
    "cplx-l1": {"dim": 4, "norm": {"kind": "cplx",
                                   "base": {"dim": 2,
                                            "norm": {"kind": "lp", "p": 1.0}}}},
}

ORACLES = {
    "r-opnorm-2": {"kind": "real", "descriptor":
                   {"type": "norm_threshold", "functional": "operator_norm",
                    "bound": 2.0}},
    "r-hs-generous": {"kind": "real", "descriptor":
                      {"type": "norm_threshold", "functional": "hilbert_schmidt",
                       "bound": 100.0}},
    "r-rank-all": {"kind": "real", "descriptor": {"type": "rank_threshold", "r": 64}},
    "r-rank-zero": {"kind": "real", "descriptor": {"type": "rank_threshold", "r": 0}},
    "r-nonzero": {"kind": "real", "descriptor": {"type": "predicate", "label": "nonzero"}},
    "r-none": {"kind": "real", "descriptor": {"type": "none"}},
    "c-opnorm": {"kind": "complex", "descriptor":
                 {"type": "norm_threshold", "functional": "operator_norm",
                  "bound": 1.5}},
    "c-all": {"kind": "complex", "descriptor": {"type": "all"}},
    "c-nonzero": {"kind": "complex", "descriptor": {"type": "predicate",
                                                    "label": "nonzero"}},
    "c-a-sign": {"kind": "complex", "descriptor": {"type": "predicate",
                                                   "label": "a-entry-sign"}},
}

CLAIMS = {
    # norms
    "closed-form": {"kind": "euclidean-closed-form", "count": 40, "dims": [2, 6]},
    "l1-value": {"kind": "l1-spot-value"},
    "rotation-l2": {"kind": "rotation-invariance", "space": "plane-l2",
                    "count": 10, "angles": 16, "tol": 1e-10},
    "rotation-l1": {"kind": "rotation-invariance", "space": "plane-l1",
                    "count": 10, "angles": 16, "tol": 1e-8},
    # structures
    "natural-l2": {"kind": "natural-i-operator", "space": "plane-l2"},
    "natural-quad": {"kind": "natural-i-operator", "space": "quad-2"},
    "natural-l1": {"kind": "natural-i-operator", "space": "plane-l1"},
    "natural-linf": {"kind": "natural-i-operator", "space": "plane-linf"},
    "natural-l3": {"kind": "natural-i-operator", "space": "plane-l3"},
    "natural-wl1": {"kind": "natural-i-operator", "space": "wl1-2"},
    "natural-hex": {"kind": "natural-i-operator", "space": "hex-2"},
    "validate-cplx-l1": {"kind": "validate-structure", "space": "cplx-l1",
                         "A": [[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0],
                               [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
                         "samples": 128, "angles": 16},
    "reject-l1-rotation": {"kind": "reject-structure", "space": "plane-l1",
                           "A": J, "samples": 128, "angles": 16},
    "reject-l1-skew": {"kind": "reject-structure", "space": "plane-l1",
                       "A": [[0.0, -2.0], [0.5, 0.0]],
                       "samples": 128, "angles": 16},
    "search-l2": {"kind": "search-structure", "space": "plane-l2",
                  "expect_found": True},
    # constructions
    "prop1": {"kind": "prop1-roundtrip", "count": 8, "half_dims": [1, 2, 3]},
    "squares": {"kind": "squares", "count": 10, "dims": [2, 4, 6]},
    "real-cartesian": {"kind": "real-cartesian", "count": 25, "max_dim": 6},
    "complex-cartesian": {"kind": "complex-cartesian", "count": 20,
                          "dims": [2, 4]},
    "complex-cartesian-corrupt": {"kind": "complex-cartesian", "count": 5,
                                  "dims": [2, 4], "corrupt": True,
                                  "expect": "violated"},
    # oracle transforms
    "theorem-real-opnorm": {"kind": "theorem-real", "oracle": "r-opnorm-2",
                            "count": 30, "dims": [1, 2, 3]},
    "theorem-real-hs": {"kind": "theorem-real", "oracle": "r-hs-generous",
                        "count": 30, "dims": [1, 2, 3]},
    "theorem-real-rank": {"kind": "theorem-real", "oracle": "r-rank-all",
                          "count": 30, "dims": [1, 2, 3]},
    "theorem-real-rank-zero": {"kind": "theorem-real", "oracle": "r-rank-zero",
                               "count": 30, "dims": [1, 2, 3]},
    "theorem-real-nonzero": {"kind": "theorem-real", "oracle": "r-nonzero",
                             "count": 30, "dims": [1, 2, 3]},
    "theorem-real-none": {"kind": "theorem-real", "oracle": "r-none",
                          "count": 30, "dims": [1, 2, 3]},
    "theorem-complex-opnorm": {"kind": "theorem-complex", "oracle": "c-opnorm",
                               "count": 20, "dims": [2, 4]},
    "theorem-complex-all": {"kind": "theorem-complex", "oracle": "c-all",
                            "count": 20, "dims": [2, 4]},
    "theorem-complex-nonzero": {"kind": "theorem-complex", "oracle": "c-nonzero",
                                "count": 20, "dims": [2, 4]},
    "theorem-complex-a-sign": {"kind": "theorem-complex", "oracle": "c-a-sign",
                               "count": 20, "dims": [2, 4],
                               "expect": "violated"},
    "audit-opnorm": {"kind": "self-conjugacy", "oracle": "c-opnorm",
                     "count": 20, "dims": [2, 4]},
    "audit-a-sign": {"kind": "self-conjugacy", "oracle": "c-a-sign",
                     "count": 20, "dims": [2, 4], "expect": "violated"},
    "hs-doubling": {"kind": "hs-doubling", "count": 25, "dims": [1, 2, 3, 4],
                    "tol": 1e-10},
    # derivations
    "chain-reference": {"kind": "pelczynski-chain"},
    "chain-mutations": {"kind": "chain-mutations"},
    "chain-search-found": {"kind": "chain-search", "from": [["X", "+"]],
                           "to": [["X", "-"]], "depth": 10,
                           "expect_found": True},
    "chain-search-blocked": {"kind": "chain-search", "from": [["X", "+"]],
                             "to": [["X", "-"]], "depth": 10,
                             "rules": ["R3", "R5", "R6", "R7"],
                             "expect_found": False},
    "factorization": {"kind": "factorization-check", "space": "plane-l2"},
}

SUITES = {
    "paper-all": sorted(CLAIMS),
    "spaces": ["closed-form", "l1-value", "rotation-l2", "rotation-l1"],
    "structures": ["natural-l2", "natural-quad", "natural-l1", "natural-linf",
                   "natural-l3", "natural-wl1", "natural-hex",
                   "validate-cplx-l1", "reject-l1-rotation", "reject-l1-skew",
                   "search-l2"],
    "prop1-roundtrip": ["prop1"],
    "squares": ["squares", "real-cartesian", "complex-cartesian",
                "complex-cartesian-corrupt"],
    "ideal-transforms": ["theorem-real-opnorm", "theorem-real-hs",
                         "theorem-real-rank", "theorem-real-rank-zero",
                         "theorem-real-nonzero", "theorem-real-none",
                         "theorem-complex-opnorm", "theorem-complex-all",
                         "theorem-complex-nonzero", "theorem-complex-a-sign",
                         "audit-opnorm", "audit-a-sign", "hs-doubling"],
    "pelczynski-chain": ["chain-reference", "chain-mutations",
                         "chain-search-found", "chain-search-blocked",
                         "factorization"],
}

SCENARIO = {
    "schema": 1,
    "seed": 20260823,
    "tolerances": {"abs_tol": 1e-12, "rel_tol": 1e-9,
                   "tol_alg": 1e-9, "tol_iso": 1e-8},
    "spaces": SPACES,
    "oracles": ORACLES,
    "claims": CLAIMS,
    "suites": SUITES,
}


def fixture_texts() -> dict:
    """File name under src/istruct/data -> the text it should hold."""
    return {
        "paper_all.json": json.dumps(SCENARIO, indent=2, sort_keys=True) + "\n",
    }


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    for name, text in fixture_texts().items():
        (DATA / name).write_text(text, encoding="utf-8")
        print(f"wrote {DATA / name}")


if __name__ == "__main__":
    main()
