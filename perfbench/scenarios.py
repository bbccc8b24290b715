"""Seeded scenario files for the benchmark workloads.

Each workload is a suite in an istruct scenario file.  The seed only changes
values (the scenario seed that drives every claim's random corpus, weights,
functionals, Gram matrices, subspace bases); claim kinds, counts and space
dimensions are fixed, so the work done in a pass does not depend on the seed.
The same seed gives a byte-identical file.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("paper-all", "exact-algebra", "non-euclidean")
# workloads whose time goes mostly to the quadrature's big chunks; their
# reference kernel includes a memory stream (see refclock.py)
QUADRATURE_BOUND = ("paper-all", "non-euclidean")

BUNDLED = Path("src", "istruct", "data", "paper_all.json")

# every oracle shipped in the bundled scenario, with the claim expectation of
# each theorem / audit run over it
REAL_ORACLES = {
    "r-opnorm-2": {"bound": 2.0, "functional": "operator_norm", "type": "norm_threshold"},
    "r-hs-generous": {"bound": 100.0, "functional": "hilbert_schmidt", "type": "norm_threshold"},
    "r-rank-all": {"r": 64, "type": "rank_threshold"},
    "r-rank-zero": {"r": 0, "type": "rank_threshold"},
    "r-nonzero": {"label": "nonzero", "type": "predicate"},
    "r-none": {"type": "none"},
}
COMPLEX_ORACLES = {
    "c-opnorm": ({"bound": 1.5, "functional": "operator_norm", "type": "norm_threshold"}, "verified"),
    "c-all": ({"type": "all"}, "verified"),
    "c-nonzero": ({"label": "nonzero", "type": "predicate"}, "verified"),
    "c-a-sign": ({"label": "a-entry-sign", "type": "predicate"}, "violated"),
}


def _fmt(x: float) -> float:
    return round(x, 6)


def _scenario(seed: int, spaces: dict, oracles: dict, claims: dict, suite: str) -> dict:
    return {"schema": 1, "seed": seed,
            "tolerances": {"abs_tol": 1e-12, "rel_tol": 1e-9,
                           "tol_alg": 1e-9, "tol_iso": 1e-8},
            "spaces": spaces, "oracles": oracles, "claims": claims,
            "suites": {suite: sorted(claims)}}


def exact_algebra(seed: int) -> dict:
    """Claims decided by Gram algebra, exact-integer corpora or symbolic search."""
    rnd = random.Random(seed)
    a, b = rnd.uniform(0.5, 3.0), rnd.uniform(0.5, 3.0)
    off = rnd.uniform(-0.4, 0.4) * (a * b) ** 0.5
    spaces = {"plane-l2": {"dim": 2, "norm": {"kind": "lp", "p": 2.0}},
              "quad-2": {"dim": 2, "norm": {"kind": "quad",
                                            "G": [[_fmt(a), _fmt(off)], [_fmt(off), _fmt(b)]]}},
              "l2-4": {"dim": 4, "norm": {"kind": "lp", "p": 2.0}}}
    oracles = {k: {"kind": "real", "descriptor": d} for k, d in REAL_ORACLES.items()}
    oracles.update({k: {"kind": "complex", "descriptor": d}
                    for k, (d, _) in COMPLEX_ORACLES.items()})
    claims = {}
    for name in REAL_ORACLES:
        claims[f"theorem-real-{name}"] = {"kind": "theorem-real", "oracle": name,
                                          "count": 200, "dims": [1, 2, 3]}
    for name, (_, expect) in COMPLEX_ORACLES.items():
        claims[f"theorem-complex-{name}"] = {"kind": "theorem-complex", "oracle": name,
                                             "count": 100, "dims": [2, 4], "expect": expect}
        claims[f"audit-{name}"] = {"kind": "self-conjugacy", "oracle": name,
                                   "count": 60, "dims": [2, 4], "expect": expect}
    claims["squares"] = {"kind": "squares", "count": 60, "dims": [2, 4, 6]}
    claims["real-cartesian"] = {"kind": "real-cartesian", "count": 300, "max_dim": 6}
    claims["complex-cartesian"] = {"kind": "complex-cartesian", "count": 100, "dims": [2, 4]}
    claims["complex-cartesian-corrupt"] = {"kind": "complex-cartesian", "corrupt": True,
                                           "count": 10, "dims": [2, 4], "expect": "violated"}
    claims["prop1"] = {"kind": "prop1-roundtrip", "count": 60, "half_dims": [1, 2, 3]}
    claims["hs-doubling"] = {"kind": "hs-doubling", "count": 200, "dims": [1, 2, 3, 4],
                             "tol": 1e-10}
    for name in spaces:
        claims[f"natural-{name}"] = {"kind": "natural-i-operator", "space": name}
    claims["chain-reference"] = {"kind": "pelczynski-chain"}
    claims["chain-mutations"] = {"kind": "chain-mutations"}
    # the slowest claim kind; enough copies that claim_p90_ms lands on it
    for depth in (10, 11, 12, 13):
        claims[f"chain-search-found-{depth}"] = {
            "kind": "chain-search", "depth": depth, "expect_found": True,
            "from": [["X", "+"]], "to": [["X", "-"]]}
    claims["chain-search-blocked"] = {"kind": "chain-search", "depth": 10,
                                      "expect_found": False, "rules": ["R3", "R5", "R6", "R7"],
                                      "from": [["X", "+"]], "to": [["X", "-"]]}
    claims["factorization"] = {"kind": "factorization-check", "space": "plane-l2"}
    return _scenario(seed, spaces, oracles, claims, "exact-algebra")


def _weights(rnd: random.Random, dim: int) -> list:
    return [_fmt(rnd.uniform(0.5, 2.0)) for _ in range(dim)]


def _functionals(rnd: random.Random, dim: int, count: int) -> list:
    # the coordinate functionals keep the norm definite; the rest are random
    rows = [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    rows += [[_fmt(rnd.uniform(-1.0, 1.0)) for _ in range(dim)] for _ in range(count - dim)]
    return rows


def _lp(dim: int, p) -> dict:
    return {"dim": dim, "norm": {"kind": "lp", "p": p}}


def non_euclidean(seed: int) -> dict:
    """Spaces of every non-Euclidean descriptor kind, dimensions 2-4."""
    rnd = random.Random(seed)
    basis = [[1.0, 0.0], [0.0, 1.0]] + [[_fmt(rnd.uniform(-1.0, 1.0)) for _ in range(2)]
                                        for _ in range(2)]
    spaces = {
        # piecewise-sinusoidal kinds
        "l1-3": _lp(3, 1.0),
        "linf-3": _lp(3, "inf"),
        "wl1-4": {"dim": 4, "norm": {"kind": "wlp", "p": 1.0, "weights": _weights(rnd, 4)}},
        "wlinf-2": {"dim": 2, "norm": {"kind": "wlp", "p": "inf", "weights": _weights(rnd, 2)}},
        "poly-2": {"dim": 2, "norm": {"kind": "poly", "functionals": _functionals(rnd, 2, 5)}},
        "poly-3": {"dim": 3, "norm": {"kind": "poly", "functionals": _functionals(rnd, 3, 6)}},
        "sub-l1-2": {"dim": 2, "norm": {"kind": "sub", "ambient": _lp(4, 1.0),
                                        "basis": basis}},
        # fallback kinds
        "l3-2": _lp(2, 3.0),
        "l1.5-3": _lp(3, 1.5),
        "l1+linf-4": {"dim": 4, "norm": {"kind": "sum", "left": _lp(2, 1.0),
                                         "right": _lp(2, "inf")}},
        "plane-l1": _lp(2, 1.0),
    }
    claims = {}
    for name in spaces:
        if name == "plane-l1":
            continue
        claims[f"natural-{name}"] = {"kind": "natural-i-operator", "space": name,
                                     "samples": 32, "angles": 16}
        # two single-vector claims per space: many one-row quadratures
        for i in (1, 2):
            claims[f"rotation-{name}-{i}"] = {"kind": "rotation-invariance", "space": name,
                                              "count": 4, "angles": 16, "tol": 1e-8}
    claims["l1-value"] = {"kind": "l1-spot-value"}
    claims["search-l1"] = {"kind": "search-structure", "space": "plane-l1",
                           "budget": 300, "expect_found": False}
    return _scenario(seed, spaces, {}, claims, "non-euclidean")


def scenario_text(workload: str, seed: int, root: Path) -> str:
    """The scenario file of a workload; ``root`` is the source checkout."""
    if workload == "paper-all":
        # the bundled file as shipped; the seed goes on the command line
        return (Path(root) / BUNDLED).read_text(encoding="utf-8")
    if workload == "exact-algebra":
        scenario = exact_algebra(seed)
    elif workload == "non-euclidean":
        scenario = non_euclidean(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return json.dumps(scenario, indent=1, sort_keys=True) + "\n"


def write_scenario(workload: str, seed: int, directory: Path, root: Path) -> tuple[Path, str]:
    """Write the workload's scenario; returns (path, suite name)."""
    path = Path(directory) / f"{workload}.json"
    path.write_text(scenario_text(workload, seed, root), encoding="utf-8")
    return path, workload
