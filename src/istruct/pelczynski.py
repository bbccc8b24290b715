"""Symbolic checker for direct-sum isomorphism derivations.

Expressions are multisets of signed atoms (X, Y, Z with a + or - marking the
structure on that summand); commutativity and associativity of the direct sum
are built into the multiset representation.  The six bidirectional rules are
the hypothesis relations of the decomposition argument:

    R3: X+ <-> Y+ . Z+        R7: X- <-> Y- . Z-
    R8: Y+ <-> X-             R4: Y- <-> X+
    R5: X+ <-> X+ . X+        R6: X- <-> X- . X-

An expression is stored as a count vector: six nonnegative integers, the
multiplicities of X+, X-, Y+, Y-, Z+, Z- in that (sorted) order.  Each rule
in each direction is one move (need, delta) of a table built from RULES at
import: it applies where every count is at least ``need`` and adds ``delta``.
The chain search is a breadth-first search over raw count tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, lt
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DimensionMismatchError, IstructError
from .report import VERIFIED, VIOLATED, VerificationReport
from .structures import ComplexStructure

LABELS = ("X", "Y", "Z")
SIGNS = ("+", "-")

DEFAULT_MAX_ATOMS = 8
PROJECTION_TOL = 1e-9  # max |P^2 - P| of a projection S R


@dataclass(frozen=True)
class Atom:
    label: str
    sign: str

    def __post_init__(self):
        if self.label not in LABELS or self.sign not in SIGNS:
            raise IstructError(f"bad atom ({self.label}, {self.sign})")

    def __str__(self):
        return f"{self.label}{self.sign}"


# the coordinates of a count vector; sorted, as '+' < '-'
ATOMS = tuple(Atom(label, sign) for label in LABELS for sign in SIGNS)
_POSITION = {a: i for i, a in enumerate(ATOMS)}


class SumExpr:
    """An unordered, nonempty direct sum of atoms, held as its count vector."""

    __slots__ = ("counts",)

    def __init__(self, atoms):
        counts = [0] * len(ATOMS)
        for a in atoms:
            counts[_POSITION[a]] += 1
        if not any(counts):
            raise IstructError("a direct-sum expression must be nonempty")
        self.counts = tuple(counts)

    @classmethod
    def from_counts(cls, counts: tuple) -> "SumExpr":
        """The expression of a nonempty count vector (not checked)."""
        e = object.__new__(cls)
        e.counts = counts
        return e

    @property
    def atoms(self):
        return tuple(a for a, k in zip(ATOMS, self.counts) for _ in range(k))

    def __len__(self):
        return sum(self.counts)

    def __eq__(self, other):
        return isinstance(other, SumExpr) and self.counts == other.counts

    def __hash__(self):
        return hash(self.counts)

    def __str__(self):
        return " . ".join(str(a) for a in self.atoms)

    def __repr__(self):
        return f"SumExpr({self})"


def expr(*tokens: str) -> SumExpr:
    """Build an expression from tokens like "X+", "Y-"."""
    return SumExpr(Atom(t[0], t[1:]) for t in tokens)


RULES: dict = {
    "R3": (expr("X+"), expr("Y+", "Z+")),
    "R7": (expr("X-"), expr("Y-", "Z-")),
    "R8": (expr("Y+"), expr("X-")),
    "R4": (expr("Y-"), expr("X+")),
    "R5": (expr("X+"), expr("X+", "X+")),
    "R6": (expr("X-"), expr("X-", "X-")),
}

FORWARD = "fwd"
REVERSE = "rev"
DIRECTIONS = (FORWARD, REVERSE)


def _move(lhs: SumExpr, rhs: SumExpr) -> tuple:
    """(need, delta, growth): lhs's counts, rhs - lhs, and its atom total."""
    delta = tuple(b - a for a, b in zip(lhs.counts, rhs.counts))
    return lhs.counts, delta, sum(delta)


# (rule id, direction) -> move
MOVES: dict = {(rid, d): _move(*(pair if d == FORWARD else pair[::-1]))
               for rid, pair in RULES.items() for d in DIRECTIONS}


def _check_rule(rule_id: str, direction: str = FORWARD):
    if rule_id not in RULES:
        raise IstructError(f"unknown rule id {rule_id!r}")
    if direction not in DIRECTIONS:
        raise IstructError(f"direction must be {FORWARD!r} or {REVERSE!r}, "
                           f"got {direction!r}")


def apply_rule(e: SumExpr, rule_id: str, direction: str = FORWARD,
               max_atoms: int = DEFAULT_MAX_ATOMS) -> set:
    """All expressions reachable by one application of the rule.

    With multiset expressions every occurrence of the pattern yields the same
    result, so the set has at most one element; it is empty when the pattern
    does not occur or when the result would exceed the atom cap.
    """
    _check_rule(rule_id, direction)
    need, delta, growth = MOVES[rule_id, direction]
    if len(e) + growth > max_atoms or any(map(lt, e.counts, need)):
        return set()
    return {SumExpr.from_counts(tuple(map(add, e.counts, delta)))}


@dataclass(eq=False)
class Step:
    expr: SumExpr
    rule: str
    direction: str = FORWARD


@dataclass(eq=False)
class ChainDerivation:
    start: SumExpr
    steps: list  # of Step


def check_derivation(chain: ChainDerivation, *, start: Optional[SumExpr] = None,
                     end: Optional[SumExpr] = None,
                     max_atoms: int = DEFAULT_MAX_ATOMS) -> VerificationReport:
    """Verified iff every step is one legal rule application and the declared
    endpoints match; an illegal step is reported with its index."""
    if start is not None and chain.start != start:
        return VerificationReport(
            claim="chain-derivation", status=VIOLATED,
            residuals={}, witness={"reason": "start mismatch",
                                   "declared": str(start),
                                   "actual": str(chain.start)})
    current = chain.start
    for idx, step in enumerate(chain.steps):
        try:
            reachable = apply_rule(current, step.rule, step.direction, max_atoms)
        except IstructError as exc:
            return VerificationReport(
                claim="chain-derivation", status=VIOLATED, residuals={},
                witness={"step": idx, "reason": str(exc)})
        if step.expr not in reachable:
            return VerificationReport(
                claim="chain-derivation", status=VIOLATED, residuals={},
                witness={"step": idx, "from": str(current),
                         "rule": f"{step.rule}:{step.direction}",
                         "claimed": str(step.expr)})
        current = step.expr
    if end is not None and current != end:
        return VerificationReport(
            claim="chain-derivation", status=VIOLATED, residuals={},
            witness={"reason": "end mismatch", "declared": str(end),
                     "actual": str(current)})
    return VerificationReport(claim="chain-derivation", status=VERIFIED,
                              residuals={"steps": float(len(chain.steps))})


def search_chain(source: SumExpr, target: SumExpr, max_depth: int,
                 rules: Optional[Sequence[str]] = None,
                 max_atoms: int = DEFAULT_MAX_ATOMS) -> Optional[ChainDerivation]:
    """Breadth-first search over the rewrite relation; None if unreachable.

    Expansion order is deterministic (rule id, then fwd before rev), so the
    returned chain is reproducible.  Nodes are count tuples; expressions and
    steps are built only along the chain found.
    """
    if max_depth < 0:
        raise IstructError("max_depth must be >= 0")
    rule_ids = sorted(RULES) if rules is None else list(rules)
    for rid in rule_ids:
        _check_rule(rid)
    if source == target:
        return ChainDerivation(source, [])
    moves = [(rid, d, *MOVES[rid, d]) for rid in rule_ids for d in DIRECTIONS]
    goal = target.counts
    seen = {source.counts: None}
    frontier = [source.counts]
    for _ in range(max_depth):
        next_frontier = []
        for node in frontier:
            room = max_atoms - sum(node)
            for rid, d, need, delta, growth in moves:
                if growth > room or any(map(lt, node, need)):
                    continue
                out = tuple(map(add, node, delta))
                if out in seen:
                    continue
                seen[out] = (node, rid, d)
                if out == goal:
                    return _backtrack(source, out, seen)
                next_frontier.append(out)
        frontier = next_frontier
    return None


def _backtrack(source: SumExpr, goal: tuple, seen: dict) -> ChainDerivation:
    steps = []
    node = goal
    while seen[node] is not None:
        prev, rid, direction = seen[node]
        steps.append(Step(SumExpr.from_counts(node), rid, direction))
        node = prev
    steps.reverse()
    return ChainDerivation(source, steps)


# ---------------------------------------------------------------------------
# Factorization hypotheses behind the decomposition argument
# ---------------------------------------------------------------------------

def factorization_hypothesis_check(R, S, s: ComplexStructure, *,
                                   tol: Tolerances = DEFAULT_TOL) -> VerificationReport:
    """Check R S = I, that R respects (A, -A) and S respects (-A, A), and that
    S R is a projection splitting the space into its range and kernel."""
    A = s.A
    n = s.space.dim
    R = np.asarray(R, dtype=float)
    S = np.asarray(S, dtype=float)
    if R.shape != (n, n) or S.shape != (n, n):
        raise DimensionMismatchError(f"R and S must be {n} x {n}")
    residuals = {
        "RS_minus_I": float(np.max(np.abs(R @ S - np.eye(n)))),
        "R_respects(A,-A)": float(np.max(np.abs(R @ A + A @ R))),
        "S_respects(-A,A)": float(np.max(np.abs(S @ (-A) - A @ S))),
    }
    P = S @ R
    residuals["projection"] = float(np.max(np.abs(P @ P - P)))
    sv = np.linalg.svd(P, compute_uv=False)
    rank = int(np.sum(sv > 1e-10 * max(sv[0], 1.0)))
    # range basis (the summand carried by the image) and kernel basis
    U, _, Vt = np.linalg.svd(P)
    range_basis = U[:, :rank]
    kernel_basis = Vt[rank:].T
    split = np.hstack([range_basis, kernel_basis])
    residuals["split_rank_defect"] = float(
        n - np.linalg.matrix_rank(split)) if split.size else float(n)

    bad = {k: v for k, v in residuals.items()
           if v > (PROJECTION_TOL if k == "projection" else tol.tol_alg)}
    status = VERIFIED if not bad else VIOLATED
    return VerificationReport(
        claim="factorization-hypotheses", status=status,
        residuals=residuals,
        witness={"failed": bad} if bad else None,
        tolerances={"algebraic": tol.tol_alg, "projection": PROJECTION_TOL},
        notes=[f"range dimension {rank}, kernel dimension {n - rank}"])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def expr_to_list(e: SumExpr) -> list:
    return [[a.label, a.sign] for a in e.atoms]


def expr_from_list(obj) -> SumExpr:
    return SumExpr(Atom(label, sign) for label, sign in obj)


def chain_to_dict(chain: ChainDerivation) -> dict:
    return {"start": expr_to_list(chain.start),
            "steps": [{"expr": expr_to_list(st.expr), "rule": st.rule,
                       "dir": st.direction} for st in chain.steps]}


def chain_from_dict(obj: dict) -> ChainDerivation:
    """The chain a JSON object describes; an unknown rule id or direction is
    an error here, before any step is checked."""
    steps = [Step(expr_from_list(st["expr"]), st["rule"], st.get("dir", FORWARD))
             for st in obj["steps"]]
    for step in steps:
        _check_rule(step.rule, step.direction)
    return ChainDerivation(expr_from_list(obj["start"]), steps)


def reference_chain() -> ChainDerivation:
    """The bundled ten-step derivation from X+ to X-."""
    seq = [
        (("Y+", "Z+"), "R3", FORWARD),
        (("X-", "Z+"), "R8", FORWARD),
        (("X-", "X-", "Z+"), "R6", FORWARD),
        (("X-", "Y+", "Z+"), "R8", REVERSE),
        (("X-", "X+"), "R3", REVERSE),
        (("Y-", "Z-", "X+"), "R7", FORWARD),
        (("X+", "Z-", "X+"), "R4", FORWARD),
        (("X+", "Z-"), "R5", REVERSE),
        (("Y-", "Z-"), "R4", REVERSE),
        (("X-",), "R7", REVERSE),
    ]
    return ChainDerivation(expr("X+"),
                           [Step(expr(*toks), rid, d) for toks, rid, d in seq])
