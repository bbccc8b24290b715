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
The chain search meets in the middle: breadth-first levels from both ends
meet, the forward nodes on a shortest chain are marked, and a walk from the
source takes the first move that stays on one.  That is the lex-least
shortest chain, the one a one-sided breadth-first search finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, lt, sub
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DescriptorError, IstructError, json_field, unknown_keys
from .morphisms import _respect_residuals
from .report import VerificationReport, bounded
from .spaces import _checked_operator
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
    if not isinstance(rule_id, str) or rule_id not in RULES:
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
    def violated(witness: dict) -> VerificationReport:
        return bounded("chain-derivation", False, {}, witness=witness)

    if start is not None and chain.start != start:
        return violated({"reason": "start mismatch", "declared": str(start),
                         "actual": str(chain.start)})
    current = chain.start
    for idx, step in enumerate(chain.steps):
        try:
            reachable = apply_rule(current, step.rule, step.direction, max_atoms)
        except IstructError as exc:
            return violated({"step": idx, "reason": str(exc)})
        if step.expr not in reachable:
            return violated({"step": idx, "from": str(current),
                             "rule": f"{step.rule}:{step.direction}",
                             "claimed": str(step.expr)})
        current = step.expr
    if end is not None and current != end:
        return violated({"reason": "end mismatch", "declared": str(end),
                         "actual": str(current)})
    return bounded("chain-derivation", True, {"steps": float(len(chain.steps))})


def search_chain(source: SumExpr, target: SumExpr, max_depth: int,
                 rules: Optional[Sequence[str]] = None,
                 max_atoms: int = DEFAULT_MAX_ATOMS) -> Optional[ChainDerivation]:
    """The lexicographically least shortest chain of at most ``max_depth``
    steps, moves ordered by rule id as in ``rules`` and fwd before rev; None
    if there is none.

    Meet: breadth-first levels grow from the source (forward moves) and from
    the target (backward moves), always on the smaller frontier, until the
    two balls meet at summed depth d.  Mark: from the deepest forward level
    down, a node of level i - 1 lies on a shortest chain iff it has a move to
    a node of level i that does; it is then d - i + 1 steps from the target.
    Walk: from the source, take at each step the first move that ends one
    step nearer the target.  A one-sided breadth-first search meets the
    nodes of each level in the lex order of their least chains, so it
    returns the same chain.
    """
    if max_depth < 0:
        raise IstructError("max_depth must be >= 0")
    rule_ids = sorted(RULES) if rules is None else list(rules)
    for rid in rule_ids:
        _check_rule(rid)
    if source == target:
        return ChainDerivation(source, [])
    moves = [(rid, d, *MOVES[rid, d]) for rid in rule_ids for d in DIRECTIONS]
    from_source = {source.counts: 0}
    to_target = {target.counts: 0}
    front, back = [source.counts], [target.counts]
    a = b = 0
    meet = []
    # at most C(max_atoms + 6, 6) count vectors exist, so a frontier empties
    # long before a large max_depth runs out
    while not meet:
        if not front or not back or a + b == max_depth:
            return None
        if len(front) <= len(back):
            a += 1
            front = _next_level((out for node in front
                                 for *_, out in _successors(node, moves, max_atoms)),
                                from_source, a)
            meet = [node for node in front if node in to_target]
        else:
            b += 1
            back = _next_level((u for node in back
                                for u in _predecessors(node, moves, max_atoms)),
                               to_target, b)
            meet = [node for node in back if node in from_source]
    d = a + b
    # the nodes of forward level i - 1 with a move to a marked node of level i
    marked = meet
    for i in range(a, 1, -1):
        marked = _next_level((u for node in marked
                              for u in _predecessors(node, moves, max_atoms)
                              if from_source.get(u) == i - 1),
                             to_target, d - i + 1)
    steps = []
    node = source.counts
    for left in range(d - 1, -1, -1):
        rid, direction, node = next(m for m in _successors(node, moves, max_atoms)
                                    if to_target.get(m[2]) == left)
        steps.append(Step(SumExpr.from_counts(node), rid, direction))
    return ChainDerivation(source, steps)


def _successors(node: tuple, moves: list, max_atoms: int):
    """(rule id, direction, successor) of each move that applies to node."""
    room = max_atoms - sum(node)
    for rid, d, need, delta, growth in moves:
        if growth <= room and not any(map(lt, node, need)):
            yield rid, d, tuple(map(add, node, delta))


def _predecessors(node: tuple, moves: list, max_atoms: int):
    """Each u with a move to node: u = node - delta, where u >= need and
    node has at most max_atoms atoms, the same test as the move from u."""
    if sum(node) <= max_atoms:
        for _, _, need, delta, _ in moves:
            u = tuple(map(sub, node, delta))
            if not any(map(lt, u, need)):
                yield u


def _next_level(nodes, dist: dict, k: int) -> list:
    """The nodes not yet in dist, in order and once each, entered at k."""
    level = []
    for node in nodes:
        if node not in dist:
            dist[node] = k
            level.append(node)
    return level


# ---------------------------------------------------------------------------
# Factorization hypotheses behind the decomposition argument
# ---------------------------------------------------------------------------

def factorization_hypothesis_check(R, S, s: ComplexStructure, *,
                                   tol: Tolerances = DEFAULT_TOL) -> VerificationReport:
    """Check R S = I, that R respects (A, -A) and S respects (-A, A), and that
    S R is a projection splitting the space into its range and kernel."""
    A = s.A
    n = s.space.dim
    R = _checked_operator(R, s.space, s.space, "R")
    S = _checked_operator(S, s.space, s.space, "S")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual fails
        residuals = {
            "RS_minus_I": float(np.max(np.abs(R @ S - np.eye(n)))),
            "R_respects(A,-A)": _respect_residuals(R[None], A, -A, tol)[0][0],
            "S_respects(-A,A)": _respect_residuals(S[None], -A, A, tol)[0][0],
        }
        P = S @ R
        residuals["projection"] = float(np.max(np.abs(P @ P - P)))
    notes = []
    if np.all(np.isfinite(P)):  # else no SVD of P, and its residual is not finite
        U, sv, Vt = np.linalg.svd(P)
        rank = int(np.sum(sv > 1e-10 * max(sv[0], 1.0)))
        # range basis (the summand carried by the image) and kernel basis
        range_basis = U[:, :rank]
        kernel_basis = Vt[rank:].T
        split = np.hstack([range_basis, kernel_basis])
        residuals["split_rank_defect"] = float(
            n - np.linalg.matrix_rank(split)) if split.size else float(n)
        notes = [f"range dimension {rank}, kernel dimension {n - rank}"]

    bad = {k: v for k, v in residuals.items()
           if not v <= (PROJECTION_TOL if k == "projection" else tol.tol_alg)}
    return bounded("factorization-hypotheses", not bad, residuals,
                   {"algebraic": tol.tol_alg, "projection": PROJECTION_TOL},
                   {"failed": bad}, notes)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def expr_from_list(obj) -> SumExpr:
    if not (isinstance(obj, list) and all(isinstance(a, list) and len(a) == 2 for a in obj)):
        raise DescriptorError(f"an expression must be a list of [label, sign] pairs, got {obj!r}")
    return SumExpr(Atom(label, sign) for label, sign in obj)


def chain_from_dict(obj: dict) -> ChainDerivation:
    """The chain a JSON object describes; a missing or unknown key, an unknown
    rule id or direction is an error here, before any step is checked."""
    steps = json_field(obj, "steps", "a chain")
    if unknown := unknown_keys(obj, {"start", "steps"}):
        raise DescriptorError(f"a chain has unknown key(s) {unknown}")
    if not isinstance(steps, list):
        raise DescriptorError(f"a chain's steps must be a list, got {type(steps).__name__}")
    steps = [_step_from_dict(st) for st in steps]
    for step in steps:
        _check_rule(step.rule, step.direction)
    return ChainDerivation(expr_from_list(json_field(obj, "start", "a chain")), steps)


def _step_from_dict(obj: dict) -> Step:
    step = Step(expr_from_list(json_field(obj, "expr", "a chain step")),
                json_field(obj, "rule", "a chain step"), obj.get("dir", FORWARD))
    if unknown := unknown_keys(obj, {"expr", "rule", "dir"}):
        raise DescriptorError(f"a chain step has unknown key(s) {unknown}")
    return step


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
