import os
import subprocess
import sys
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import istruct
from istruct import pelczynski
from istruct.errors import IstructError
from istruct.pelczynski import (ATOMS, FORWARD, REVERSE, RULES, Atom,
                                ChainDerivation, Step, SumExpr, apply_rule,
                                chain_from_dict, check_derivation, expr,
                                expr_from_list, factorization_hypothesis_check,
                                reference_chain, search_chain)
from istruct.spaces import lp_space
from istruct.structures import validate_i_operator

from helpers import chain_to_dict, expr_to_list

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
TOKENS = [str(a) for a in ATOMS]


# ---------------------------------------------------------------------------
# Reference oracle: rule application on Counters of atoms and a BFS over
# SumExpr objects, independent of the count-vector move table
# ---------------------------------------------------------------------------

def oracle_apply_rule(e, rule_id, direction=FORWARD, max_atoms=8):
    lhs, rhs = RULES[rule_id]
    if direction == REVERSE:
        lhs, rhs = rhs, lhs
    have = Counter(e.atoms)
    need = Counter(lhs.atoms)
    if any(have[a] < k for a, k in need.items()):
        return set()
    rest = have - need
    rest.update(Counter(rhs.atoms))
    if sum(rest.values()) > max_atoms:
        return set()
    return {SumExpr(rest.elements())}


def oracle_search_chain(source, target, max_depth, rules=None, max_atoms=8):
    rule_ids = sorted(RULES) if rules is None else list(rules)
    if source == target:
        return ChainDerivation(source, [])
    seen = {source: None}
    frontier = deque([source])
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        next_frontier = deque()
        while frontier:
            e = frontier.popleft()
            for rid in rule_ids:
                for direction in (FORWARD, REVERSE):
                    for out in sorted(oracle_apply_rule(e, rid, direction, max_atoms),
                                      key=str):
                        if out in seen:
                            continue
                        seen[out] = (e, rid, direction)
                        if out == target:
                            steps = []
                            node = out
                            while node != source:
                                prev, r, d = seen[node]
                                steps.append(Step(node, r, d))
                                node = prev
                            return ChainDerivation(source, steps[::-1])
                        next_frontier.append(out)
        frontier = next_frontier
    return None


def _exprs(max_size):
    return st.lists(st.sampled_from(TOKENS), min_size=1,
                    max_size=max_size).map(lambda toks: expr(*toks))


@st.composite
def _searches(draw):
    """(source, target, rules, depth, cap), with rule lists that may be
    unsorted and repeat an id.  Half the cases draw both ends of up to 10
    atoms, so that some lie above the cap; in the other half the target ends
    a random walk from the source under the rules and the cap, so that long
    chains are drawn too."""
    rules = draw(st.lists(st.sampled_from(sorted(RULES)), min_size=1, max_size=8))
    cap = draw(st.integers(3, 8))
    if draw(st.booleans()):
        source, target = draw(_exprs(10)), draw(_exprs(10))
    else:
        # at most one atom above the cap, where some move may still apply
        source = draw(_exprs(cap + 1))
        walk = draw(st.randoms(use_true_random=True))
        target = source
        for _ in range(walk.randint(1, 16)):
            options = [out for rid in rules for d in (FORWARD, REVERSE)
                       for out in oracle_apply_rule(target, rid, d, cap)]
            target = walk.choice(options) if options else target
        assume(target != source)
    return source, target, rules, draw(st.integers(0, 14)), cap


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

def test_expr_is_commutative_multiset():
    assert expr("X+", "Y-") == expr("Y-", "X+")
    assert expr("X+", "X+") != expr("X+")
    assert hash(expr("X+", "Y-")) == hash(expr("Y-", "X+"))


def test_bad_atoms_and_empty_expr():
    with pytest.raises(IstructError):
        Atom("W", "+")
    with pytest.raises(IstructError):
        Atom("X", "0")
    with pytest.raises(IstructError):
        SumExpr([])


# ---------------------------------------------------------------------------
# Rule application
# ---------------------------------------------------------------------------

def test_apply_rule_forward_and_reverse():
    assert apply_rule(expr("X+"), "R3") == {expr("Y+", "Z+")}
    assert apply_rule(expr("Y+", "Z+"), "R3", REVERSE) == {expr("X+")}
    assert apply_rule(expr("Y-", "Z-"), "R4") == {expr("X+", "Z-")}


def test_apply_rule_missing_pattern_is_empty():
    assert apply_rule(expr("X-"), "R3") == set()
    assert apply_rule(expr("X+"), "R8") == set()


def test_apply_rule_respects_atom_cap():
    e = expr(*["X+"] * 8)
    assert apply_rule(e, "R5") == set()  # would need nine atoms
    assert apply_rule(e, "R5", max_atoms=9) == {expr(*["X+"] * 9)}


@settings(deadline=None, max_examples=200)
@given(e=_exprs(9), cap=st.integers(1, 10))
def test_apply_rule_matches_counter_oracle(e, cap):
    for rule in sorted(RULES):
        for direction in (FORWARD, REVERSE):
            assert apply_rule(e, rule, direction, cap) == \
                oracle_apply_rule(e, rule, direction, cap)


def test_expr_keeps_sorted_atom_order():
    e = expr("Z-", "X-", "Y+", "X+", "Z+", "Y-", "X+")
    assert str(e) == "X+ . X+ . X- . Y+ . Y- . Z+ . Z-"
    assert e.counts == (2, 1, 1, 1, 1, 1)
    assert len(e) == 7
    assert expr_to_list(e)[:3] == [["X", "+"], ["X", "+"], ["X", "-"]]
    assert SumExpr.from_counts(e.counts) == e
    assert repr(expr("Y-", "X+")) == "SumExpr(X+ . Y-)"


def test_apply_rule_rejects_bad_ids():
    with pytest.raises(IstructError):
        apply_rule(expr("X+"), "R99")
    with pytest.raises(IstructError):
        apply_rule(expr("X+"), "R3", "sideways")


@settings(deadline=None, max_examples=100)
@given(tokens=st.lists(st.sampled_from(["X+", "X-", "Y+", "Y-", "Z+", "Z-"]),
                       min_size=1, max_size=6),
       rule=st.sampled_from(sorted(RULES)),
       direction=st.sampled_from([FORWARD, REVERSE]))
def test_rule_applications_invert(tokens, rule, direction):
    e = expr(*tokens)
    back = REVERSE if direction == FORWARD else FORWARD
    for out in apply_rule(e, rule, direction):
        assert e in apply_rule(out, rule, back, max_atoms=len(e))


# ---------------------------------------------------------------------------
# Derivation checking
# ---------------------------------------------------------------------------

def test_reference_chain_verifies():
    chain = reference_chain()
    assert len(chain.steps) == 10
    rep = check_derivation(chain, start=expr("X+"), end=expr("X-"))
    assert rep.ok


def test_endpoint_mismatches_reported():
    chain = reference_chain()
    bad_start = check_derivation(chain, start=expr("X-"))
    assert bad_start.witness["reason"] == "start mismatch"
    bad_end = check_derivation(chain, end=expr("Y+"))
    assert bad_end.witness["reason"] == "end mismatch"


def test_every_rule_mutation_fails_at_its_index():
    chain = reference_chain()
    rule_ids = sorted(RULES)
    for idx, step in enumerate(chain.steps):
        mutated = rule_ids[(rule_ids.index(step.rule) + 1) % len(rule_ids)]
        steps = list(chain.steps)
        steps[idx] = Step(step.expr, mutated, step.direction)
        rep = check_derivation(ChainDerivation(chain.start, steps))
        assert rep.status == "violated"
        assert rep.witness["step"] == idx


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def test_search_finds_bridge_chain():
    chain = search_chain(expr("X+"), expr("X-"), 10)
    assert chain is not None
    assert len(chain.steps) <= 10
    assert check_derivation(chain, start=expr("X+"), end=expr("X-")).ok


def test_search_without_bridges_fails():
    assert search_chain(expr("X+"), expr("X-"), 10,
                        rules=["R3", "R5", "R6", "R7"]) is None


def test_search_stops_when_the_frontier_is_empty():
    # at most C(14, 6) = 3,003 count vectors are reachable, so a huge depth
    # must cost no more than exhausting them; in a child process, so that a
    # search that keeps looping fails at the timeout instead of hanging
    # (blocked rules: a frontier dies out; a target above the atom cap has no
    # predecessor, so the backward frontier is empty after one level)
    code = ("from istruct.pelczynski import expr, search_chain\n"
            "print(search_chain(expr('X+'), expr('X-'), 10**12,\n"
            "                   rules=['R3', 'R5', 'R6', 'R7']))\n"
            "print(search_chain(expr('X+'), expr(*['X+'] * 9), 10**12))\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(istruct.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["None", "None"]


@settings(deadline=None, max_examples=300)
@given(case=_searches())
def test_search_matches_counter_oracle(case):
    source, target, rules, depth, cap = case
    chain = search_chain(source, target, depth, rules=rules, max_atoms=cap)
    expected = oracle_search_chain(source, target, depth, rules=rules, max_atoms=cap)
    if expected is None:
        assert chain is None
        return
    assert chain_to_dict(chain) == chain_to_dict(expected)
    assert check_derivation(chain, start=source, end=target, max_atoms=cap).ok


@pytest.mark.parametrize("depth", [9, 10, 11, 12, 13])
def test_bridge_search_matches_counter_oracle(depth):
    # the shortest bridge has ten steps
    chain = search_chain(expr("X+"), expr("X-"), depth)
    expected = oracle_search_chain(expr("X+"), expr("X-"), depth)
    assert (chain is None) == (expected is None) == (depth == 9)
    if expected is not None:
        assert chain_to_dict(chain) == chain_to_dict(expected)


def test_search_with_a_negative_depth_is_a_typed_error():
    with pytest.raises(IstructError, match="max_depth must be >= 0"):
        search_chain(expr("X+"), expr("X-"), -1)


def test_search_rejects_unknown_rule_before_searching():
    with pytest.raises(IstructError, match="R99"):
        search_chain(expr("X+"), expr("X+"), 3, rules=["R3", "R99"])


def test_search_trivial_and_deterministic():
    trivial = search_chain(expr("X+"), expr("X+"), 5)
    assert trivial.steps == []
    a = search_chain(expr("X+"), expr("X-"), 10)
    b = search_chain(expr("X+"), expr("X-"), 10)
    assert chain_to_dict(a) == chain_to_dict(b)


# ---------------------------------------------------------------------------
# Serialization and the bundled fixture
# ---------------------------------------------------------------------------

def test_expr_serialization_roundtrip():
    e = expr("X+", "Y-", "Y-")
    assert expr_from_list(expr_to_list(e)) == e


def test_chain_serialization_roundtrip():
    chain = reference_chain()
    again = chain_from_dict(chain_to_dict(chain))
    assert again.start == chain.start
    assert [(s.expr, s.rule, s.direction) for s in again.steps] == \
        [(s.expr, s.rule, s.direction) for s in chain.steps]


@pytest.mark.parametrize("field, value", [("rule", "R99"), ("dir", "sideways")])
def test_chain_from_dict_rejects_unknown_rule_or_direction(field, value):
    obj = chain_to_dict(reference_chain())
    obj["steps"][3][field] = value
    with pytest.raises(IstructError, match=value):
        chain_from_dict(obj)


def test_in_memory_unknown_rule_is_a_violated_step():
    chain = reference_chain()
    chain.steps[2] = Step(chain.steps[2].expr, "R99")
    rep = check_derivation(chain)
    assert rep.status == "violated"
    assert rep.witness["step"] == 2 and "R99" in rep.witness["reason"]


# ---------------------------------------------------------------------------
# Factorization hypotheses
# ---------------------------------------------------------------------------

def test_factorization_check_passes_for_reflection():
    s = validate_i_operator(lp_space(2, 2.0), J2)
    R = np.array([[1.0, 0.0], [0.0, -1.0]])
    rep = factorization_hypothesis_check(R, R, s)
    assert rep.ok
    assert rep.residuals["RS_minus_I"] == 0.0


def test_factorization_check_fails_for_identity():
    s = validate_i_operator(lp_space(2, 2.0), J2)
    rep = factorization_hypothesis_check(np.eye(2), np.eye(2), s)
    assert rep.status == "violated"
    assert "R_respects(A,-A)" in rep.witness["failed"]


def test_factorization_check_of_non_finite_products_is_violated():
    # R and S are finite and respect (A, -A) and (-A, A) exactly, but R S - I
    # overflows and S R has inf entries, whose SVD raised LinAlgError
    R = np.array([[1e200, 1e200], [1e200, -1e200]])
    S = np.array([[1e200, -1e200], [-1e200, -1e200]])
    s = validate_i_operator(lp_space(2, 2.0), J2)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = factorization_hypothesis_check(R, S, s)
    assert rep.status == "violated"
    assert rep.residuals["R_respects(A,-A)"] == rep.residuals["S_respects(-A,A)"] == 0.0
    assert list(rep.witness["failed"]) == ["RS_minus_I", "projection"]
    assert not any(np.isfinite(list(rep.witness["failed"].values())))
    assert rep.notes == []


def test_a_nan_respect_residual_fails_the_factorization_check(monkeypatch):
    monkeypatch.setattr(pelczynski, "_respect_residuals",
                        lambda *args: ([float("nan")], [None]))
    flip = np.diag([1.0, -1.0])
    rep = factorization_hypothesis_check(flip, flip, validate_i_operator(lp_space(2, 2.0), J2))
    assert rep.status == "violated"
    assert list(rep.witness["failed"]) == ["R_respects(A,-A)", "S_respects(-A,A)"]
