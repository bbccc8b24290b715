"""Builders that only the tests need: random respecting operators, the JSON
form of a chain (the package reads chains from JSON, but writes none),
one entry of a sequence drawn as rng.choice draws it, signed pairings drawn
through numpy's own Generator calls, a counter of sampled isometry checks,
and a log of linear-algebra calls that shows which repeat their input."""

from __future__ import annotations

import contextlib

import numpy as np

from istruct import structures
from istruct.config import DEFAULT_TOL, Tolerances
from istruct.corpus import _below, respecting_part
from istruct.errors import DescriptorError
from istruct.morphisms import RespectingOperator, make_respecting
from istruct.pelczynski import ChainDerivation, SumExpr
from istruct.structures import ComplexStructure


def choice(rng: np.random.Generator, seq):
    """One entry of seq, drawn as rng.choice(seq) draws it (a test checks
    that), without converting seq to an array: rng.integers(len(seq)) through
    corpus._below.  The loop references draw their spaces with it, item by
    item."""
    return seq[_below(rng, len(seq))]


def numpy_signed_pairing_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """corpus.signed_pairing_matrix drawn by rng.permutation and one
    rng.integers(2) per pair: the reference its stream draws must match."""
    if dim % 2 != 0:
        raise DescriptorError("signed pairing needs even dimension")
    perm = rng.permutation(dim)
    A = np.zeros((dim, dim))
    for i in range(dim // 2):
        p, q = int(perm[2 * i]), int(perm[2 * i + 1])
        s = 1.0 if rng.integers(2) == 0 else -1.0
        A[q, p] = s
        A[p, q] = -s
    return A


def random_respecting_matrix(A: np.ndarray, B: np.ndarray,
                             rng: np.random.Generator) -> np.ndarray:
    """A generic T with T A = B T, by averaging away the defect."""
    return respecting_part(rng.standard_normal((B.shape[0], A.shape[0])), A, B)


def random_respecting_operator(dom: ComplexStructure, cod: ComplexStructure,
                               rng: np.random.Generator, *,
                               tol: Tolerances = DEFAULT_TOL) -> RespectingOperator:
    T = random_respecting_matrix(dom.A, cod.A, rng)
    return make_respecting(dom, cod, T, tol=tol)


def expr_to_list(e: SumExpr) -> list:
    return [[a.label, a.sign] for a in e.atoms]


def chain_to_dict(chain: ChainDerivation) -> dict:
    return {"start": expr_to_list(chain.start),
            "steps": [{"expr": expr_to_list(st.expr), "rule": st.rule,
                       "dir": st.direction} for st in chain.steps]}


def count_sampled_checks(monkeypatch) -> list:
    """A list that gains one entry per call of certify's sampled isometry
    check, structures._sampled_isometry_residual, until monkeypatch undoes it."""
    calls = []
    sampled = structures._sampled_isometry_residual

    def counted(*args, **kwargs):
        calls.append(1)
        return sampled(*args, **kwargs)

    monkeypatch.setattr(structures, "_sampled_isometry_residual", counted)
    return calls


LINALG = ("cholesky", "inv", "svd", "eigvalsh", "solve", "matrix_rank")


def input_key(*args, **kwargs) -> tuple:
    """The identity of a call's inputs: each array by its dtype, shape and
    bytes, any other argument by its repr."""
    def one(a):
        return (a.dtype.str, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else repr(a)
    return (*map(one, args), *((k, one(v)) for k, v in sorted(kwargs.items())))


@contextlib.contextmanager
def linalg_calls():
    """Log the calls of np.linalg's LINALG functions made in the block: yields
    name -> the input_key of each call, in order.  The package looks each one
    up on np.linalg when it calls it, so every call of the package is logged,
    and none that numpy makes inside np.linalg.  Run one claim per block to
    count its repeated calls (repeats)."""
    log = {name: [] for name in LINALG}
    originals = {name: getattr(np.linalg, name) for name in LINALG}

    def logged(name, f):
        def call(*args, **kwargs):
            log[name].append(input_key(*args, **kwargs))
            return f(*args, **kwargs)
        return call

    for name, f in originals.items():
        setattr(np.linalg, name, logged(name, f))
    try:
        yield log
    finally:
        for name, f in originals.items():
            setattr(np.linalg, name, f)


def repeats(log: dict) -> dict:
    """name -> how many of its logged calls repeat an earlier call's input."""
    return {name: len(keys) - len(set(keys)) for name, keys in log.items()}
