"""Builders that only the tests need: random respecting operators, and the
JSON form of a chain (the package reads chains from JSON, but writes none)."""

from __future__ import annotations

import numpy as np

from istruct.config import DEFAULT_TOL, Tolerances
from istruct.corpus import respecting_part
from istruct.morphisms import RespectingOperator, make_respecting
from istruct.pelczynski import ChainDerivation, SumExpr
from istruct.structures import ComplexStructure


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
