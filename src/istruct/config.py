"""Tolerance defaults used by validators and verifiers."""

from dataclasses import dataclass

SAMPLE_SEED = 0  # every sampled check draws its directions from this seed
MAX_FLOATS = 2 ** 24  # floats (128 MiB) in a claim's draws or a space's break rows


@dataclass(frozen=True)
class Tolerances:
    """Comparison tolerances.

    tol_alg bounds exact algebraic residuals (max-entry of A^2 + I, and of
    W^2 + I for a Gram candidate, W as in structures._gram_certificates);
    tol_iso bounds isometry residuals, sampled or exact, each measured in
    the space's own norm; abs_tol bounds only the deviations of the complex
    Cartesian-square identities.  No check reads rel_tol; reports echo it.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9
    tol_alg: float = 1e-9
    tol_iso: float = 1e-8


DEFAULT_TOL = Tolerances()
