"""Uniform result records for the verifiers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

VERIFIED = "verified"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(eq=False)
class VerificationReport:
    claim: str
    status: str  # verified | violated | inconclusive
    residuals: dict = field(default_factory=dict)
    witness: Optional[Any] = None
    tolerances: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if self.status == VIOLATED and self.witness is None:
            raise ValueError("a violated report must carry a witness")

    @property
    def ok(self) -> bool:
        return self.status == VERIFIED

    def to_dict(self) -> dict:
        return {"claim": self.claim, "status": self.status,
                "residuals": dict(self.residuals), "witness": self.witness,
                "tolerances": dict(self.tolerances), "seeds": dict(self.seeds),
                "notes": list(self.notes)}


def bounded(claim: str, ok: bool, residuals: dict, tolerances: dict = {},
            witness=None, notes=()) -> VerificationReport:
    """The report of a claim that holds when ok, its residuals being within
    its tolerances; the witness is kept only for a violation."""
    return VerificationReport(claim, VERIFIED if ok else VIOLATED,
                              residuals=residuals, tolerances=dict(tolerances),
                              witness=None if ok else witness, notes=list(notes))
