"""Exception types shared across the package, and checks of JSON input."""

import numbers


class IstructError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(IstructError):
    """Vector or matrix shape does not match the declared dimension."""


class DescriptorError(IstructError):
    """A norm, oracle or chain descriptor violates its construction invariants."""


class QuadratureError(IstructError):
    """The arc quadrature did not settle within its node budget."""


class StructureValidationError(IstructError):
    """A candidate i-operator failed validation.

    Carries the certificate with the worst witness so the rejection is
    reproducible.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class RespectViolationError(IstructError):
    """T A != B T beyond tolerance; carries the max-entry witness."""

    def __init__(self, message, residual=None, witness=None):
        super().__init__(message)
        self.residual = residual
        self.witness = witness


class CompositionError(IstructError):
    """Operators are not composable (structure mismatch)."""


class WitnessError(IstructError):
    """Hypotheses of a constructive witness are not satisfied."""


class ScenarioError(IstructError):
    """A scenario file failed to parse or resolve, or its report could not be
    written."""


def first_errors(*stages) -> list:
    """Item by item, the first error of the stages' lists of errors (None
    where an item passed a stage), or None for an item that passed them all:
    the error a one-item call meets first, for each item of a stacked one."""
    return [next((e for e in errors if e is not None), None)
            for errors in zip(*stages)]


def single(value, error):
    """The value of a one-item kernel call, or its error (if not None) raised."""
    if error is not None:
        raise error
    return value


def json_field(obj, key: str, what: str):
    """obj[key], or an error naming the key if what is not a JSON object with it."""
    if not isinstance(obj, dict):
        raise DescriptorError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise DescriptorError(f"{what} lacks the key {key!r}")
    return obj[key]


def is_json_number(v) -> bool:
    """A JSON number: a Real that is not a bool (it may be NaN or infinite)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_json_int(v) -> bool:
    """A JSON integer: an Integral that is not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def unknown_keys(obj: dict, known: set) -> str:
    """obj's keys outside known, quoted and sorted ('' if none): a misspelled
    key would run a default, so the error names every one."""
    return "" if obj.keys() <= known else ", ".join(map(repr, sorted(obj.keys() - known)))
