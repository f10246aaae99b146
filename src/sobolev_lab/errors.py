"""Exception types shared across the package."""


class ContractViolationError(ValueError):
    """An input violates a structural precondition (shape, hermiticity, positivity)."""


class NumericalContractError(ContractViolationError):
    """A computed result breaks a guarantee the mathematics gives (a witness
    that does not reproduce its estimate, a generator with a negative mode or
    one that is not self-adjoint)."""


class AlgebraMismatchError(ContractViolationError):
    """Operands live on different algebras."""


class DomainError(ValueError):
    """A scalar function was evaluated outside its admissible domain."""


class DegenerateStateError(ValueError):
    """A sampled state fell into the fixed-point set (entropy denominator below floor)."""
