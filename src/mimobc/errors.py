"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input outside the domain of a computation; the CLI exits 2 on it."""


class DimensionMismatchError(DomainError):
    """Operands have incompatible matrix/vector dimensions."""


class NotPsdError(DomainError):
    """A matrix required to be positive semidefinite is not."""


class SingularMatrixError(DomainError):
    """A matrix required to be positive definite is singular or indefinite."""


class LoewnerOrderError(DomainError):
    """A required Loewner ordering between two matrices does not hold."""


class InadmissibleSourceError(DomainError):
    """Input distribution violates the covariance cap of the channel."""


class InputFormatError(DomainError):
    """Malformed JSON input or invalid field values."""


class NumericalError(RuntimeError):
    """A numerical routine diverged or produced non-finite values."""
