"""Exception hierarchy shared by all modules.

DomainError covers bad input (CLI exit code 1), LimitExceeded guards the
enumeration size limits (exit code 2), and InternalInvariantError marks
conditions the library proves unreachable (exit code 3).
"""


class WeightscapeError(Exception):
    pass


class DomainError(WeightscapeError):
    """Invalid input or a violated operation precondition."""


class WeightOutOfRange(DomainError):
    def __init__(self, index, value, message=None):
        self.index = index
        self.value = value
        super().__init__(message or f"weight a_{index} = {value} out of range")


class DegreeNotPositive(DomainError):
    pass


class BoundarySumMismatch(DomainError):
    pass


class OnWall(DomainError):
    pass


class NotAStable(DomainError):
    pass


class WeightsNotDominated(DomainError):
    pass


class ResidualDegreeNotPositive(DomainError):
    pass


class UnequalWeightsInBlock(DomainError):
    pass


class DomainViolation(DomainError):
    pass


class AtypicalLinearization(DomainError):
    pass


class LimitExceeded(WeightscapeError):
    """Enumeration refused because n exceeds the configured limit."""


class InternalInvariantError(WeightscapeError):
    """A condition the library guarantees never happens did happen."""


class NonterminatingContraction(InternalInvariantError):
    pass
