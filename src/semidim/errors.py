"""Exception hierarchy with stable error names for CLI exit reporting."""


class SemidimError(Exception):
    """Base class; ``name`` is the stable identifier printed by the CLI."""

    @property
    def name(self) -> str:
        return type(self).__name__


class NotSquare(SemidimError):
    pass


class ScalingConstantOutOfRange(SemidimError):
    pass


class EigenvalueRealPartTooSmall(SemidimError):
    def __init__(self, eigenvalue):
        self.eigenvalue = eigenvalue
        super().__init__(
            f"eigenvalue {eigenvalue} has real part {eigenvalue.real:.12g} < 0.5"
        )


class IllConditionedBasis(SemidimError):
    pass


class DegenerateGrid(SemidimError):
    pass


class InvalidInputs(SemidimError):
    pass


class AlphaOutOfRange(SemidimError):
    pass


class TruncationTooCoarse(SemidimError):
    pass


class BlockLawMismatch(SemidimError):
    pass


class EnsembleTooSmall(SemidimError):
    pass


class ResolutionTooCoarse(SemidimError):
    pass


class EmptyRestriction(SemidimError):
    pass


class ScheduleMismatch(SemidimError):
    pass


class RadiiOutOfRange(SemidimError):
    pass


class DegenerateSample(SemidimError):
    pass


class NonMonotoneCounts(SemidimError):
    pass


class BudgetExceeded(SemidimError):
    pass
