"""Exception types shared across the package."""


class ScvalError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(ScvalError):
    pass


class LinearDependence(ScvalError):
    pass


class DegenerateInput(ScvalError):
    pass


class FermiDegeneracy(ScvalError):
    pass


class NoConvergence(ScvalError):
    """SCF ran out of iterations.  Carries the best iterate seen so far,
    whose ``trace`` is that of the whole run."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class GenerationExhausted(ScvalError):
    pass


class EmptyDataset(ScvalError):
    pass


class SpeciesMismatch(ScvalError):
    pass


class InsufficientData(ScvalError):
    pass


class InvalidGeometry(ScvalError):
    pass


class FileFormatError(ScvalError):
    pass
