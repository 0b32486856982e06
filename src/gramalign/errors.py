"""Exception types raised across the package."""


class GramAlignError(Exception):
    """Base class for all package-specific errors."""


# numerics
class ZeroVector(GramAlignError):
    pass


class DimensionMismatch(GramAlignError):
    pass


class NotNormalized(GramAlignError):
    pass


class NotSymmetric(GramAlignError):
    pass


class SingularGram(GramAlignError):
    pass


# binary file formats (GEMB1 / GCKPT1)
class FormatError(GramAlignError):
    pass


class BadMagic(FormatError):
    pass


class TruncatedFile(FormatError):
    pass


class NonFiniteValue(FormatError):
    pass


class WrongModality(FormatError):
    pass


class MissingTensor(GramAlignError):
    pass


class ConfigMismatch(GramAlignError, ValueError):
    """A resume checkpoint does not fit the requested training config."""


# data
class NonPositiveIc50(GramAlignError):
    pass


class EmptyClass(GramAlignError):
    pass


class InsufficientEntities(GramAlignError):
    pass


class UnknownId(GramAlignError):
    pass


# scheduler
class NegativeNorm(GramAlignError):
    pass


class EmptyHistory(GramAlignError):
    pass


# heads / trainer
class TapeMismatch(GramAlignError):
    pass


class ShapeMismatch(GramAlignError):
    pass


class NonFiniteLoss(GramAlignError):
    pass


class EmptyDataset(GramAlignError):
    pass


# eval
class NoRelevant(GramAlignError):
    pass


class SingleClass(GramAlignError):
    pass


class NoPositives(GramAlignError):
    pass
