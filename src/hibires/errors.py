"""Exception types shared across the package."""


class HibiresError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(HibiresError):
    pass


class NoPerfectMatching(HibiresError):
    pass


class TooLarge(HibiresError):
    pass


class NotUnmixed(HibiresError):
    pass


class LatticeValidation(HibiresError):
    pass


class MissingBottom(LatticeValidation):
    pass


class MissingTop(LatticeValidation):
    pass


class NotClosed(LatticeValidation):
    """The family lacks ``missing``, which its unions and meets generate."""

    def __init__(self, missing):
        self.missing = missing
        super().__init__(f"family generates {missing:#x} but does not contain it")


class ConsistencyError(HibiresError):
    """A construction failed one of its own internal consistency checks."""


class NotAnElement(HibiresError):
    pass


class BottomElement(HibiresError):
    pass


class TooManyNeighbors(HibiresError):
    pass


class ZeroIdeal(HibiresError):
    pass


class ClosureTooLarge(HibiresError):
    pass


class NotCM(HibiresError):
    pass


class InputFormatError(HibiresError):
    pass


class UnsupportedField(HibiresError):
    pass


class OutputError(HibiresError):
    """The --out directory or a file in it cannot be created or written."""
