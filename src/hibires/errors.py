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
    def __init__(self, p, q, op):
        self.p = p
        self.q = q
        self.op = op
        super().__init__(f"family not closed under {op} for pair ({p:#x}, {q:#x})")


class ConsistencyError(HibiresError):
    """A construction failed one of its own internal consistency checks."""


class NotAnElement(HibiresError):
    pass


class BottomElement(HibiresError):
    pass


class TooManyNeighbors(HibiresError):
    pass


class HomDegreeZero(HibiresError):
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
