"""Exception types shared across the package."""


class MrCodesError(Exception):
    """Base class for all errors raised by this package."""


# field
class NotPrime(MrCodesError):
    pass


class FieldTooLarge(MrCodesError):
    pass


class FieldMismatch(MrCodesError):
    pass


class DivisionByZero(MrCodesError, ZeroDivisionError):
    pass


# progfree
class RangeTooLarge(MrCodesError):
    pass


class ParamsTooSmall(MrCodesError):
    pass


class TooLarge(MrCodesError):
    pass


# family
class BadParams(MrCodesError, ValueError):
    """A parameter outside its allowed range."""


class BadSet(MrCodesError):
    pass


class PropertyViolation(MrCodesError):
    """A built object failed a check of what it claims, such as a code that
    fails verify_mr or a spec that is not the code rebuilt from it."""


# mrcode
class Mismatch(MrCodesError):
    pass


class LengthMismatch(MrCodesError):
    pass


class NotInGroup(MrCodesError):
    pass


class MultipleErasuresInGroup(MrCodesError):
    pass


class NotCorrectable(MrCodesError):
    pass


class Inconsistent(MrCodesError):
    pass


class BadSymbol(MrCodesError):
    """A codec symbol that is not an int in [0, q)."""


# pipeline / cli
class FieldTooSmall(MrCodesError):
    pass


class TargetUnreachable(MrCodesError):
    pass


class ParseError(MrCodesError):
    """Bad input text; line and column are None when it did not come from a
    stream position (a command-line flag)."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message if line is None else f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
