"""Exception types shared across the toolkit; every data error is a MorphaugError."""


class MorphaugError(Exception):
    """Base class for all toolkit errors."""


class LineError(MorphaugError, ValueError):
    """A line of an input line file that its reader refuses; a ValueError,
    as the triple's and the nll check's own errors are."""

    def __init__(self, line_no, detail):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}")


class NoStem(MorphaugError):
    """No aligned run reaches the minimum stem length; triple cannot be corrupted."""


class ZeroVariance(MorphaugError):
    def __init__(self, variable):
        self.variable = variable
        super().__init__(f"zero variance in {variable}; correlation undefined")
