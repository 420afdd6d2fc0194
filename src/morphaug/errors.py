"""Exception types shared across the toolkit; every data error is a MorphaugError."""


class MorphaugError(Exception):
    """Base class for all toolkit errors."""


class LineError(MorphaugError):
    """A line of an input line file that its reader refuses: a data error
    naming the line."""

    def __init__(self, line_no, detail):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}")
