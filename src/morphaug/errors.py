"""Exception types shared across the toolkit."""

import reprlib


class MorphaugError(Exception):
    """Base class for all toolkit errors."""


class MalformedLine(MorphaugError):
    def __init__(self, line_no, detail=""):
        self.line_no = line_no
        super().__init__(f"line {line_no}: expected 3 tab-separated fields{': ' + detail if detail else ''}")


class EmptyField(MorphaugError):
    def __init__(self, line_no, field):
        self.line_no = line_no
        self.field = field
        super().__init__(f"line {line_no}: empty {field}")


class EmptyDataset(MorphaugError):
    pass


class EmptyInput(MorphaugError):
    pass


class NoStem(MorphaugError):
    """No aligned run reaches the minimum stem length; triple cannot be corrupted."""


class AlphabetTooSmall(MorphaugError):
    pass


class NoAlignableTriples(MorphaugError):
    pass


class MissingSegmentation(MorphaugError):
    def __init__(self, source_id):
        self.source_id = source_id
        super().__init__(f"source id {source_id!r} of the pool has no segmented gold triple")


class SourceMismatch(MorphaugError):
    def __init__(self, example_id, source_id):
        super().__init__(f"pool example {example_id!r} is not a stem corruption of gold "
                         f"triple {source_id!r}; is --gold the file the pool was made from?")


class KTooLarge(MorphaugError):
    def __init__(self, k, pool_size):
        super().__init__(f"requested k={k} exceeds pool size {pool_size}")


class UnscoredPool(MorphaugError):
    pass


class MissingId(MorphaugError):
    def __init__(self, ids):
        self.ids = sorted(ids)
        super().__init__(f"score file missing ids: {', '.join(self.ids[:5])}"
                         + ("..." if len(self.ids) > 5 else ""))


class DuplicateId(MorphaugError):
    def __init__(self, example_id, line_no):
        super().__init__(f"line {line_no}: duplicate id {example_id!r}")


class UnknownId(MorphaugError):
    def __init__(self, example_id, line_no):
        super().__init__(f"line {line_no}: id {example_id!r} not in pool")


class MissingKey(MorphaugError):
    def __init__(self, line_no, key):
        super().__init__(f"line {line_no}: missing key {key!r}")


class NotAnObject(MorphaugError):
    def __init__(self, line_no, kind):
        super().__init__(f"line {line_no}: expected a JSON object, got {kind}")


class NotJson(MorphaugError):
    def __init__(self, line_no, err):
        where = f", column {err.colno}: {err.msg}" if hasattr(err, "colno") else f": {err}"
        super().__init__(f"line {line_no}: not valid JSON{where}")


class BadValue(MorphaugError):
    def __init__(self, line_no, key, expected, value):
        super().__init__(f"line {line_no}: {key!r} must be {expected}, got {reprlib.repr(value)}")


class BadLine(MorphaugError, ValueError):
    """An input line's value that its constructor or check rejects (a pool
    line's triple, a score line's nll); a ValueError, as their own error is."""

    def __init__(self, line_no, err):
        super().__init__(f"line {line_no}: {err}")


class NonNumericScore(MorphaugError):
    def __init__(self, line_no, value):
        super().__init__(f"line {line_no}: non-numeric score {value!r}")


class ZeroVariance(MorphaugError):
    def __init__(self, variable):
        self.variable = variable
        super().__init__(f"zero variance in {variable}; correlation undefined")


class EmptySelection(MorphaugError):
    pass


class NoVowelsConfigured(MorphaugError):
    pass


class TooFewSamples(MorphaugError):
    pass
