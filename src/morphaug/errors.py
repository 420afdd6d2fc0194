"""Exception types shared across the toolkit."""


class MorphaugError(Exception):
    """Base class for all toolkit errors."""


class LineError(MorphaugError, ValueError):
    """A line of an input line file that its reader refuses; a ValueError,
    as the triple's and the nll check's own errors are."""

    def __init__(self, line_no, detail):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}")


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
