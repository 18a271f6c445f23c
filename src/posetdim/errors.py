"""Domain error types shared across the toolkit."""


class PosetDimError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def name(self) -> str:
        return type(self).__name__

    def payload(self) -> dict:
        """Extra machine-readable fields for CLI error reports."""
        return {}


class CycleError(PosetDimError):
    """The input relation is cyclic, so no strict partial order exists."""


class GenerationExhausted(PosetDimError):
    """Rejection sampling hit its retry limit."""


class _PairError(PosetDimError):
    """An error blamed on the pair of elements in .pair, if any (null in
    the payload when no single pair is to blame)."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair

    def payload(self):
        return {"pair": list(self.pair) if self.pair is not None else None}


class _EmbeddingError(PosetDimError):
    """An error witnessed by the standard example in .embedding."""

    def __init__(self, message, embedding):
        super().__init__(message)
        self.embedding = embedding

    def payload(self):
        return {
            "a_elems": list(self.embedding.a_elems),
            "b_elems": list(self.embedding.b_elems),
        }


class NotAnExtension(_PairError):
    """A claimed linear extension is not one; .pair holds an offending relation."""


class ComparablePairError(PosetDimError):
    """A pair that must be incomparable is comparable."""


class BudgetExceeded(PosetDimError):
    """Search budget ran out before optimality was settled.

    .best carries the best known result (a valid upper bound, flagged
    non-optimal) so callers may continue with it.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NoValidColor(_EmbeddingError):
    """Some subset has a mate at every position; .embedding witnesses the S_k."""


class AcquisitionFailed(PosetDimError):
    """Could not sample a matrix with the isolating-row property."""

    def __init__(self, message, analytic_bound):
        super().__init__(message)
        self.analytic_bound = analytic_bound

    def payload(self):
        return {"analytic_bound": self.analytic_bound}


class VerificationFailed(_PairError):
    """A constructed family missed a pair it must reverse; .pair has it."""


class NoMonochromaticSet(PosetDimError):
    """Direct search found no monochromatic subset of the requested size."""


class BoundExceeded(PosetDimError):
    """A peel step produced more extensions than its guarantee allows."""


class ContainsSk(_EmbeddingError):
    """The poset contains a standard example; .embedding is the witness."""
