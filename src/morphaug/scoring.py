"""Predictive-uncertainty scoring: average per-token NLL of the target form.

The score of an example is -1/n * sum_j log p(y_j | y_<j, X, T) in nats, with
n = |Y| + 1 (the end-of-sequence token is counted). Any object exposing
logprobs(lemma, msd, form) can act as a scorer; the built-in scorer is an
add-k smoothed character n-gram over the concatenated "X # T # Y" sequence,
standing in for an external inflection model whose scores can be loaded from
a TSV instead.
"""

from __future__ import annotations

import logging
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Protocol

from .corpus import Dataset
from .corruption import SyntheticExample
from .errors import (
    DuplicateId,
    EmptyDataset,
    MissingId,
    NonNumericScore,
    UnknownId,
    UnscoredPool,
)

log = logging.getLogger(__name__)

BOS = "<s>"
EOS = "</s>"
SEP = "#"
UNK = "<unk>"


@dataclass(frozen=True)
class UncertaintyScore:
    example_id: str
    nll: float

    def __post_init__(self):
        if not math.isfinite(self.nll) or self.nll < 0:
            raise ValueError(f"nll must be finite and >= 0, got {self.nll}")


class Scorer(Protocol):
    def logprobs(self, lemma: str, msd: tuple[str, ...], form: str) -> list[float]:
        """Per-token log-probabilities for the form plus EOS (length |form|+1)."""
        ...


class UniformScorer:
    """Assigns 1/vocab_size to every continuation; nll is log(vocab_size)."""

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size

    def logprobs(self, lemma, msd, form):
        lp = -math.log(self.vocab_size)
        return [lp] * (len(form) + 1)


class NGramScorer:
    """Add-k smoothed character n-gram over "X # T # Y" sequences.

    Unseen contexts fall back to the uniform distribution over the prediction
    vocabulary (the add-k estimate with zero counts). Out-of-vocabulary
    symbols map to UNK; the mapping rate is logged. logprobs reads a log
    table per context, built on first use from prob, so its values equal
    math.log(prob(ctx, tok)) bit for bit.
    """

    def __init__(self, order: int = 3, k: float = 0.1):
        if order < 1:
            raise ValueError("order must be >= 1")
        if k <= 0:
            raise ValueError("k must be > 0")
        self.order = order
        self.k = k
        self.counts: dict[tuple, Counter] = defaultdict(Counter)
        self.context_totals: dict[tuple, int] = defaultdict(int)
        self.vocab: set[str] = {SEP, EOS, UNK}
        self.unk_hits = 0
        self.token_hits = 0
        # ctx -> ({tok: log prob} for the tokens seen after ctx, log prob of any other)
        self._log_tables: dict[tuple, tuple[dict[str, float], float]] = {}

    def train(self, gold: Dataset) -> None:
        if len(gold) == 0:
            raise EmptyDataset("cannot train a scorer on an empty dataset")
        self._log_tables.clear()
        for t in gold:
            self.vocab.update(t.lemma)
            self.vocab.update(t.form)
            self.vocab.update(t.msd)
        for t in gold:
            seq = [BOS] * (self.order - 1) + [*t.lemma, SEP, *t.msd, SEP, *t.form, EOS]
            for i in range(self.order - 1, len(seq)):
                ctx = tuple(seq[i - self.order + 1 : i])
                self.counts[ctx][seq[i]] += 1
                self.context_totals[ctx] += 1

    def prob(self, ctx: tuple, tok: str) -> float:
        c = self.counts.get(ctx, None)
        count = c[tok] if c is not None else 0
        total = self.context_totals.get(ctx, 0)
        return (count + self.k) / (total + self.k * len(self.vocab))

    def _new_log_table(self, ctx: tuple) -> tuple[dict[str, float], float]:
        # the expression of prob, with count 0 for the unseen tokens
        denom = self.context_totals.get(ctx, 0) + self.k * len(self.vocab)
        seen = self.counts.get(ctx, {})
        table = self._log_tables[ctx] = (
            {tok: math.log((count + self.k) / denom) for tok, count in seen.items()},
            math.log(self.k / denom),
        )
        return table

    def logprobs(self, lemma, msd, form):
        vocab = self.vocab
        toks = [*lemma, SEP, *msd, SEP, *form, EOS]
        self.token_hits += len(toks)
        if not vocab.issuperset(toks):
            self.unk_hits += sum(tok not in vocab for tok in toks)
            toks = [tok if tok in vocab else UNK for tok in toks]
        order = self.order
        seq = [BOS] * (order - 1) + toks
        # the form tokens and EOS are scored; the context of seq[i] is
        # seq[i-order+1:i], built for those positions only by zipping order-1
        # shifted slices (at order 1 every context is ())
        n = len(form) + 1
        start, end = len(seq) - n, len(seq)
        ctxs = (zip(*(seq[start - j : end - j] for j in range(order - 1, 0, -1)))
                if order > 1 else repeat((), n))
        tables = self._log_tables
        out = []
        for ctx, tok in zip(ctxs, seq[start:]):
            logp, unseen = tables.get(ctx) or self._new_log_table(ctx)
            out.append(logp.get(tok, unseen))
        return out

    @property
    def unk_rate(self) -> float:
        return self.unk_hits / self.token_hits if self.token_hits else 0.0


def train_ngram(gold: Dataset, order: int = 3, k: float = 0.1) -> NGramScorer:
    scorer = NGramScorer(order=order, k=k)
    scorer.train(gold)
    return scorer


def score(scorer: Scorer, e: SyntheticExample) -> UncertaintyScore:
    lps = scorer.logprobs(e.triple.lemma, e.triple.msd, e.triple.form)
    n = len(e.triple.form) + 1
    if len(lps) != n:
        raise ValueError(f"scorer returned {len(lps)} log-probs, expected {n}")
    return UncertaintyScore(example_id=e.id, nll=-sum(lps) / n)


def score_pool(scorer: Scorer, pool: Iterable[SyntheticExample]) -> list[SyntheticExample]:
    out = [e.with_score(score(scorer, e).nll) for e in pool]
    if isinstance(scorer, NGramScorer) and scorer.unk_hits:
        log.info("UNK mapping rate: %.4f", scorer.unk_rate)
    return out


def require_scored(pool: Iterable[SyntheticExample]) -> list[SyntheticExample]:
    pool = list(pool)
    unscored = [e.id for e in pool if e.score is None]
    if unscored:
        raise UnscoredPool(f"{len(unscored)} pool examples have no score")
    return pool


def load_external_scores(text: str, pool: list[SyntheticExample]) -> dict[str, UncertaintyScore]:
    """Parse an "id<TAB>nll" TSV and attach scores; every pool id must appear
    exactly once."""
    pool_ids = {e.id for e in pool}
    scores: dict[str, UncertaintyScore] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise NonNumericScore(line_no, line)
        example_id, raw = parts
        try:
            nll = float(raw)
        except ValueError:
            raise NonNumericScore(line_no, raw) from None
        if example_id not in pool_ids:
            raise UnknownId(example_id, line_no)
        if example_id in scores:
            raise DuplicateId(example_id, line_no)
        scores[example_id] = UncertaintyScore(example_id=example_id, nll=nll)
    missing = pool_ids - scores.keys()
    if missing:
        raise MissingId(missing)
    return scores


def apply_scores(pool: list[SyntheticExample],
                 scores: dict[str, UncertaintyScore]) -> list[SyntheticExample]:
    return [e.with_score(scores[e.id].nll) for e in pool]


def write_scores_tsv(pool: Iterable[SyntheticExample]) -> str:
    return "".join(f"{e.id}\t{e.score!r}\n" for e in require_scored(pool))
