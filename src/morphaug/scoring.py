"""Predictive-uncertainty scoring: average per-token NLL of the target form.

The score of an example is -1/n * sum_j log p(y_j | y_<j, X, T) in nats, with
n = |Y| + 1 (the end-of-sequence token is counted). A pool gets its scores
from one of two sources: the built-in add-k smoothed character n-gram over the
concatenated "X # T # Y" sequence (score_pool), or an external inflection
model's id<TAB>nll TSV (load_external_scores), for which the n-gram stands in.
"""

from __future__ import annotations

import logging
import math
from collections import Counter, defaultdict
from functools import reduce
from operator import add, attrgetter
from typing import Iterable, Iterator

from .corpus import Dataset
from .corruption import SyntheticExample
from .errors import LineError, MorphaugError
from .util import lines

log = logging.getLogger(__name__)

BOS = "<s>"
EOS = "</s>"
SEP = "#"
UNK = "<unk>"


def check_nll(nll: float) -> float:
    """nll, if it is finite and >= 0; a ValueError otherwise."""
    if not 0.0 <= nll < math.inf:
        raise ValueError(f"nll must be finite and >= 0, got {nll}")
    return nll


class NGramScorer:
    """Add-k smoothed character n-gram over "X # T # Y" sequences.

    Unseen contexts fall back to the uniform distribution over the prediction
    vocabulary (the add-k estimate with zero counts). Out-of-vocabulary
    symbols map to UNK; nlls returns how many did.

    Scoring reads ints, not strings. Each vocabulary token has an int id and
    the BOS padding has the id |vocab|, so a context of order-1 tokens is one
    int in base |vocab|+1. Each context met while scoring gets a row of
    log-probabilities indexed by token id, built on first use from the count
    tables with prob's expression, so row[id(tok)] equals
    math.log(prob(ctx, tok)) bit for bit. The row reads the counts of the
    context's strings, in which a data "<s>" is BOS, as it is in training.
    train renumbers the tokens and drops the rows.
    """

    def __init__(self, order: int = 3, k: float = 0.1):
        if not isinstance(order, int) or order < 1:
            raise ValueError(f"order must be an integer >= 1, got {order!r}")
        if not 0 < k < math.inf:
            raise ValueError(f"k must be > 0 and finite, got {k}")
        self.order = order
        self.k = k
        self.counts: dict[tuple, Counter] = defaultdict(Counter)
        self.vocab: set[str] = {SEP, EOS, UNK}
        self._renumber()

    def train(self, gold: Dataset) -> None:
        if len(gold) == 0:
            raise MorphaugError("cannot train a scorer on an empty dataset")
        for t in gold:
            self.vocab.update(t.lemma)
            self.vocab.update(t.form)
            self.vocab.update(t.msd)
        for t in gold:
            seq = [BOS] * (self.order - 1) + [*t.lemma, SEP, *t.msd, SEP, *t.form, EOS]
            for i in range(self.order - 1, len(seq)):
                ctx = tuple(seq[i - self.order + 1 : i])
                self.counts[ctx][seq[i]] += 1
        self._renumber()

    def _renumber(self) -> None:
        """Token ids for the current vocabulary; no rows or pre-form contexts yet."""
        self._tokens = [*sorted(self.vocab), BOS]  # id -> token
        self._ids = {tok: i for i, tok in enumerate(self._tokens[:-1])}
        self._base = len(self._tokens)
        self._rows: dict[int, list[float]] = {}
        # (last order-1 lemma chars, msd) -> (context of the first form token, UNKs in the msd)
        self._pre_form: dict[tuple, tuple[int, int]] = {}

    def prob(self, ctx: tuple, tok: str) -> float:
        c = self.counts.get(ctx, Counter())
        return (c[tok] + self.k) / (c.total() + self.k * len(self.vocab))

    def _new_row(self, ctx: int) -> list[float]:
        key = []  # the tuple context, newest token first
        rest = ctx
        for _ in range(self.order - 1):
            rest, i = divmod(rest, self._base)
            key.append(self._tokens[i])
        key = tuple(reversed(key))
        # the expression of prob, with count 0 for the unseen tokens
        counts = self.counts.get(key, Counter())
        denom = counts.total() + self.k * len(self.vocab)
        row = self._rows[ctx] = [math.log(self.k / denom)] * len(self.vocab)
        for tok, count in counts.items():
            row[self._ids[tok]] = math.log((count + self.k) / denom)
        return row

    def _new_pre_form(self, key: tuple) -> tuple[int, int]:
        tail, msd = key
        ids, unk, bos = self._ids, self._ids[UNK], len(self.vocab)
        base, mod = self._base, self._base ** (self.order - 1)
        ctx = 0
        for i in [bos] * (self.order - 1) + [ids.get(tok, unk) for tok in (*tail, SEP, *msd, SEP)]:
            ctx = (ctx * base + i) % mod
        value = self._pre_form[key] = (ctx, sum(tok not in ids for tok in msd))
        return value

    def _logprob_lists(self, examples: Iterable[tuple]) -> Iterator[tuple[list[float], int, int]]:
        """For each (lemma, msd, form), the log-probs of the form tokens and
        EOS in position order, with the example's UNKs and tokens. At order n
        only the last n-1 lemma characters enter a context."""
        vocab, ids, rows, pre_form = self.vocab, self._ids, self._rows, self._pre_form
        new_row, new_pre_form = self._new_row, self._new_pre_form
        get_id, unk, eos = ids.__getitem__, ids[UNK], ids[EOS]
        base, mod = self._base, self._base ** (self.order - 1)
        m = self.order - 1
        tail = slice(-m, None) if m else slice(0, 0)
        for lemma, msd, form in examples:
            key = (lemma[tail], msd)
            ctx, n_unk = pre_form.get(key) or new_pre_form(key)
            if not vocab.issuperset(lemma):
                n_unk += sum(c not in vocab for c in lemma)
            try:
                toks = list(map(get_id, form))
            except KeyError:
                toks = [ids.get(c, unk) for c in form]
                n_unk += sum(c not in vocab for c in form)
            toks.append(eos)
            lps = []
            for tok in toks:
                lps.append((rows.get(ctx) or new_row(ctx))[tok])
                ctx = (ctx * base + tok) % mod
            yield lps, n_unk, len(lemma) + len(msd) + len(toks) + 2

    def logprobs(self, lemma, msd, form):
        """Per-token log-probabilities of the form plus EOS (length |form|+1)."""
        return next(self._logprob_lists([(lemma, msd, form)]))[0]

    def nlls(self, pool: Iterable[SyntheticExample]) -> tuple[list[float], int, int]:
        """(the nll of each example, the UNKs, the tokens) of the pool, in
        one pass. An nll is -(its logprobs summed left to right) /
        (len(form) + 1). Python 3.12's sum() of floats rounds otherwise, so
        reduce(add) keeps the bytes the same on every version."""
        out, unk, tokens = [], 0, 0
        for lps, n_unk, n_tokens in self._logprob_lists(map(_LEMMA_MSD_FORM, pool)):
            out.append(check_nll(-reduce(add, lps, 0.0) / len(lps)))
            unk, tokens = unk + n_unk, tokens + n_tokens
        return out, unk, tokens


_LEMMA_MSD_FORM = attrgetter("triple.lemma", "triple.msd", "triple.form")


def train_ngram(gold: Dataset, order: int = 3, k: float = 0.1) -> NGramScorer:
    scorer = NGramScorer(order=order, k=k)
    scorer.train(gold)
    return scorer


def score_pool(scorer: NGramScorer, pool: Iterable[SyntheticExample]) -> list[SyntheticExample]:
    pool = list(pool)
    nlls, unk, tokens = scorer.nlls(pool)
    if unk:
        log.info("UNK mapping rate: %.4f", unk / tokens)
    return list(map(SyntheticExample.with_score, pool, nlls))


def require_scored(pool: Iterable[SyntheticExample]) -> list[SyntheticExample]:
    pool = list(pool)
    unscored = [e.id for e in pool if e.score is None]
    if unscored:
        raise MorphaugError(f"{len(unscored)} pool examples have no score")
    return pool


def load_external_scores(text: str, pool: list[SyntheticExample]) -> list[SyntheticExample]:
    """The pool with the scores of an "id<TAB>nll" TSV, whose lines are
    util.lines; every pool id must appear exactly once."""
    pool_ids = {e.id for e in pool}
    scores: dict[str, float] = {}
    for line_no, line in lines(text):
        parts = line.split("\t")
        if len(parts) != 2:
            raise LineError(line_no, f"expected id<TAB>nll, got {line!r}")
        example_id, raw = parts
        try:
            nll = float(raw)
        except ValueError:
            raise LineError(line_no, f"non-numeric score {raw!r}") from None
        if example_id not in pool_ids:
            raise LineError(line_no, f"id {example_id!r} not in pool")
        if example_id in scores:
            raise LineError(line_no, f"duplicate id {example_id!r}")
        try:
            scores[example_id] = check_nll(nll)
        except ValueError as e:
            raise LineError(line_no, e) from None
    missing = pool_ids - scores.keys()
    if missing:
        ids = sorted(missing)
        raise MorphaugError(f"score file missing ids: {', '.join(ids[:5])}"
                            + ("..." if len(ids) > 5 else ""))
    return [e.with_score(scores[e.id]) for e in pool]


def write_scores_tsv(pool: Iterable[SyntheticExample]) -> str:
    return "".join(f"{e.id}\t{e.score!r}\n" for e in require_scored(pool))
