"""Predictive-uncertainty scoring: average per-token NLL of the target form.

The score of an example is -1/n * sum_j log p(y_j | y_<j, X, T) in nats, with
n = |Y| + 1 (the end-of-sequence token is counted). A pool gets its scores
from one of two sources: the built-in add-k smoothed character n-gram over the
concatenated "X # T # Y" sequence (score_pool), or an external inflection
model's id<TAB>nll TSV (load_external_scores), for which the n-gram stands in.
The n-gram holds only its counts and vocabulary; NGramScorer.nlls scores a
sequence of triples, with token ids and log-prob rows that last for that one
call.
"""

from __future__ import annotations

import logging
import math
from collections import Counter, defaultdict
from operator import attrgetter
from typing import Iterable

from .corpus import Dataset, InflectionTriple
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
    symbols map to UNK; nlls returns how many did. The scorer is its order,
    k, counts and vocabulary: nlls derives all else for its one call.
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

    def train(self, gold: Dataset) -> None:
        if len(gold) == 0:
            raise MorphaugError("cannot train a scorer on an empty dataset")
        m = self.order - 1
        for t in gold:
            self.vocab.update(t.lemma, t.msd, t.form)
            seq = [BOS] * m + [*t.lemma, SEP, *t.msd, SEP, *t.form, EOS]
            for i in range(m, len(seq)):
                self.counts[tuple(seq[i - m : i])][seq[i]] += 1

    def nlls(self, triples: Iterable[InflectionTriple]) -> tuple[list[float], int, int]:
        """(the nll of each triple, the UNKs, the tokens) of the triples, in
        one pass. An nll is -(the log-probs of the form tokens and EOS,
        summed left to right from 0.0) / (len(form) + 1). At order n only
        the last n-1 lemma characters enter a context.

        Scoring reads ints, not strings. Each vocabulary token has an int id
        and the BOS padding has the id |vocab|, so a context of order-1
        tokens is one int in base |vocab|+1. Each context met gets a row of
        log-probabilities indexed by token id, built on first use from the
        counts by the add-k estimate, so row[id(tok)] equals
        math.log(oracle_prob(self, ctx, tok)) of tests/conftest.py bit for
        bit. The row reads the counts of the context's strings, in which a
        data "<s>" is BOS, as in training.
        The rows and the pre-form contexts last for this call only."""
        vocab, k, m = self.vocab, self.k, self.order - 1
        tokens = [*sorted(vocab), BOS]  # id -> token
        ids = {tok: i for i, tok in enumerate(tokens[:-1])}
        get_id, unk, eos, base = ids.__getitem__, ids[UNK], ids[EOS], len(tokens)
        mod = base ** m
        rows: dict[int, list[float]] = {}
        # (last m lemma characters, msd) -> (context of the first form token, UNKs in the msd)
        pre_form: dict[tuple, tuple[int, int]] = {}

        def new_row(ctx: int) -> list[float]:
            key, rest = [], ctx  # the tuple context, newest token first
            for _ in range(m):
                rest, i = divmod(rest, base)
                key.append(tokens[i])
            # the add-k expression, with count 0 for the unseen tokens
            counts = self.counts.get(tuple(reversed(key)), Counter())
            denom = counts.total() + k * len(vocab)
            row = rows[ctx] = [math.log(k / denom)] * len(vocab)
            for tok, count in counts.items():
                row[ids[tok]] = math.log((count + k) / denom)
            return row

        def new_pre_form(key: tuple) -> tuple[int, int]:
            tail, msd = key
            ctx = 0
            for i in [len(vocab)] * m + [ids.get(tok, unk) for tok in (*tail, SEP, *msd, SEP)]:
                ctx = (ctx * base + i) % mod
            value = pre_form[key] = (ctx, sum(tok not in ids for tok in msd))
            return value

        tail = slice(-m, None) if m else slice(0, 0)
        out, n_unk, n_tokens = [], 0, 0
        for lemma, msd, form in map(_LEMMA_MSD_FORM, triples):
            key = (lemma[tail], msd)
            ctx, unks = pre_form.get(key) or new_pre_form(key)
            if not vocab.issuperset(lemma):
                unks += sum(c not in vocab for c in lemma)
            try:
                toks = list(map(get_id, form))
            except KeyError:
                toks = [ids.get(c, unk) for c in form]
                unks += sum(c not in vocab for c in form)
            toks.append(eos)
            total = 0.0
            for tok in toks:
                total += (rows.get(ctx) or new_row(ctx))[tok]
                ctx = (ctx * base + tok) % mod
            out.append(check_nll(-total / len(toks)))
            n_unk, n_tokens = n_unk + unks, n_tokens + len(lemma) + len(msd) + len(toks) + 2
        return out, n_unk, n_tokens


_LEMMA_MSD_FORM = attrgetter("lemma", "msd", "form")


def train_ngram(gold: Dataset, order: int = 3, k: float = 0.1) -> NGramScorer:
    scorer = NGramScorer(order=order, k=k)
    scorer.train(gold)
    return scorer


def score_pool(scorer: NGramScorer, pool: Iterable[SyntheticExample]) -> list[SyntheticExample]:
    pool = list(pool)
    nlls, unk, tokens = scorer.nlls(map(attrgetter("triple"), pool))
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
