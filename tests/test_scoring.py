import math
import random
from collections import defaultdict
from functools import reduce
from operator import add

import pytest

from morphaug.corpus import Alphabet, parse_unimorph
from morphaug.corruption import CorruptionConfig, SyntheticExample, generate_pool
from morphaug.corpus import InflectionTriple
from morphaug.errors import LineError, MorphaugError
from morphaug.scoring import (
    BOS,
    EOS,
    SEP,
    NGramScorer,
    load_external_scores,
    require_scored,
    score_pool,
    train_ngram,
    write_scores_tsv,
)

from conftest import make_dataset, oracle_logprobs, oracle_prob


def _syn(tid, lemma, form, msd=("N",), lev=0, score_=None):
    return SyntheticExample(
        triple=InflectionTriple(id=tid, lemma=lemma, form=form, msd=msd),
        source_id="g1",
        substituted_lemma_positions=(),
        substituted_form_positions=(),
        lev_to_gold_target=lev,
        score=score_,
    )


def _nll(scorer, e):
    [scored] = score_pool(scorer, [e])
    return scored.score


def test_unigram_add_k_matches_hand_computation():
    # one triple: lemma "ab", form "abc", msd N
    # token stream: a b # N # a b c EOS -> 9 tokens, all under the empty context
    # vocab: {a, b, c, N, #, EOS, UNK} -> 7 symbols
    gold = make_dataset([("ab", "abc", "N")])
    scorer = train_ngram(gold, order=1, k=0.1)
    assert len(scorer.vocab) == 7
    assert oracle_prob(scorer, (), "a") == pytest.approx((2 + 0.1) / (9 + 0.1 * 7), abs=1e-12)
    assert oracle_prob(scorer, (), "c") == pytest.approx((1 + 0.1) / (9 + 0.1 * 7), abs=1e-12)
    assert oracle_prob(scorer, (), EOS) == pytest.approx((1 + 0.1) / (9 + 0.1 * 7), abs=1e-12)


def test_huge_k_approaches_uniform():
    gold = make_dataset([("ab", "abc", "N")])
    scorer = train_ngram(gold, order=2, k=1e9)
    v = len(scorer.vocab)
    for tok in ("a", "b", "c", EOS):
        assert oracle_prob(scorer, ("a",), tok) == pytest.approx(1 / v, rel=1e-6)


def test_tiny_k_makes_deterministic_continuation_near_certain():
    # in "aaab", context (a, a) always continues with a or b; pick an order-2
    # corpus with a single continuation per context
    gold = make_dataset([("aa", "aab", "N")] * 3)
    scorer = train_ngram(gold, order=3, k=0.0001)
    # context (BOS, a) is always followed by a
    assert oracle_prob(scorer, (BOS, "a"), "a") > 0.99


def test_conditionals_sum_to_one():
    gold = make_dataset([("walk", "walked", "V;PST"), ("talk", "talked", "V;PST")])
    scorer = train_ngram(gold, order=3, k=0.1)
    for ctx in list(scorer.counts)[:10] + [("q", "q")]:
        total = sum(oracle_prob(scorer, ctx, tok) for tok in scorer.vocab)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(0 < oracle_prob(scorer, ctx, tok) <= 1 for tok in scorer.vocab)


def _oracle_trigram_nll(gold_rows, lemma, msd, form, k):
    """Independent chain-rule computation with separately built counts."""
    vocab = {SEP, EOS, "<unk>"}
    streams = []
    for l, f, m in gold_rows:
        vocab.update(l, f, m.split(";"))
        streams.append([BOS, BOS] + list(l) + [SEP] + m.split(";") + [SEP] + list(f) + [EOS])
    counts = defaultdict(int)
    ctx_totals = defaultdict(int)
    for s in streams:
        for w1, w2, w3 in zip(s, s[1:], s[2:]):
            counts[(w1, w2, w3)] += 1
            ctx_totals[(w1, w2)] += 1
    seq = [BOS, BOS] + list(lemma) + [SEP] + list(msd) + [SEP] + list(form) + [EOS]
    nll = 0.0
    for pos in range(len(seq) - (len(form) + 1), len(seq)):
        c = (seq[pos - 2], seq[pos - 1], seq[pos])
        p = (counts[c] + k) / (ctx_totals[c[:2]] + k * len(vocab))
        nll -= math.log(p)
    return nll / (len(form) + 1)


def test_trigram_matches_chain_rule_oracle():
    rows = [("walk", "walked", "V;PST"),
            ("talk", "talked", "V;PST"),
            ("walk", "walks", "V;PRS")]
    gold = make_dataset(rows)
    scorer = train_ngram(gold, order=3, k=0.1)
    for lemma, form, msd in [("walk", "walked", ("V", "PST")),
                             ("xalk", "xalked", ("V", "PST")),
                             ("talk", "talks", ("V", "PRS"))]:
        e = _syn("e1", lemma, form, msd)
        expected = _oracle_trigram_nll(rows, lemma, msd, form, 0.1)
        assert _nll(scorer, e) == pytest.approx(expected, abs=1e-9)


def test_unknown_characters_map_to_unk():
    gold = make_dataset([("walk", "walked", "V;PST")])
    scorer = train_ngram(gold, order=2, k=0.1)
    e = _syn("e1", "wQlk", "wQlked", ("V", "PST"))
    nll = _nll(scorer, e)
    assert math.isfinite(nll) and nll > 0
    _, unk, tokens = scorer.nlls([e.triple])
    assert 0 < unk <= tokens


def test_nlls_score_the_triples_of_a_gold_dataset():
    # no pool needed: a Dataset is triples, and Q is not in the vocabulary
    rows = [("walk", "walked", "V;PST"), ("talk", "talks", "V;PRS"), ("wQlk", "wQlked", "V;PST")]
    scorer = train_ngram(make_dataset(rows[:2]), order=3, k=0.1)
    gold = make_dataset(rows)
    want, want_tokens, want_unk = [], 0, 0
    for t in gold:
        lps, n_tok, n_unk = oracle_logprobs(scorer, t.lemma, t.msd, t.form)
        want.append(-reduce(add, lps, 0.0) / (len(t.form) + 1))
        want_tokens, want_unk = want_tokens + n_tok, want_unk + n_unk
    got, unk, tokens = scorer.nlls(gold)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert (tokens, unk) == (want_tokens, want_unk) and unk == 2


def test_score_deterministic():
    gold = make_dataset([("walk", "walked", "V;PST")])
    scorer = train_ngram(gold, order=3, k=0.1)
    e = _syn("e1", "walk", "walked", ("V", "PST"))
    assert _nll(scorer, e) == _nll(scorer, e)


def test_corrupted_examples_score_higher_on_average():
    rng = random.Random(0)
    rows = []
    for i in range(30):
        stem = "".join(rng.choice("abcdefgh") for _ in range(5))
        rows.append((stem, stem + "ing", "V;PRS"))
    gold = make_dataset(rows)
    alphabet = Alphabet(chars=tuple("abcdefgh"))
    scorer = train_ngram(gold, order=3, k=0.1)
    clean = score_pool(scorer, generate_pool(gold, 500, alphabet,
                                             CorruptionConfig(theta=0.0, seed=1)))
    heavy = score_pool(scorer, generate_pool(gold, 500, alphabet,
                                             CorruptionConfig(theta=1.0, seed=2)))
    heavy_mean = sum(e.score for e in heavy if e.lev_to_gold_target >= 3) / \
        max(1, sum(1 for e in heavy if e.lev_to_gold_target >= 3))
    clean_mean = sum(e.score for e in clean) / len(clean)
    assert heavy_mean > clean_mean


@pytest.mark.parametrize("order, k, message", [
    (0, 0.1, "^order must be an integer >= 1, got 0$"),
    (3, 0, "^k must be > 0 and finite, got 0$"),
])
def test_scorer_rejects_an_order_below_one_and_a_k_of_zero(order, k, message):
    with pytest.raises(ValueError, match=message):
        NGramScorer(order=order, k=k)


def test_train_on_empty_dataset():
    with pytest.raises(MorphaugError, match="^cannot train a scorer on an empty dataset$"):
        train_ngram(make_dataset([]))


def test_load_external_scores_roundtrip():
    pool = [_syn("a", "x", "y"), _syn("b", "x", "y")]
    scored = load_external_scores("a\t1.5\nb\t0.25\n", pool)
    assert [e.score for e in scored] == [1.5, 0.25]
    assert [e.id for e in scored] == ["a", "b"] and [e.score for e in pool] == [None, None]
    text = write_scores_tsv(scored)
    again = load_external_scores(text, pool)
    assert [e.score for e in again] == [1.5, 0.25]


def test_load_external_scores_errors():
    pool = [_syn("a", "x", "y"), _syn("b", "x", "y")]
    with pytest.raises(MorphaugError, match="^score file missing ids: b$"):
        load_external_scores("a\t1.0\n", pool)
    with pytest.raises(LineError, match="^line 2: duplicate id 'a'$"):
        load_external_scores("a\t1.0\na\t2.0\nb\t1.0\n", pool)
    with pytest.raises(LineError, match="^line 1: non-numeric score 'abc'$"):
        load_external_scores("a\tabc\nb\t1.0\n", pool)
    # a line of one field or of three is no id<TAB>nll line
    with pytest.raises(LineError, match="^line 1: expected id<TAB>nll, got 'a'$"):
        load_external_scores("a\nb\t1.0\n", pool)
    with pytest.raises(LineError, match=r"^line 1: expected id<TAB>nll, got 'a\\t1\.0\\tx'$"):
        load_external_scores("a\t1.0\tx\nb\t1.0\n", pool)
    with pytest.raises(LineError, match="^line 1: id 'zzz' not in pool$"):
        load_external_scores("zzz\t1.0\n", pool)
    # every nll passes check_nll, after the id checks
    for bad in ("-0.5", "inf", "nan"):
        with pytest.raises(LineError, match="finite and >= 0"):
            load_external_scores(f"a\t{bad}\nb\t1.0\n", pool)
    with pytest.raises(LineError, match="^line 2: duplicate id 'a'$"):
        load_external_scores("a\t1.0\na\t-1.0\nb\t1.0\n", pool)


def test_load_external_scores_splits_lines_at_newline_only():
    pool = [_syn("a\u2028b", "x", "y"), _syn("c\x85", "x", "y"), _syn("d", "x", "y")]
    scored = load_external_scores("a\u2028b\t1.5\r\nc\x85\t0.25\nd\t2\n", pool)
    assert [e.score for e in scored] == [1.5, 0.25, 2.0]
    assert [e.score for e in load_external_scores(write_scores_tsv(scored), pool)] == \
        [1.5, 0.25, 2.0]


def test_require_scored():
    with pytest.raises(MorphaugError, match="^1 pool examples have no score$"):
        require_scored([_syn("a", "x", "y")])
