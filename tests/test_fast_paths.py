"""Each fast path against the simple oracle it replaced (tests/conftest.py):
the same results, and for corruption the same random draws."""

import random

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from morphaug.alignment import align, extract_stem, levenshtein, segmentation_from_boundary
from morphaug.corpus import Alphabet, InflectionTriple
from morphaug.corruption import CorruptionConfig, corrupt
from morphaug.errors import AlphabetTooSmall, NoStem
from morphaug.scoring import NGramScorer

from conftest import make_dataset, oracle_align, oracle_corrupt, oracle_levenshtein, oracle_logprobs

# plain letters plus combining marks (NFD acute, diaeresis), one code point each
SMALL = st.sampled_from(["a", "b", "c", "e", "\u0301", "\u0308"])
LONG_A = "ab\u0301c" * 20 + "x"
LONG_B = "a\u0301bc" * 17 + "yy" + "ab" * 30


@settings(max_examples=300, deadline=None)
@given(st.text(SMALL, max_size=90), st.text(SMALL, max_size=90))
@example("", "")
@example("", "abc")
@example("abc", "")
@example("a" * 64, "a" * 65)
@example("a" * 64 + "b", "b" + "a" * 64)
@example(LONG_A, LONG_B)
@example("e\u0301", "\u0301e")
def test_levenshtein_matches_oracle(a, b):
    assert levenshtein(a, b) == levenshtein(b, a) == oracle_levenshtein(a, b)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=20), st.text(max_size=20))
def test_levenshtein_matches_oracle_any_code_points(a, b):
    assert levenshtein(a, b) == oracle_levenshtein(a, b)


@settings(max_examples=300, deadline=None)
@given(st.text(SMALL, min_size=1, max_size=16), st.text(SMALL, min_size=1, max_size=16))
@example("dog", "dogs")
@example("aaa", "aa")
@example("ab", "ba")
@example("walking", "walked")
def test_align_matches_oracle(lemma, form):
    fast, slow = align(lemma, form), oracle_align(lemma, form)
    assert fast.pairs == slow.pairs
    assert fast.cost == slow.cost



@st.composite
def corruption_cases(draw):
    # stems may use x, y and a combining mark, which no alphabet contains
    stem = draw(st.text(st.sampled_from("abcdefghxy\u0301"), min_size=1, max_size=10))
    lemma = stem + draw(st.text(st.sampled_from("abz"), max_size=3))
    form = draw(st.text(st.sampled_from("ab"), max_size=2)) + stem + draw(
        st.text(st.sampled_from("abq"), max_size=4))
    try:
        seg = extract_stem(align(lemma, form), min_run=1)
    except NoStem:
        reject()
    chars = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True))
    cfg = CorruptionConfig(theta=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
                           exclude_original=draw(st.booleans()))
    t = InflectionTriple(id="g1", lemma=lemma, form=form, msd=("N", "PL"))
    return t, seg, Alphabet(chars=tuple(sorted(chars))), cfg, draw(st.integers(0, 2**32))


@settings(max_examples=400, deadline=None)
@given(corruption_cases())
def test_corrupt_matches_oracle_draw_for_draw(case):
    t, seg, alphabet, cfg, seed = case
    fast_rng, slow_rng = random.Random(seed), random.Random(seed)
    if cfg.exclude_original and len(alphabet) < 2:
        with pytest.raises(AlphabetTooSmall):
            corrupt(t, seg, alphabet, cfg, fast_rng)
        return
    for n in range(3):
        fast = corrupt(t, seg, alphabet, cfg, fast_rng, new_id=f"s{n}")
        slow = oracle_corrupt(t, seg, alphabet, cfg, slow_rng, new_id=f"s{n}")
        assert fast == slow
        assert fast_rng.getstate() == slow_rng.getstate()


def test_corrupt_original_outside_alphabet_draws_from_all():
    t = InflectionTriple(id="g1", lemma="xyzxyz", form="xyzxyzs", msd=("N",))
    seg = segmentation_from_boundary(t.lemma, t.form, 6)
    alphabet = Alphabet(chars=tuple("abx"))
    for exclude in (True, False):
        cfg = CorruptionConfig(theta=1.0, exclude_original=exclude)
        fast_rng, slow_rng = random.Random(7), random.Random(7)
        for _ in range(20):
            assert corrupt(t, seg, alphabet, cfg, fast_rng) == oracle_corrupt(
                t, seg, alphabet, cfg, slow_rng)
            assert fast_rng.getstate() == slow_rng.getstate()


WORDS = st.text(st.sampled_from("abcd\u0301"), min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(WORDS, WORDS, st.sampled_from(["V;PST", "N;PL", "V;PRS;3"])),
             min_size=1, max_size=8),
    st.lists(st.tuples(st.text(st.sampled_from("abcdz"), min_size=1, max_size=8),
                       st.text(st.sampled_from("abcdz\u0308"), min_size=1, max_size=8),
                       st.sampled_from([("V", "PST"), ("ADJ",), ("N", "PL", "NEW")])),
             min_size=1, max_size=6),
    st.integers(1, 4),
    st.sampled_from([0.1, 0.5, 1, 2.0]),
)
def test_logprobs_bit_identical_to_log_prob(rows, queries, order, k):
    scorer = NGramScorer(order=order, k=k)
    scorer.train(make_dataset(rows))
    hits = unk = 0
    for _ in range(2):
        for lemma, form, msd in queries:
            expected, n_tok, n_unk = oracle_logprobs(scorer, lemma, msd, form)
            got = scorer.logprobs(lemma, msd, form)
            assert [x.hex() for x in got] == [x.hex() for x in expected]
            hits, unk = hits + n_tok, unk + n_unk
            assert (scorer.token_hits, scorer.unk_hits) == (hits, unk)
        # retraining changes counts and vocabulary; cached tables must follow
        scorer.train(make_dataset([(f, l, "ADJ;NEW") for l, f, _ in queries]))
