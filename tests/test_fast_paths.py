"""Each fast path against the simple oracle it replaced (tests/conftest.py):
the same results, and for corruption, toy corruption, the report bootstrap
and the MSD-templatic selections the same random draws."""

import gc
import json
import random
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from functools import reduce
from operator import add
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp

from morphaug import corruption, milab, report, scoring, selection
from morphaug.alignment import align, extract_stem, levenshtein
from morphaug.cli import main
from morphaug.corpus import (Alphabet, HarmonyRule, InflectionTriple, check_triple,
                             parse_unimorph)
from morphaug.corruption import (CorruptionConfig, SyntheticExample, check_sources, corrupt,
                                 generate_pool, read_pool_jsonl, write_pool_jsonl)
from morphaug.errors import LineError, MorphaugError
from morphaug.scoring import NGramScorer

from conftest import (form_stem_positions, make_dataset, oracle_align, oracle_corrupt,
                      oracle_corrupt_toy, oracle_estimate_mi, oracle_factorization_gap,
                      oracle_generate_pool,
                      oracle_harmony_bootstrap, oracle_levenshtein, oracle_group_by_msd,
                      oracle_logprobs, oracle_mi_bits, oracle_mi_decay_curve, oracle_nlls,
                      oracle_pair_samples, path_cost, prefix_segmentation,
                      pair_samples, oracle_select_by_loss, oracle_select_hybrid,
                      oracle_select_random, oracle_select_templatic, oracle_write_pool_jsonl,
                      random_word)

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
    fast = align(lemma, form)
    slow, cost = oracle_align(lemma, form)
    assert fast == slow
    assert cost == levenshtein(lemma, form) == path_cost(lemma, form, fast)



@st.composite
def corruption_cases(draw):
    # stems may use x, y and a combining mark, which no alphabet contains
    stem = draw(st.text(st.sampled_from("abcdefghxy\u0301"), min_size=1, max_size=10))
    lemma = stem + draw(st.text(st.sampled_from("abz"), max_size=3))
    form = draw(st.text(st.sampled_from("ab"), max_size=2)) + stem + draw(
        st.text(st.sampled_from("abq"), max_size=4))
    seg = extract_stem(lemma, form, min_run=1)
    if seg is None:
        reject()
    chars = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True))
    cfg = CorruptionConfig(theta=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])))
    t = InflectionTriple(id="g1", lemma=lemma, form=form, msd=("N", "PL"))
    return t, seg, Alphabet(chars=tuple(sorted(chars))), cfg, draw(st.integers(0, 2**32))


@settings(max_examples=400, deadline=None)
@given(corruption_cases())
def test_corrupt_matches_oracle_draw_for_draw(case):
    t, seg, alphabet, cfg, seed = case
    fast_rng, slow_rng = random.Random(seed), random.Random(seed)
    if len(alphabet) < 2:
        with pytest.raises(MorphaugError, match="^need >= 2 characters to exclude the original$"):
            corrupt(t, seg, alphabet, cfg, fast_rng, "s0")
        return
    for n in range(3):
        fast = corrupt(t, seg, alphabet, cfg, fast_rng, new_id=f"s{n}")
        slow = oracle_corrupt(t, seg, alphabet, cfg, slow_rng, new_id=f"s{n}")
        assert fast == slow
        assert fast_rng.getstate() == slow_rng.getstate()


@settings(max_examples=200, deadline=None)
@given(case=corruption_cases())
def test_corrupt_measures_only_the_substituted_window(case):
    t, seg, alphabet, cfg, seed = case
    if len(alphabet) < 2:
        return
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return levenshtein(a, b)

    with mock.patch.object(corruption, "levenshtein", counted):
        fast = corrupt(t, seg, alphabet, cfg, random.Random(seed), "s1")
    slow = oracle_corrupt(t, seg, alphabet, cfg, random.Random(seed), "s1")
    assert fast == slow
    sub = fast.substituted_form_positions
    if not sub:
        assert calls == [] and fast.lev_to_gold_target == 0
        return
    lo, hi = min(sub), max(sub) + 1
    assert calls == [(fast.triple.form[lo:hi], t.form[lo:hi])]


def test_corrupt_original_outside_alphabet_draws_from_all():
    t = InflectionTriple(id="g1", lemma="xyzxyz", form="xyzxyzs", msd=("N",))
    seg = prefix_segmentation(6)
    alphabet = Alphabet(chars=tuple("abx"))
    cfg = CorruptionConfig(theta=1.0)
    fast_rng, slow_rng = random.Random(7), random.Random(7)
    for _ in range(20):
        assert corrupt(t, seg, alphabet, cfg, fast_rng, "s1") == oracle_corrupt(
            t, seg, alphabet, cfg, slow_rng, "s1")
        assert fast_rng.getstate() == slow_rng.getstate()


@contextmanager
def _recorded_rngs(module):
    """Record the random.Random instances the module creates."""
    made = []

    def make(seed):
        made.append(random.Random(seed))
        return made[-1]

    with mock.patch.object(module, "random", SimpleNamespace(Random=make)):
        yield made


# ------------------------------------------------ randrange(n), inlined
# corrupt, generate_pool and corrupt_toy draw getrandbits(n.bit_length())
# until the result is below n, which is randrange(n)'s own loop: the same
# values, and the same generator state after, for every n (n = 1 included,
# which still spends one getrandbits(1) per draw).

DRAW_SIZES = range(1, 302)


def test_substitute_draws_match_randrange_for_every_alphabet_size():
    # corrupt's per-character substitute draws: the lemma's c is outside
    # an alphabet of 2 characters, where the draw is among all n; otherwise
    # the original is excluded and it is among n - 1 (so 2 characters draw
    # with randrange(1)). One character has no other to draw.
    t = InflectionTriple(id="g1", lemma="abcab", form="abcabs", msd=("N",))
    seg = prefix_segmentation(5)
    cfg = CorruptionConfig(theta=1.0)
    for n in DRAW_SIZES[1:]:
        alphabet = Alphabet(chars=tuple(chr(ord("a") + i) for i in range(n)))
        fast_rng, slow_rng = random.Random(n), random.Random(n)
        for _ in range(4):
            assert corrupt(t, seg, alphabet, cfg, fast_rng, "s1") == oracle_corrupt(
                t, seg, alphabet, cfg, slow_rng, "s1")
            assert fast_rng.getstate() == slow_rng.getstate()


def test_generate_pool_draws_match_randrange_for_every_gold_size():
    rng = random.Random(5)
    # every seventh triple after the first has no stem, so some draws are skipped
    rows = [(w, w + "s", "V;PST") if i % 7 or i == 0 else ("ab", "xy", "N")
            for i, w in enumerate(random_word(rng, "abcdef", 3, 6) for _ in range(max(DRAW_SIZES)))]
    alphabet = Alphabet(chars=tuple("abcdefsxy"))
    for n in DRAW_SIZES:
        gold = make_dataset(rows[:n])
        cfg = CorruptionConfig(theta=0.5, seed=n)
        with _recorded_rngs(corruption) as made:
            fast = generate_pool(gold, 4, alphabet, cfg)
        slow_rng = random.Random(cfg.seed)
        assert fast == oracle_generate_pool(gold, 4, alphabet, cfg, slow_rng)
        assert made[0].getstate() == slow_rng.getstate()


def test_corrupt_toy_draws_match_randrange_for_every_gold_size():
    g = milab.make_toy_grammar(20, 3, seed=1)
    gold = milab.generate_gold(g, max(DRAW_SIZES), seed=2)
    for n in DRAW_SIZES:
        with _recorded_rngs(milab) as made:
            fast = milab.corrupt_toy(gold[:n], g, 4, 0.5, seed=n)
        slow_rng = random.Random(n)
        slow = Counter(oracle_corrupt_toy(gold[:n], g, 4, 0.5, seed=n, rng=slow_rng))
        assert fast == slow and list(fast) == list(slow)
        assert made[0].getstate() == slow_rng.getstate()
    with pytest.raises(ValueError):
        milab.corrupt_toy([], g, 1, 0.5)
    assert milab.corrupt_toy([], g, 0, 0.5) == Counter()


def test_corrupt_toy_draws_among_all_characters_for_one_outside_the_alphabet():
    # grammar-made gold holds only alphabet characters; here some stems hold
    # z or q, which are outside it, so their draws are among all n characters
    g = milab.make_toy_grammar(20, 3, seed=1, harmony=True)
    stems = ["z" + s[1:] if i % 3 == 0 else s[:2] + "q" if i % 3 == 1 else s
             for i, s in enumerate(g.stems)]
    gold = [milab.ToyExample(stem, msd, *g.realize(stem, msd))
            for stem, msd in zip(stems, g.msds * len(stems))]
    assert any(c not in g.alphabet for e in gold for c in e.stem)
    for theta, seed in ((1.0, 3), (0.5, 4), (0.3, 5)):
        with _recorded_rngs(milab) as made:
            fast = milab.corrupt_toy(gold, g, 500, theta, seed=seed)
        slow_rng = random.Random(seed)
        slow = Counter(oracle_corrupt_toy(gold, g, 500, theta, seed=seed, rng=slow_rng))
        assert fast == slow and list(fast) == list(slow)
        assert made[0].getstate() == slow_rng.getstate()


# ------------------------------------------------------ corrupted triples

@settings(max_examples=200, deadline=None)
@given(corruption_cases())
def test_derived_triples_equal_validated_ones(case):
    t, seg, alphabet, cfg, seed = case
    if len(alphabet) < 2:
        return
    derived = corrupt(t, seg, alphabet, cfg, random.Random(seed), new_id="s1").triple
    built = oracle_corrupt(t, seg, alphabet, cfg, random.Random(seed), new_id="s1").triple
    assert type(derived) is InflectionTriple
    assert derived == built and hash(derived) == hash(built) and repr(derived) == repr(built)
    assert derived.msd is t.msd and derived.msd_string == t.msd_string
    # no constructor checks a triple, so this keeps corrupt's inside the readers' rule
    assert check_triple(derived) is derived


@pytest.mark.parametrize("tok", ["", " ", "P ST", "P\u00a0ST", "PST\n"])
def test_every_boundary_still_validates_msd_tokens(tok):
    with pytest.raises(MorphaugError, match="bad msd token"):
        check_triple(InflectionTriple(id="1", lemma="walk", form="walked", msd=("V", tok)))
    if "\n" not in tok:
        with pytest.raises(LineError, match="bad msd token"):
            parse_unimorph(f"walk\twalked\tV;{tok}\n")
    line = json.dumps({"id": "s1", "source_id": "1", "lemma": "walk", "form": "walked",
                       "msd": ["V", tok], "substituted_lemma_positions": [],
                       "substituted_form_positions": [], "lev_to_gold_target": 0})
    with pytest.raises(LineError, match="bad msd token"):
        read_pool_jsonl(line + "\n")


# ------------------------------------------------------- pool JSONL writer

# json.dumps escapes quotes, backslashes and C0 controls, and passes DEL, line
# separators, non-BMP characters and lone surrogates through as they are
JSON_CHARS = st.one_of(st.characters(), st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\udfff", "\U0001f600"]))
JSON_TEXT = st.text(JSON_CHARS, max_size=6)
# a triple's lemma and form are non-empty and hold no U+FEFF
TRIPLE_TEXT = JSON_TEXT.filter(lambda s: s and "\ufeff" not in s)
MSD_TOKENS = st.text(JSON_CHARS, min_size=1, max_size=4).filter(
    lambda tok: ";" not in tok and tok.split() == [tok])
POSITIONS = st.lists(st.integers(0, 10**6), max_size=4).map(tuple)
SCORES = st.one_of(st.none(), st.floats(), st.integers(0, 10))


@st.composite
def jsonl_pools(draw):
    # a few MSDs shared by the examples, so the writer's per-MSD cache is hit
    msds = draw(st.lists(st.lists(MSD_TOKENS, min_size=1, max_size=3).map(tuple),
                         min_size=1, max_size=3))
    pool = []
    for _ in range(draw(st.integers(0, 6))):
        t = InflectionTriple(id=draw(JSON_TEXT), lemma=draw(TRIPLE_TEXT),
                             form=draw(TRIPLE_TEXT), msd=draw(st.sampled_from(msds)))
        pool.append(SyntheticExample(t, draw(JSON_TEXT), draw(POSITIONS), draw(POSITIONS),
                                     draw(st.integers(0, 10**9)), draw(SCORES)))
    return pool


def _pool_of(lemma, score):
    t = InflectionTriple(id="s\"1", lemma=lemma, form=lemma + "\\s", msd=("N\ud800", "PL"))
    return [SyntheticExample(t, "1", (), (0, 2), 3, score)]


@settings(max_examples=200, deadline=None)
@given(jsonl_pools())
@example(_pool_of("\ud800\x00\U0001f600", float("nan")))
@example(_pool_of("a\u2028b", None))
@example(_pool_of("\x7f", 0.1 + 0.2))
@example(_pool_of("x", float("-inf")))
def test_write_pool_jsonl_matches_json_dumps(pool):
    assert write_pool_jsonl(pool) == oracle_write_pool_jsonl(pool)


WORDS = st.text(st.sampled_from("abcd\u0301"), min_size=1, max_size=8)


LOGPROB_ROWS = st.lists(st.tuples(WORDS, WORDS, st.sampled_from(["V;PST", "N;PL", "V;PRS;3"])),
                        min_size=1, max_size=8)
# z, the diaeresis and NEW are never in the training vocabulary: UNK tokens
LOGPROB_QUERIES = st.lists(
    st.tuples(st.text(st.sampled_from("abcdz"), min_size=1, max_size=8),
              st.text(st.sampled_from("abcdz\u0308"), min_size=1, max_size=8),
              st.sampled_from([("V", "PST"), ("ADJ",), ("N", "PL", "NEW")])),
    min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(LOGPROB_ROWS, LOGPROB_QUERIES, st.integers(1, 4), st.sampled_from([0.1, 0.5, 1, 2.0]))
def test_logprobs_bit_identical_to_log_prob(rows, queries, order, k):
    _check_logprobs(rows, queries, order, k)


@pytest.mark.parametrize("order", [1, 2, 3, 5])
@settings(max_examples=60, deadline=None)
@given(rows=LOGPROB_ROWS, queries=LOGPROB_QUERIES, k=st.sampled_from([0.1, 1, 2.0]))
def test_logprobs_matches_oracle_at_orders_1_2_3_5(order, rows, queries, k):
    # order 1 has the empty context, and order 5 reaches the last lemma
    # character through a one-token MSD
    _check_logprobs(rows, queries, order, k)


def _check_logprobs(rows, queries, order, k):
    scorer = NGramScorer(order=order, k=k)
    scorer.train(make_dataset(rows))
    for _ in range(2):
        for lemma, form, msd in queries:
            expected, n_tok, n_unk = oracle_logprobs(scorer, lemma, msd, form)
            [got], got_unk, got_tok = scorer.nlls(_triples([(lemma, form, msd)]))
            assert got.hex() == (-reduce(add, expected, 0.0) / (len(form) + 1)).hex()
            assert (got_tok, got_unk) == (n_tok, n_unk)
        # retraining changes counts and vocabulary; the next nlls must follow
        scorer.train(make_dataset([(f, l, "ADJ;NEW") for l, f, _ in queries]))


# '#' is the separator, and '<s>', '</s>' and '<unk>' are BOS, EOS and UNK:
# as data they are the same tokens. z is never in the first training set.
BATCH_WORDS = st.text(st.sampled_from("ab#"), min_size=1, max_size=6)
BATCH_ROWS = st.lists(st.tuples(BATCH_WORDS, BATCH_WORDS,
                                st.sampled_from(["V;PST", "#", "N;<unk>", "</s>;V"])),
                      min_size=1, max_size=6)
BATCH_POOL = st.lists(
    st.tuples(st.text(st.sampled_from("ab#z"), min_size=1, max_size=7),
              st.text(st.sampled_from("ab#z"), min_size=1, max_size=7),
              st.sampled_from([("V", "PST"), ("#",), ("<s>", "V"), ("</s>",), ("N", "<unk>"),
                               ("NEW",), ("<s>", "#", "</s>")])),
    min_size=1, max_size=8)


def _triples(queries):
    return [InflectionTriple(f"syn{i}", lemma, form, msd)
            for i, (lemma, form, msd) in enumerate(queries)]


def _pool(queries):
    return [SyntheticExample(t, "1", (), (), 0) for t in _triples(queries)]


# from order 6 on, after a one-token MSD, the context of the first form
# token holds two lemma characters, or BOS for a one-character lemma
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 7])
@settings(max_examples=40, deadline=None)
@given(rows=BATCH_ROWS, queries=BATCH_POOL, k=st.sampled_from([0.1, 1, 2.0]))
def test_batch_nlls_equal_score_bit_for_bit(order, rows, queries, k):
    pool = _pool(queries)
    batch = NGramScorer(order=order, k=k)
    # the second training set adds z and '<s>' to the vocabulary: every id
    # changes, and a data '<s>' is no longer UNK: in a context it is BOS
    for gold in (rows, [(f, l, "<s>;V") for l, f, _ in queries]):
        batch.train(make_dataset(gold))
        for _ in range(2):  # the second call builds its rows afresh
            want, n_tok, n_unk = oracle_nlls(batch, pool)
            got, got_unk, got_tok = batch.nlls([e.triple for e in pool])
            assert [x.hex() for x in got] == [x.hex() for x in want]
            assert (got_tok, got_unk) == (n_tok, n_unk)
    scored = scoring.score_pool(batch, pool)
    assert scored == [e._replace(score=x) for e, x in zip(pool, got)]


def test_batch_nlls_reject_a_non_finite_nll():
    scorer = NGramScorer(order=2, k=0.1)
    scorer.train(make_dataset([("ab", "abs", "V;PST")]))
    scorer.k = float("nan")  # past the constructor's check
    with pytest.raises(ValueError, match="nll must be finite"):
        scorer.nlls(_triples([("ab", "ab", ("V",))]))


def test_the_scorer_holds_only_its_model():
    # nlls keeps nothing it derives: retraining invalidates no cache
    scorer = NGramScorer(order=3, k=0.1)
    scorer.train(make_dataset([("ab", "abs", "V;PST")]))
    scorer.nlls(_triples([("ab", "abz", ("V", "PST"))]))
    assert sorted(vars(scorer)) == ["counts", "k", "order", "vocab"]


# ------------------------------------------------------ cyclic GC paused

def _pipeline(tmp_path, monkeypatch):
    """A function running `pipeline` on the golden corpus with a given pool size."""
    import test_golden as golden

    monkeypatch.chdir(tmp_path)
    (tmp_path / "gold.tsv").write_text(golden.GOLD, encoding="utf-8")
    (tmp_path / "full.tsv").write_text(golden.FULL, encoding="utf-8")

    def run(n_pool):
        cfg = {**golden.PIPELINE_CONFIG, "n_pool": n_pool}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        return main(["pipeline", "--config", "cfg.json", "--out-dir", "run", "--quiet"])
    return run


@contextmanager
def _gc_state(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def test_main_pauses_the_cyclic_gc_and_restores_it(tmp_path, monkeypatch):
    run = _pipeline(tmp_path, monkeypatch)
    during = []
    score_pool = scoring.score_pool
    monkeypatch.setattr(scoring, "score_pool",
                        lambda *args: during.append(gc.isenabled()) or score_pool(*args))
    for enabled in (True, False):
        with _gc_state(enabled):
            assert run(100) == 0
            assert gc.isenabled() is enabled
    assert during == [False, False]


def test_pipeline_cyclic_garbage_does_not_grow_with_the_pool(tmp_path, monkeypatch):
    run = _pipeline(tmp_path, monkeypatch)

    def garbage(n_pool):
        gc.collect()
        assert run(n_pool) == 0
        return gc.collect()

    with _gc_state(False):  # no collection between main's return and the count
        garbage(100)  # first-use set-up: logging, lazy imports
        small, large = garbage(100), garbage(2000)
    assert abs(large - small) <= 50, (small, large)


# ------------------------------------------------------- report bootstrap

def _block(module, elements):
    """Bootstrap row blocks of at most `elements` cells (at least one row)
    in `module`, report or milab, each of which has its own budget."""
    return mock.patch.object(module, "BOOTSTRAP_BLOCK_CELLS", elements)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 400), st.integers(1, 300),
       st.integers(0, 2**32))
@example(7, 13, 1001, 64, 0)
@example(1, 5, 50, 7, 1)
@example(5, 1, 50, 7, 2)
@example(60, 40, 300, 37, 3)  # both groups larger than a block: one row per block
@example(3000, 2000, 301, 2**21, 4)
@example(1403, 4597, 10000, 2**16, 0)  # the select-report harmony groups, default resamples
def test_bootstrap_blocks_match_full_draw(n_v, n_a, resamples, block, seed):
    data = np.random.default_rng(seed ^ 0x5EED)
    v, a = data.normal(1.0, 0.5, n_v), data.normal(1.1, 0.5, n_a)
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with _block(report, block):
        mv = report.bootstrap_means(fast_rng, v, resamples)
        ma = report.bootstrap_means(fast_rng, a, resamples)
    sv, sa, p = oracle_harmony_bootstrap(v, a, resamples, slow_rng)
    assert mv.tobytes() == sv.tobytes() and ma.tobytes() == sa.tobytes()
    assert float(np.mean(mv - ma <= 0)) == p
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


def _harmony_pool(n, seed):
    stems = ["dalo", "dela", "loda", "ledi", "dilo", "odal", "elid", "alod"]
    gold = make_dataset([(s, s + suffix, "N;PL") for s in stems for suffix in ("lar", "ler")])
    pool = generate_pool(gold, n, Alphabet(chars=tuple("adeilo")),
                         CorruptionConfig(theta=0.7, seed=seed))
    rng = random.Random(seed)
    return [e.with_score(rng.gauss(1.0, 0.3)) for e in pool], check_sources(pool, gold)


@pytest.mark.parametrize("block", [1, 5, 64, 2**16, 2**21])
def test_harmony_violation_stats_p_matches_full_draw(block):
    cfg = HarmonyRule(vowel_classes={"a": "back", "o": "back", "e": "front", "i": "front"})
    pool, stems = _harmony_pool(120, seed=9)
    with _block(report, block):
        stats = report.harmony_violation_stats(pool, cfg, stems, resamples=333, seed=4)
    violating, adhering = [], []
    for e, seg in zip(pool, stems):
        form = e.triple.form
        stem = "".join(form[i] for i in sorted(form_stem_positions(seg)))
        affix = "".join(c for i, c in enumerate(form) if i not in form_stem_positions(seg))
        (violating if cfg.violates(stem, affix) else adhering).append(e.score)
    assert violating and adhering
    *_, p = oracle_harmony_bootstrap(np.asarray(violating), np.asarray(adhering), 333,
                                     np.random.default_rng(4))
    assert stats["bootstrap_p"] == p
    assert (stats["n_violating"], stats["n_adhering"]) == (len(violating), len(adhering))


# -------------------------------------------------- MSD-templatic selection

def _example(example_id, msd, score):
    return SyntheticExample(
        triple=InflectionTriple(id=example_id, lemma="ab", form="abc", msd=tuple(msd.split(";"))),
        source_id="g1", substituted_lemma_positions=(), substituted_form_positions=(),
        lev_to_gold_target=0, score=score)


@st.composite
def msd_pools(draw):
    n_msds = draw(st.integers(1, 60))
    rows = draw(st.lists(
        st.tuples(st.integers(0, n_msds - 1), st.sampled_from([0.5, 1.0, 1.25, 3.0])),
        min_size=1, max_size=150))
    # pool order differs from id order; scores repeat, so ties are common
    ids = draw(st.permutations(range(len(rows))))
    pool = [_example(f"x{i:04d}", f"V;M{m}", score) for i, (m, score) in zip(ids, rows)]
    k = draw(st.one_of(st.just(len(pool)), st.integers(0, len(pool))))
    return pool, k


def _check_selection(kind, oracle, pool, k, seed):
    """select draws as the oracle does with the kind's own alpha."""
    strategy = selection.SelectionStrategy(kind, k, seed)
    with _recorded_rngs(selection) as made:
        fast = selection.select(pool, strategy)
    slow_rng = random.Random(seed)
    assert fast["selected_ids"] == [e.id for e in oracle(pool, k, strategy.alpha, slow_rng)]
    assert made[0].getstate() == slow_rng.getstate()


@settings(max_examples=200, deadline=None)
@given(msd_pools(), st.sampled_from(["umt", "ume"]), st.integers(0, 2**32))
def test_select_templatic_matches_oracle_draw_for_draw(case, kind, seed):
    pool, k = case
    _check_selection(kind, oracle_select_templatic, pool, k, seed)


@settings(max_examples=200, deadline=None)
@given(msd_pools(), st.sampled_from(["umt-loss", "ume-loss"]), st.integers(0, 2**32))
def test_select_hybrid_matches_oracle_draw_for_draw(case, kind, seed):
    pool, k = case
    _check_selection(kind, oracle_select_hybrid, pool, k, seed)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_msd_selections_match_oracle_on_500_msds(alpha):
    rng = random.Random(11)
    pool = [_example(f"y{i:05d}", f"N;T{rng.randrange(500)}", rng.choice([1.0, 2.0, 2.5]))
            for i in range(1500)]
    templatic = "ume" if alpha else "umt"
    for kind, oracle in ((templatic, oracle_select_templatic),
                         (f"{templatic}-loss", oracle_select_hybrid)):
        assert selection.SelectionStrategy(kind, 0).alpha == alpha
        for k in (700, len(pool)):
            _check_selection(kind, oracle, pool, k, seed=3)


# ------------------------------------------------ one index, many selections

@st.composite
def sweep_cases(draw):
    """A pool with tied scores, repeated ids and one-member MSDs, and every
    strategy at k = 0, k = len(pool) and a few k between, in shuffled order."""
    n_msds = draw(st.integers(1, 8))
    rows = draw(st.lists(
        st.tuples(st.integers(0, n_msds - 1), st.integers(0, 15),
                  st.sampled_from([0.0, 0.5, 1.0, 1.25, 3.0])),
        min_size=1, max_size=50))
    pool = [_example(f"x{i:02d}", f"V;M{m}", score) for m, i, score in rows]
    ks = {0, len(pool), *draw(st.lists(st.integers(0, len(pool)), max_size=3))}
    strategies = [selection.SelectionStrategy(kind=kind, k=k, seed=draw(st.integers(0, 2**16)))
                  for kind in selection.STRATEGIES for k in ks]
    return pool, draw(st.permutations(strategies))


def _oracle_selection(pool, s):
    """The examples the oracles select for strategy s."""
    rng = random.Random(s.seed)
    if s.kind == "random":
        return oracle_select_random(pool, s.k, rng)
    if s.kind in ("highloss", "lowloss"):
        return oracle_select_by_loss(pool, s.k, "highest" if s.kind == "highloss" else "lowest")
    if s.kind in ("umt", "ume"):
        return oracle_select_templatic(pool, s.k, s.alpha, rng)
    return oracle_select_hybrid(pool, s.k, s.alpha, rng)


def _index_state(index):
    """Every part the index computes, as plain values."""
    state = {name: getattr(index, name) for name in (
        "ids", "msds", "id_order", "groups", "scores", "highest_loss", "lowest_loss",
        "hybrid_groups")}
    state["weights"] = [index.msd_weights(alpha) for alpha in (0.0, 1.0)]
    return json.loads(json.dumps(state))


@settings(max_examples=200, deadline=None)
@given(sweep_cases())
def test_one_index_serves_a_sweep_as_fresh_indexes_and_the_oracles(case):
    pool, strategies = case
    index = selection.PoolIndex(pool)
    for s in strategies:
        got = selection.select(index, s)
        assert got == selection.select(pool, s)  # a fresh one-shot index
        want = _oracle_selection(pool, s)
        assert got["selected_ids"] == [e.id for e in want]
        assert got["per_msd_counts"] == Counter(e.triple.msd_string for e in want)
        assert sum(got["per_msd_counts"].values()) == s.k
    assert _index_state(index) == _index_state(selection.PoolIndex(pool))


@settings(max_examples=100, deadline=None)
@given(sweep_cases())
def test_index_groups_match_the_oracle_grouping(case):
    pool, _ = case
    index = selection.PoolIndex(pool)
    oracle = oracle_group_by_msd(pool)
    assert list(index.groups) == sorted(oracle)
    for msd, positions in index.groups.items():
        assert [id(pool[p]) for p in positions] == [id(e) for e in oracle[msd]]


# ------------------------------------------------------------ toy MI lab

@st.composite
def toy_grammars(draw):
    n_msds = draw(st.integers(1, 4))
    coupled = draw(st.booleans())
    # a coupled grammar needs a stem for every MSD's group
    n_stems = draw(st.integers(n_msds if coupled else 1, 10))
    return milab.make_toy_grammar(n_stems, n_msds, seed=draw(st.integers(0, 2**16)),
                                  harmony=draw(st.booleans()), coupled=coupled,
                                  harmonize_lemma=draw(st.booleans()))


THETAS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def toy_mixtures(draw):
    """(gold, syn) example lists of a random grammar: gold, then its
    corruption (the oracle's, since corrupt_toy returns only the counts)."""
    g = draw(toy_grammars())
    seed = draw(st.integers(0, 2**32))
    gold = milab.generate_gold(g, draw(st.integers(1, 30)), seed=seed ^ 0x90D)
    return gold, oracle_corrupt_toy(gold, g, draw(st.integers(0, 80)), draw(THETAS), seed=seed)


@settings(max_examples=150, deadline=None)
@given(toy_grammars(), st.integers(1, 30), st.integers(0, 80), THETAS, st.integers(0, 2**32))
def test_corrupt_toy_matches_oracle_field_for_field(g, gold_n, n, theta, seed):
    gold = milab.generate_gold(g, gold_n, seed=seed ^ 0x90D)
    with _recorded_rngs(milab) as made:
        fast = milab.corrupt_toy(gold, g, n, theta, seed=seed)
    slow_rng = random.Random(seed)
    slow = oracle_corrupt_toy(gold, g, n, theta, seed=seed, rng=slow_rng)
    assert fast.total() == n
    # the same counts, in the same first-occurrence order, from the same draws
    assert fast == Counter(slow) and list(fast) == list(Counter(slow))
    assert made[0].getstate() == slow_rng.getstate()
    for pair, joint in milab._pair_counts(Counter(gold) + fast).items():
        assert joint == Counter(oracle_pair_samples(gold + slow, pair))


@settings(max_examples=150, deadline=None)
@given(toy_mixtures())
def test_toy_records_count_in_first_occurrence_order(mixture):
    gold, syn = mixture
    rows = [(e.stem, e.msd, e.x_affix, e.y_affix) for e in gold + syn]
    records = Counter(gold + syn)
    assert records == Counter(rows) and list(records) == list(dict.fromkeys(rows))
    # the mixture count of the curve: gold's count plus syn's, in the same order
    summed = Counter(gold) + Counter(syn)
    assert summed == records and list(summed) == list(records)


@settings(max_examples=200, deadline=None)
@given(toy_mixtures())
def test_factorization_gap_of_records_matches_oracle(mixture):
    examples = mixture[0] + mixture[1]
    try:
        slow = oracle_factorization_gap(examples)
    except ValueError:
        slow = None
    fast = milab.factorization_gap(Counter(examples))
    assert fast == slow
    if fast is not None:
        assert 0.0 <= fast["tv_distance"] <= 1.0
        assert 0.0 <= fast["skip_rate"] < 1.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("vwxyz")), min_size=1,
                max_size=80), st.integers(1, 40), st.integers(1, 60), st.integers(0, 2**32))
@example([("a", "v")], 7, 1, 0)  # one cell: a row per block
@example([("a", "v"), ("b", "w")] * 3 + [("a", "w")], 25, 5, 1)
# milab's own budget on a 10 x 216 table, the shape of the y_affix tables of
# the seed-0 50,000-point mixture: 7 rows per block, so blocks of 7, 7 and 6
@example([(f"y{a}", f"s{s:03d}") for a in range(10) for s in range(216)
          for _ in range(1 + (a * s) % 3)], 20, milab.BOOTSTRAP_BLOCK_CELLS, 2)
def test_estimate_mi_bootstrap_in_row_blocks_matches_one_draw(samples, resamples, block, seed):
    # a small block splits even these tables' bootstraps into many blocks
    with _block(milab, block):
        fast = milab.estimate_mi(Counter(samples), resamples=resamples, seed=seed)
    assert fast == oracle_estimate_mi(samples, resamples, seed)


@settings(max_examples=100, deadline=None)
@given(toy_mixtures())
def test_estimate_mi_of_projected_records_equals_the_sample_list(mixture):
    examples = mixture[0] + mixture[1]
    joints = milab._pair_counts(Counter(examples))
    for pair in milab.MI_PAIRS:
        assert (milab.estimate_mi(joints[pair], resamples=5, seed=3)
                == milab.estimate_mi(Counter(pair_samples(examples, pair)), resamples=5, seed=3))


@settings(max_examples=30, deadline=None)
@given(toy_grammars(), st.integers(5, 40),
       st.lists(st.integers(0, 60), min_size=1, max_size=3), THETAS,
       st.integers(1, 20), st.integers(0, 2**32))
def test_mi_decay_curve_matches_oracle_path(g, gold_n, syn_sizes, theta, resamples, seed):
    fast = milab.mi_decay_curve(g, gold_n, syn_sizes, theta=theta, seed=seed,
                                resamples=resamples)
    slow = oracle_mi_decay_curve(g, gold_n, syn_sizes, theta=theta, seed=seed,
                                 resamples=resamples)
    assert fast == slow


@st.composite
def count_blocks(draw):
    """A block of count tables, shape (rows, r, c), each with at least one
    count; rows and columns of zeros are common."""
    shape = tuple(draw(st.integers(1, n)) for n in (8, 5, 5))
    block = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 3) | st.integers(0, 10**6)))
    block[block.sum(axis=(-1, -2)) == 0, 0, 0] = 1
    return block


@settings(max_examples=500, deadline=None)
@given(count_blocks())
@example(np.array([[[0, 0], [3, 1]], [[2, 0], [5, 0]], [[0, 0], [0, 9]]]))  # empty row/column
@example(np.array([[[7]]]))
def test_mi_bits_in_place_is_bit_identical_to_the_nansum_of_floats(block):
    # the bootstrap reduces the integer draws, the point estimate float counts
    for counts in (block, block.astype(float)):
        assert milab._mi_bits(counts).tobytes() == oracle_mi_bits(block).tobytes()


# ------------------------------------------- MI bootstraps on worker threads

@contextmanager
def _cpus(k):
    """milab sees k CPUs; yields the worker count of each thread pool it
    makes."""
    made = []
    real = milab.ThreadPoolExecutor

    def pool(max_workers):
        made.append(max_workers)
        return real(max_workers)

    with mock.patch.object(milab.os, "sched_getaffinity", lambda pid: set(range(k)),
                           create=True), mock.patch.object(milab, "ThreadPoolExecutor", pool):
        yield made


@settings(max_examples=20, deadline=None)
@given(toy_grammars(), st.integers(5, 40),
       st.lists(st.integers(0, 60), min_size=1, max_size=3), THETAS,
       st.integers(1, 20), st.integers(0, 2**32))
def test_mi_decay_curve_does_not_depend_on_the_thread_count(g, gold_n, syn_sizes, theta,
                                                            resamples, seed):
    curves = {}
    interval = sys.getswitchinterval()
    try:
        # more workers than most hosts have cores, switching threads often
        sys.setswitchinterval(1e-6)
        for cpus in (1, 4):
            with _cpus(cpus) as pools:
                curves[cpus] = milab.mi_decay_curve(
                    g, gold_n, syn_sizes, theta=theta, seed=seed, resamples=resamples)
            assert pools == [cpus]  # one pool per curve
    finally:
        sys.setswitchinterval(interval)
    assert curves[1] == curves[4]


def test_bootstrap_workers_are_one_per_pair_and_at_most_one_per_cpu(monkeypatch):
    for cpus, workers in ((1, 1), (3, 3), (4, 4), (64, 4)):
        with _cpus(cpus):
            assert milab._bootstrap_workers() == workers
    # without an affinity call, the CPU count; when that is unknown, one
    monkeypatch.delattr(milab.os, "sched_getaffinity", raising=False)
    for count, workers in ((2, 2), (None, 1)):
        monkeypatch.setattr(milab.os, "cpu_count", lambda: count)
        assert milab._bootstrap_workers() == workers


def test_a_worker_exception_surfaces_unchanged(tmp_path, capsys, monkeypatch):
    failure = MorphaugError("bootstrap failed")
    raised_on = []
    estimate_mi = milab.estimate_mi

    def failing(joint, resamples=0, seed=0):
        if resamples:  # the mixture estimates, on the pool's threads
            raised_on.append(threading.current_thread())
            raise failure
        return estimate_mi(joint, resamples, seed)

    monkeypatch.setattr(milab, "estimate_mi", failing)
    g = milab.make_toy_grammar(10, 3, seed=1)
    with _cpus(4), pytest.raises(MorphaugError) as info:
        milab.mi_decay_curve(g, 50, [0, 50], resamples=5)
    assert info.value is failure
    assert raised_on and threading.main_thread() not in raised_on

    out = tmp_path / "curve.json"
    argv = ["milab", "--stems", "10", "--msds", "3", "--gold", "50", "--syn-sizes", "0,50",
            "--resamples", "5", "--out", str(out), "--quiet"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: bootstrap failed\n"
    assert not out.exists()
    # any other exception is a defect, which main does not map to an exit code;
    # failing raises the failure bound here
    failure = ValueError("bootstrap failed")
    with _cpus(4), pytest.raises(ValueError) as info:
        main(argv)
    assert info.value is failure
    assert not out.exists()


def test_milab_runs_write_the_same_bytes(tmp_path, monkeypatch):
    blobs = []
    for cpus in (1, 4):
        run = tmp_path / f"cpus-{cpus}"
        run.mkdir()
        monkeypatch.chdir(run)
        with _cpus(cpus):
            assert main(["milab", "--harmony", "on", "--stems", "20", "--msds", "4",
                         "--gold", "200", "--syn-sizes", "0,200,2000", "--resamples", "50",
                         "--out", "curve.json", "--quiet"]) == 0
        blobs.append((run / "curve.json").read_bytes())
    assert blobs[0] == blobs[1]
