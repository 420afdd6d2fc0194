import json
import math
import random

import pytest

from morphaug.alignment import align, extract_stem
from morphaug.corpus import Alphabet, InflectionTriple, serialize
from morphaug.corruption import (
    CorruptionConfig,
    SyntheticExample,
    check_sources,
    corrupt,
    generate_pool,
    read_pool_jsonl,
    write_pool_jsonl,
)
from morphaug.errors import LineError, MorphaugError

from conftest import form_stem_positions, lemma_stem_positions, make_dataset

ALPHABET = Alphabet(chars=tuple("abcdefgh"))


def _triple(lemma, form, msd="N;PL", tid="t1"):
    return InflectionTriple(id=tid, lemma=lemma, form=form, msd=tuple(msd.split(";")))


def _seg(t):
    return extract_stem(align(t.lemma, t.form))


def test_theta_zero_is_identity():
    t = _triple("dogged", "doggeds")
    e = corrupt(t, _seg(t), ALPHABET, CorruptionConfig(theta=0.0), random.Random(1))
    assert e.triple.lemma == t.lemma and e.triple.form == t.form
    assert e.substituted_form_positions == ()
    assert e.lev_to_gold_target == 0


def test_theta_one_substitutes_every_stem_position():
    t = _triple("dog", "dogs")
    seg = _seg(t)
    e = corrupt(t, seg, ALPHABET, CorruptionConfig(theta=1.0), random.Random(1))
    assert set(e.substituted_form_positions) == set(j for _, j in seg.stem_pairs)
    # exclude_original: every stem character actually changed
    for i, j in seg.stem_pairs:
        assert e.triple.lemma[i] != t.lemma[i]
        assert e.triple.form[j] != t.form[j]
    assert e.lev_to_gold_target >= 1


def test_paired_substitution_and_preserved_affix():
    t = _triple("walking", "walked")
    seg = _seg(t)
    rng = random.Random(9)
    for _ in range(50):
        e = corrupt(t, seg, ALPHABET, CorruptionConfig(theta=0.7), rng)
        for i, j in seg.stem_pairs:
            assert e.triple.lemma[i] == e.triple.form[j]
        for j in range(len(t.form)):
            if j not in form_stem_positions(seg):
                assert e.triple.form[j] == t.form[j]
        for i in range(len(t.lemma)):
            if i not in lemma_stem_positions(seg):
                assert e.triple.lemma[i] == t.lemma[i]
        assert e.triple.msd == t.msd
        assert set(e.substituted_lemma_positions) <= lemma_stem_positions(seg)


def test_substitutions_stay_inside_stem_spans():
    t = _triple("undone", "undoes")
    seg = _seg(t)
    rng = random.Random(2)
    for _ in range(20):
        e = corrupt(t, seg, ALPHABET, CorruptionConfig(theta=1.0), rng)
        assert set(e.substituted_lemma_positions) == lemma_stem_positions(seg)
        assert set(e.substituted_form_positions) == form_stem_positions(seg)


def test_mean_substituted_fraction_within_3_sigma():
    t = _triple("abcdef", "abcdefs")
    seg = _seg(t)
    assert len(seg.stem_pairs) == 6
    rng = random.Random(123)
    cfg = CorruptionConfig(theta=0.5)
    n = 10_000
    total = sum(len(corrupt(t, seg, ALPHABET, cfg, rng).substituted_form_positions)
                for _ in range(n))
    mean_fraction = total / (n * 6)
    sigma = math.sqrt(0.5 * 0.5 / (n * 6))
    assert abs(mean_fraction - 0.5) < 3 * sigma


def test_alphabet_too_small():
    t = _triple("aaa", "aaas")
    with pytest.raises(MorphaugError, match="^need >= 2 characters to exclude the original$"):
        corrupt(t, _seg(t), Alphabet(chars=("a",)),
                CorruptionConfig(theta=1.0), random.Random(0))


def test_lev_to_gold_target_recorded():
    t = _triple("abcdef", "abcdefs")
    seg = _seg(t)
    rng = random.Random(5)
    from morphaug.alignment import levenshtein
    for _ in range(20):
        e = corrupt(t, seg, ALPHABET, CorruptionConfig(theta=0.5), rng)
        assert e.lev_to_gold_target == levenshtein(e.triple.form, t.form)


def test_generate_pool_size_and_determinism():
    gold = make_dataset([
        ("walked", "walkeds", "V"),
        ("go", "went", "V"),  # unalignable, must be skipped
        ("dreamed", "dreameds", "V"),
    ])
    cfg = CorruptionConfig(theta=0.5, seed=99)
    alphabet = Alphabet(chars=tuple("abcdefghijklmnopqrstuvwxyz"))
    p1 = generate_pool(gold, 200, alphabet, cfg)
    p2 = generate_pool(gold, 200, alphabet, cfg)
    assert len(p1) == 200
    assert p1 == p2
    assert write_pool_jsonl(p1) == write_pool_jsonl(p2)
    sources = {e.source_id for e in p1}
    assert "2" not in sources and sources <= {"1", "3"}


def test_generate_pool_single_uncorrupted_copy():
    gold = make_dataset([("walked", "walkeds", "V")])
    pool = generate_pool(gold, 1, ALPHABET, CorruptionConfig(theta=0.0))
    assert len(pool) == 1
    assert pool[0].triple.lemma == "walked"
    assert pool[0].triple.form == "walkeds"


def test_generate_pool_no_alignable_triples():
    gold = make_dataset([("go", "went", "V"), ("be", "was", "V")])
    with pytest.raises(MorphaugError, match="^no triple in 'fixture' has an alignable stem$"):
        generate_pool(gold, 5, ALPHABET, CorruptionConfig())


def test_pool_jsonl_round_trip():
    gold = make_dataset([("walked", "walkeds", "V;PST")])
    pool = generate_pool(gold, 10, ALPHABET, CorruptionConfig(theta=0.5, seed=3))
    assert read_pool_jsonl(write_pool_jsonl(pool)) == pool


@pytest.mark.parametrize("score", [None, 0, 0.0, 2, 1.5, 1e300])
def test_read_pool_jsonl_keeps_every_valid_score(score):
    gold = make_dataset([("walked", "walkeds", "V;PST")])
    pool = generate_pool(gold, 2, ALPHABET, CorruptionConfig(theta=0.5, seed=3))
    pool = [SyntheticExample(e.triple, e.source_id, e.substituted_lemma_positions,
                             e.substituted_form_positions, e.lev_to_gold_target, score)
            for e in pool]
    back = read_pool_jsonl(write_pool_jsonl(pool))
    assert back == pool and [type(e.score) for e in back] == [type(score)] * 2


def test_read_pool_jsonl_may_omit_the_score():
    line = ('{"id": "s1", "source_id": "1", "lemma": "walked", "form": "walkeds", '
            '"msd": ["V", "PST"], "substituted_lemma_positions": [], '
            '"substituted_form_positions": [], "lev_to_gold_target": 0}')
    assert read_pool_jsonl(line + "\n")[0].score is None


def _line(tid, lemma):
    return ('{"id": "%s", "source_id": "1", "lemma": "%s", "form": "%ss", "msd": ["V"], '
            '"substituted_lemma_positions": [], "substituted_form_positions": [], '
            '"lev_to_gold_target": 0}' % (tid, lemma, lemma))


def test_read_pool_jsonl_splits_at_newline_only():
    pool = read_pool_jsonl(_line("s1", "wa\u2028lk") + "\r\n" + _line("s2", "ta\x85lk") + "\n")
    assert [e.triple.lemma for e in pool] == ["wa\u2028lk", "ta\x85lk"]
    # a trailing "\r" is JSON whitespace; a bare "\r" ends no line
    with pytest.raises(LineError, match="line 1: not valid JSON"):
        read_pool_jsonl(_line("s1", "walk") + "\r" + _line("s2", "talk") + "\r")


def test_read_pool_jsonl_rejects_a_repeated_id_and_deep_nesting():
    with pytest.raises(LineError, match="line 3: duplicate id 'x'"):
        read_pool_jsonl(_line("x", "walk") + "\n" + _line("y", "jump") + "\n"
                        + _line("x", "talk") + "\n")
    with pytest.raises(LineError, match="line 2: not valid JSON: maximum recursion depth"):
        read_pool_jsonl(_line("x", "walk") + "\n" + "[" * 100000 + "]" * 100000 + "\n")


@pytest.mark.parametrize("key", ["id", "source_id"])
@pytest.mark.parametrize("value", ["a\tb", "a\nb", "a\r", "\r", "\ufeffa"])
def test_read_pool_jsonl_rejects_an_id_an_id_tab_nll_line_cannot_hold(key, value):
    bad = json.loads(_line("s2", "talk"))
    bad[key] = value
    with pytest.raises(LineError, match=f"line 2: '{key}' must be a string with no tab"):
        read_pool_jsonl(_line("s1", "walk") + "\n" + json.dumps(bad) + "\n")


@pytest.mark.parametrize("key", ["lemma", "form"])
@pytest.mark.parametrize("char", ["\t", "\n", "\r"])
def test_read_pool_jsonl_rejects_a_lemma_or_form_a_tsv_line_cannot_hold(key, char):
    bad = json.loads(_line("s2", "talk"))
    bad[key] = f"ta{char}lk"
    with pytest.raises(LineError, match=f"line 2: '{key}' must be a string with no tab, "
                                       r"\\n or \\r, got"):
        read_pool_jsonl(_line("s1", "walk") + "\n" + json.dumps(bad) + "\n")


@pytest.mark.parametrize("key", ["id", "source_id", "lemma", "form", "msd"])
def test_read_pool_jsonl_rejects_a_lone_surrogate(key):
    bad = json.loads(_line("s2", "talk"))
    bad[key] = ["V", "P\udc00"] if key == "msd" else "ta\ud800lk"
    # json.dumps escapes the surrogate, as any UTF-8 file must
    with pytest.raises(LineError, match=f"line 2: '{key}' must be free of lone surrogates"):
        read_pool_jsonl(_line("s1", "walk") + "\n" + json.dumps(bad) + "\n")


def test_read_pool_jsonl_keeps_an_inner_byte_order_mark_and_line_separators():
    ids = ["a\ufeff", "b\u2028", "c\x85 ", " "]
    pool = read_pool_jsonl("".join(_line(f"s{i}", "walk").replace('"s%d"' % i, json.dumps(tid))
                                   + "\n" for i, tid in enumerate(ids)))
    assert [e.id for e in pool] == ids


def test_pool_tsv_export():
    gold = make_dataset([("walked", "walkeds", "V;PST")])
    pool = generate_pool(gold, 3, ALPHABET, CorruptionConfig(theta=0.0, seed=3))
    lines = serialize(e.triple for e in pool).splitlines()
    assert lines == ["walked\twalkeds\tV;PST"] * 3


def test_invalid_theta_rejected():
    with pytest.raises(ValueError):
        CorruptionConfig(theta=1.5)


def test_a_pool_example_is_a_tuple_of_its_six_fields():
    t = InflectionTriple(id="s1", lemma="wa", form="was", msd=("V", "PST"))
    e = SyntheticExample(t, "g1", (0,), (0,), 1)
    assert SyntheticExample._fields == ("triple", "source_id", "substituted_lemma_positions",
                                        "substituted_form_positions", "lev_to_gold_target",
                                        "score")
    assert e == (t, "g1", (0,), (0,), 1, None) and (e.id, e.msd_string) == ("s1", "V;PST")
    scored = e.with_score(2.5)
    assert type(scored) is SyntheticExample and scored == (*e[:5], 2.5) and e.score is None


def _from_source(lemma, form, lemma_pos, form_pos, msd=("V", "PST"), source="1"):
    return SyntheticExample(InflectionTriple(id="s1", lemma=lemma, form=form, msd=msd),
                            source, lemma_pos, form_pos, 0)


def test_check_sources_accepts_the_pool_of_its_gold():
    gold = make_dataset([("walk", "walked", "V;PST"), ("talk", "talked", "V;PST")])
    pool = generate_pool(gold, 30, ALPHABET, CorruptionConfig(theta=0.7, seed=2))
    check_sources(pool, gold)
    check_sources([_from_source("wxlk", "wxlked", (1,), (1,))], gold)


@pytest.mark.parametrize("example", [
    _from_source("wxlk", "wxlked", (1,), (1,), msd=("V", "PRS")),  # another MSD
    _from_source("wxlk", "wxlkedd", (1,), (1,)),  # another form length
    _from_source("wxl", "wxlked", (1,), (1,)),  # another lemma length
    _from_source("wxlk", "wxlkex", (1,), (1,)),  # an affix character changed
    _from_source("wxlx", "wxlked", (1,), (1,)),  # a lemma character outside the positions
    _from_source("walk", "walked", (4,), ()),  # a position past the end
    _from_source("walk", "walked", (), (-1,)),  # a negative position
    _from_source("walk", "walked", (True,), ()),  # a position that is not an int
])
def test_check_sources_rejects_a_mismatch(example):
    gold = make_dataset([("walk", "walked", "V;PST")])
    with pytest.raises(MorphaugError, match=r"^pool example 's1' is not a stem corruption of "
                       r"gold triple '1'; is --gold the file the pool was made from\?$"):
        check_sources([example], gold)


def test_check_sources_names_a_missing_source():
    gold = make_dataset([("walk", "walked", "V;PST")])
    with pytest.raises(MorphaugError,
                       match="^source id '2' of the pool names no alignable gold triple$"):
        check_sources([_from_source("walk", "walked", (), (), source="2")], gold)
