import random

import pytest
from hypothesis import given, strategies as st

from morphaug.corpus import (
    Alphabet,
    InflectionTriple,
    extract_alphabet,
    parse_unimorph,
    serialize,
)
from morphaug.errors import LineError, MorphaugError
from morphaug.report import msd_mode

from conftest import make_dataset, random_word


def test_parse_single_line():
    d = parse_unimorph("dog\tdogs\tN;PL")
    assert len(d) == 1
    t = d[0]
    assert (t.lemma, t.form, t.msd) == ("dog", "dogs", ("N", "PL"))


def test_parse_empty_stream():
    assert len(parse_unimorph("")) == 0


def test_parse_malformed_line():
    with pytest.raises(LineError, match="^line 1: expected 3 tab-separated fields: got 2$") as e:
        parse_unimorph("a\tb")
    assert e.value.line_no == 1


def test_parse_empty_field():
    with pytest.raises(LineError, match="^line 1: empty form$"):
        parse_unimorph("a\t\tN")


def test_parse_skips_blank_lines_and_keeps_line_ids():
    d = parse_unimorph("a\tb\tN\n\nc\td\tV\n")
    assert [t.id for t in d] == ["1", "3"]


def test_round_trip():
    text = "dog\tdogs\tN;PL\ncat\tcats\tN;PL\ngo\twent\tV;PST\n"
    d = parse_unimorph(text)
    assert serialize(d) == text
    assert parse_unimorph(serialize(d)) == d


@given(st.lists(
    st.tuples(st.text("abc", min_size=1, max_size=4),
              st.text("abc", min_size=1, max_size=5),
              st.sampled_from(["N;SG", "N;PL", "V"])),
    max_size=8,
))
def test_round_trip_property(rows):
    d = make_dataset(rows, name="fixture")
    assert parse_unimorph(serialize(d), name="fixture") == d


def test_alphabet_direct_union():
    assert extract_alphabet(make_dataset([("ab", "abc", "N")])).chars == ("a", "b", "c")
    assert extract_alphabet(make_dataset([("dog", "dogs", "N")])).chars == ("d", "g", "o", "s")


def test_alphabet_empty_dataset():
    with pytest.raises(MorphaugError, match="^dataset 'fixture' is empty$"):
        extract_alphabet(make_dataset([]))


def test_alphabet_matches_set_scan_oracle():
    rng = random.Random(7)
    rows = [(random_word(rng, "abcdefgh"), random_word(rng, "abcdefgh"), "N")
            for _ in range(100)]
    d = make_dataset(rows)
    oracle = set()
    for l, f, _ in rows:
        oracle |= set(l) | set(f)
    assert set(extract_alphabet(d).chars) == oracle


def test_alphabet_order_insensitive():
    rng = random.Random(3)
    rows = [(random_word(rng), random_word(rng), "N") for _ in range(20)]
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert extract_alphabet(make_dataset(rows)) == extract_alphabet(make_dataset(shuffled))


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(chars=("a", "a"))


def test_histogram_mode_tie_breaks_lexicographically():
    assert msd_mode({"V;PST": 3, "N;PL": 3, "N;SG": 1}) == ("N;PL", 3)


def test_msd_order_preserved():
    d = parse_unimorph("a\tb\tPL;N\nc\td\tN;PL\n")
    assert {t.msd_string for t in d} == {"PL;N", "N;PL"}


def test_multiword_lemma_accepted():
    d = parse_unimorph("give up\tgave up\tV;PST")
    assert d[0].lemma == "give up"


@pytest.mark.parametrize("tok", ["N PL", "N\tPL", "N\u00a0", "\u2003N", "\u3000", "N;PL", ""])
def test_bad_msd_token_rejected(tok):
    with pytest.raises(ValueError, match="bad msd token"):
        InflectionTriple(id="1", lemma="a", form="b", msd=("V", tok))


def test_alphabet_membership():
    a = Alphabet(chars=tuple("abc\u0301"))
    assert "b" in a and "\u0301" in a
    assert "d" not in a and "ab" not in a
    assert a.index == {"a": 0, "b": 1, "c": 2, "\u0301": 3}
