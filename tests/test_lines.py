"""The one line rule of the four line readers: gold TSV, pool JSONL, score TSV
and harmony TSV lines are util.lines, from a string and from a file the CLI
reads."""

import json

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from morphaug import cli
from morphaug.corpus import (InflectionTriple, check_triple, parse_unimorph, read_harmony_tsv,
                             serialize)
from morphaug.corruption import SyntheticExample, read_pool_jsonl
from morphaug.errors import LineError, MorphaugError
from morphaug.scoring import load_external_scores
from morphaug.util import lines


def _pool_line(i, tid):
    return json.dumps({"id": tid, "source_id": "1", "lemma": "walk", "form": "walked",
                       "msd": ["V", "PST"], "substituted_lemma_positions": [],
                       "substituted_form_positions": [], "lev_to_gold_target": 0},
                      ensure_ascii=False)


def _scored_ids(text, ids):
    pool = [SyntheticExample(InflectionTriple(tid, "walk", "walked", ("V",)), "1", (), (), 0)
            for tid in ids]
    return [e.id for e in load_external_scores(text, pool)]


def _pool_line_with(**change):
    return json.dumps({**json.loads(_pool_line(1, "y")), **change}, ensure_ascii=False)


def _read(tmp_path, read, text, values):
    """read(text, values), which the CLI's read of a file of text must give
    too: the same values, or the same data error with the file's name in
    front."""
    path = tmp_path / "input"
    path.write_bytes(text.encode())
    try:
        got = read(text, values)
    except MorphaugError as e:
        with pytest.raises(MorphaugError) as from_file:
            cli._load(str(path), read, values)
        assert str(from_file.value) == f"{path}: {e}"
        raise
    assert cli._load(str(path), read, values) == got
    return got


# each reader: the i-th line with a text field holding a value, the values
# read back from a text of such lines, and lines it refuses after line(0, "x"),
# one for each way a line of it can be bad
READERS = {
    "gold TSV": (lambda i, v: f"{v}\twalked\tV;PST",
                 lambda text, values: [t.lemma for t in parse_unimorph(text)],
                 ["walk\twalked", "walk\t\tV", "walk\twalked\tV;;X", "\ufeffwalk\twalked\tV"]),
    "pool JSONL": (_pool_line,
                   lambda text, values: [e.id for e in read_pool_jsonl(text)],
                   ["[]", "{", '{"id": "y"}', _pool_line_with(lemma=5),
                    _pool_line_with(form=""), _pool_line_with(lemma="wa\ufefflk"),
                    _pool_line(1, "x")]),
    "score TSV": (lambda i, v: f"{v}\t1.5", _scored_ids,
                  ["x\t1.5\t2", "y\tabc", "z\t1.5", "x\t1.5", "y\tnan"]),
    "harmony TSV": (lambda i, v: f"{'aeiou'[i]}\t{v}",
                    lambda text, values: list(read_harmony_tsv(text).vowel_classes.values()),
                    ["ab\tback", "e\t", "a\tback"]),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("end, values", [
    pytest.param("\r\n", ["x", "y"], id="crlf"),
    pytest.param("\n", ["a\u2028b", "c\x85d", "e\u2029"], id="separators-inside-a-field"),
])
def test_every_reader_reads_the_same_lines(tmp_path, reader, end, values):
    line, read, _ = READERS[reader]
    text = "".join(line(i, v) + end for i, v in enumerate(values))
    assert _read(tmp_path, read, text, values) == values


@pytest.mark.parametrize("reader", READERS)
def test_every_reader_skips_a_whitespace_line_and_counts_it(tmp_path, reader):
    line, read, bad_lines = READERS[reader]
    for bad in bad_lines:
        with pytest.raises(LineError, match="^line 3: ") as e:
            _read(tmp_path, read, line(0, "x") + "\n \t\u2028\r\n" + bad + "\n", ["x", "y"])
        assert e.value.line_no == 3, bad


@pytest.mark.parametrize("reader", READERS)
def test_every_reader_reads_a_text_whose_lines_end_in_a_lone_carriage_return_as_one_line(
        tmp_path, reader):
    line, read, _ = READERS[reader]
    with pytest.raises(LineError, match="^line 1: ") as e:
        _read(tmp_path, read, line(0, "x") + "\r" + line(1, "y") + "\r", ["x", "y"])
    assert e.value.line_no == 1


def test_lines_split_at_newline_only_and_drop_one_carriage_return():
    text = "a\r\n\n \t\r\nb\u2028c\x85\rd\n\r\r\ne\r\r"
    assert list(lines(text)) == [(1, "a"), (4, "b\u2028c\x85\rd"), (6, "e\r")]
    assert list(lines("")) == [] and list(lines("a")) == [(1, "a")]


def test_a_line_ending_in_two_carriage_returns_keeps_one(tmp_path):
    # a harmony class and a gold MSD token hold no "\r"
    read_harmony, read_gold, read_pool = (READERS[r][1]
                                          for r in ("harmony TSV", "gold TSV", "pool JSONL"))
    with pytest.raises(LineError, match=r"^line 1: expected char<TAB>class.*'a\\tback\\r'$"):
        _read(tmp_path, read_harmony, "a\tback\r\r\n", [])
    with pytest.raises(LineError, match=r"^line 1: triple '1': bad msd token 'PST\\r'$"):
        _read(tmp_path, read_gold, "walk\twalked\tV;PST\r\r\nbad\n", [])
    # json and float() read the kept "\r" as whitespace
    assert _read(tmp_path, read_pool, _pool_line(0, "x") + "\r\r\n", []) == ["x"]
    assert _read(tmp_path, _scored_ids, "x\t1.5\r\r\n", ["x"]) == ["x"]


# any character, and, a quarter of the time, one that ends or splits a line or a field
CHAR = st.one_of(st.characters(), st.characters(), st.characters(), st.sampled_from(
    ["\t", "\n", "\r", "\x0b", "\x1c", "\x85", "\u2028", "\ufeff", "\ud800", " ", ";"]))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(st.text(CHAR, min_size=1, max_size=4),
                               st.text(CHAR, min_size=1, max_size=4),
                               st.lists(st.text(CHAR, min_size=1, max_size=3),
                                        min_size=1, max_size=2)),
                     min_size=1, max_size=6))
def test_any_triple_check_triple_accepts_reads_back_from_a_file(tmp_path, rows):
    triples = []
    for lemma, form, msd in rows:
        try:
            triples.append(check_triple(
                InflectionTriple(str(len(triples) + 1), lemma, form, tuple(msd))))
        except MorphaugError:
            pass
    assume(triples)
    path = tmp_path / "gold.tsv"
    path.write_bytes(serialize(triples).encode())
    assert list(cli._parse(str(path))) == triples
