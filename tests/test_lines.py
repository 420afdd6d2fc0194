"""The one line rule of the four line readers: gold TSV, pool JSONL, score TSV
and harmony TSV lines are util.lines."""

import json

import pytest

from morphaug.corpus import InflectionTriple, parse_unimorph
from morphaug.corruption import SyntheticExample, read_pool_jsonl
from morphaug.errors import LineError
from morphaug.milab import read_harmony_tsv
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
def test_every_reader_reads_the_same_lines(reader, end, values):
    line, read, _ = READERS[reader]
    assert read("".join(line(i, v) + end for i, v in enumerate(values)), values) == values


@pytest.mark.parametrize("reader", READERS)
def test_every_reader_skips_a_whitespace_line_and_counts_it(reader):
    line, read, bad_lines = READERS[reader]
    for bad in bad_lines:
        with pytest.raises(LineError, match="^line 3: ") as e:
            read(line(0, "x") + "\n \t\u2028\r\n" + bad + "\n", ["x", "y"])
        assert e.value.line_no == 3, bad


def test_lines_split_at_newline_only_and_drop_one_carriage_return():
    text = "a\r\n\n \t\r\nb\u2028c\x85\rd\n\r\r\ne\r\r"
    assert list(lines(text)) == [(1, "a"), (4, "b\u2028c\x85\rd"), (6, "e\r")]
    assert list(lines("")) == [] and list(lines("a")) == [(1, "a")]


def test_a_line_ending_in_two_carriage_returns_keeps_one():
    assert read_harmony_tsv("a\tback\r\r\n").vowel_classes == {"a": "back\r"}
    # the MSD is the last field of a gold line, and "\r" is whitespace
    with pytest.raises(LineError, match=r"bad msd token 'PST\\r'"):
        parse_unimorph("walk\twalked\tV;PST\r\r\n")
    # json and float() read the kept "\r" as whitespace
    assert [e.id for e in read_pool_jsonl(_pool_line(0, "x") + "\r\r\n")] == ["x"]
    assert _scored_ids("x\t1.5\r\r\n", ["x"]) == ["x"]
