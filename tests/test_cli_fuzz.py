"""cli.main over mutated input files and drawn flag values. Each input kind
starts from a small valid seed file, gets one mutation and runs through its
command in process; each command's flag values are drawn from their
`cli.Rule` rows, valid or not. Whatever the bytes or the flags, no exception
escapes main, the exit code is 0, 1 for an invalid flag value only, or 2, no
temporary file is left, and a run that fails adds no file or directory."""

import argparse
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from morphaug import cli
from morphaug.cli import main

GOLD = (
    "walked\twalkeds\tV;PST\n"
    "talked\ttalkeds\tV;PST\n"
    "jumping\tjumpings\tV;PRS\n"
    "dreaming\tdreamings\tV;PRS\n"
    "kalap\tkalapler\tN;PL\n"
    "deniz\tdenizler\tN;PL\n"
)
# a gold whose pairs share no stem, so that a pipeline fails once its stages start
UNALIGNABLE = b"go\twent\tV;PST\nbe\twas\tV;PST\n"
HARMONY = "a\tback\no\tback\nu\tback\ne\tfront\ni\tfront\n"
CONFIG = json.dumps({"gold": "gold.tsv", "full": "gold.tsv", "n_pool": 20, "theta": 0.5,
                     "order": 2, "k_smooth": 0.1, "strategies": ["random", "umt-loss"],
                     "seed": 3, "k": 4}, indent=1) + "\n"

REPORT = ["report", "--pool", "pool.jsonl", "--scores", "scores.tsv", "--gold", "gold.tsv",
          "--resamples", "20", "--out", "out.json"]
# each input kind: its file and the command that reads it
COMMANDS = {
    "gold.tsv": ["augment", "--gold", "gold.tsv", "--n", "5", "--out", "out.jsonl",
                 "--tsv-out", "out.tsv"],
    "pool.jsonl": ["score", "--pool", "pool.jsonl", "--gold", "gold.tsv", "--out", "out.tsv"],
    "scores.tsv": ["select", "--pool", "pool.jsonl", "--scores", "scores.tsv", "--strategy",
                   "umt-loss", "--k", "3", "--out", "out.json"],
    "vowels.tsv": [*REPORT, "--harmony", "vowels.tsv"],
    "sel.json": [*REPORT, "--selection", "sel.json"],
    "cfg.json": ["pipeline", "--config", "cfg.json", "--out-dir", "run"],
}
# a config also runs into an out-dir that does not exist, which a failed run must not make
MISSING_OUT_DIR = ["pipeline", "--config", "cfg.json", "--out-dir", "new/run"]
# a config's numbers, which a mutation leaves alone, so no run grows large
NUMBER = re.compile(rb"\d+(?:\.\d+)?")
BOM = "\ufeff".encode()
INVALID_UTF8 = (b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80")


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """The bytes of each valid seed file, made by the commands themselves."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("seeds"))
        with open("gold.tsv", "w", encoding="utf-8") as f:
            f.write(GOLD)
        for argv in (["augment", "--gold", "gold.tsv", "--n", "8", "--seed", "1",
                      "--out", "pool.jsonl"],
                     ["score", "--pool", "pool.jsonl", "--gold", "gold.tsv",
                      "--out", "scores.tsv"],
                     ["select", "--pool", "pool.jsonl", "--scores", "scores.tsv",
                      "--strategy", "umt", "--k", "3", "--out", "sel.json"]):
            assert main([*argv, "--quiet"]) == 0
        files = {name: open(name, "rb").read()
                 for name in ("gold.tsv", "pool.jsonl", "scores.tsv", "sel.json")}
    return {**files, "vowels.tsv": HARMONY.encode(), "cfg.json": CONFIG.encode()}


def _drop_key(data, name: str, text: bytes) -> bytes:
    """One line's object loses a key (a JSON file), or one line a field (a TSV)."""
    lines = text.split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    if name.endswith(".tsv"):
        fields = lines[i].split(b"\t")
        del fields[data.draw(st.integers(0, len(fields) - 1))]
        lines[i] = b"\t".join(fields)
        return b"\n".join(lines)
    if name.endswith(".jsonl"):
        obj = json.loads(lines[i]) if lines[i] else {}
    else:
        obj = json.loads(text)
    if obj:
        del obj[data.draw(st.sampled_from(sorted(obj)))]
    if name.endswith(".jsonl"):
        lines[i] = json.dumps(obj, ensure_ascii=False).encode()
        return b"\n".join(lines)
    return json.dumps(obj).encode()


def _mutate(data, name: str, text: bytes) -> bytes:
    kind = data.draw(st.sampled_from(
        ["truncate", "replace", "insert", "invalid utf-8", "bom", "crlf", "drop key"]))
    if kind == "crlf":
        return text.replace(b"\n", b"\r\n")
    if kind == "drop key":
        return _drop_key(data, name, text)
    # positions a mutation may touch; in a config none in or next to a number
    numbers = [m.span() for m in NUMBER.finditer(text)] if name == "cfg.json" else []
    positions = [i for i in range(len(text) + 1)
                 if not any(start <= i <= stop for start, stop in numbers)]
    i = data.draw(st.sampled_from(positions))
    if kind == "truncate":
        return text[:i]
    if kind == "bom":
        return text[:i] + BOM + text[i:]
    if kind == "invalid utf-8":
        return text[:i] + data.draw(st.sampled_from(INVALID_UTF8)) + text[i:]
    byte = bytes([data.draw(st.integers(0, 255).filter(
        lambda b: not (numbers and chr(b).isdigit())))])
    return text[:i] + byte + text[i + (kind == "replace"):]


def _files(root: str) -> list[str]:
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, dirs, files in os.walk(root) for f in [*files, *dirs])


def _run(root: str, argv: list) -> int:
    """main(argv) in root: no temporary file is left, and a run that fails adds nothing."""
    before = _files(root)
    code = main([*argv, "--quiet"])
    after = _files(root)
    assert not [f for f in after if ".tmp-" in f]
    if code:
        assert after == before
    return code


def _seeded(seeds: dict, root: str) -> None:
    for name, text in seeds.items():
        with open(os.path.join(root, name), "wb") as f:
            f.write(text)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_a_mutated_input_file_exits_0_or_2_and_a_failure_writes_nothing(seeds, name, data):
    files = {**seeds, name: _mutate(data, name, seeds[name])}
    if name == "cfg.json":
        # the config's gold: the seed, mutated bytes, or one with no alignable stem
        files["gold.tsv"] = data.draw(st.sampled_from(
            [seeds["gold.tsv"], _mutate(data, "gold.tsv", seeds["gold.tsv"]), UNALIGNABLE]))
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        _seeded(files, root)
        os.mkdir("run")
        for argv in [COMMANDS[name], *([MISSING_OUT_DIR] if name == "cfg.json" else [])]:
            assert _run(root, argv) in (0, 2)


# ------------------------------------------------- what no byte mutation reaches
# Files whose bytes are well formed but break a rule of their kind, and a
# directory in place of each input file: every run that reads one exits 2.

def _bad_scores(data, text: bytes) -> bytes:
    """The score file with one nll made NaN, infinite or negative, or one line repeated."""
    lines = text.decode().splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    nll = data.draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "-1.5", "repeat"]))
    if nll == "repeat":
        lines.insert(data.draw(st.integers(0, len(lines))), lines[i])
    else:
        lines[i] = lines[i].split("\t")[0] + f"\t{nll}\n"
    return "".join(lines).encode()


def _bad_pool(data, text: bytes) -> bytes:
    """The pool with one line's id taken from another line, an escaped tab,
    \\n or \\r in an id or source id, a non-finite or negative score, or a
    negative distance to the gold target."""
    rows = [json.loads(line) for line in text.splitlines()]
    i = data.draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    kind = data.draw(st.sampled_from(["duplicate id", "line break", "score", "distance"]))
    if kind == "duplicate id":
        j = data.draw(st.integers(0, len(rows) - 2))
        row["id"] = rows[j + (j >= i)]["id"]
    elif kind == "line break":
        key = data.draw(st.sampled_from(["id", "source_id"]))
        at = data.draw(st.integers(0, len(row[key])))
        row[key] = row[key][:at] + data.draw(st.sampled_from("\t\n\r")) + row[key][at:]
    elif kind == "score":
        row["score"] = data.draw(st.sampled_from([float("nan"), float("inf"), -float("inf"),
                                                  -1.0]))
    else:
        row["lev_to_gold_target"] = data.draw(st.integers(-(10 ** 6), -1))
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows).encode()


BROKEN = {"scores.tsv": _bad_scores, "pool.jsonl": _bad_pool}


def _readers(name: str) -> list:
    """Each argv of COMMANDS, and the pipeline into a missing out-dir, that
    reads the file name; a config names gold.tsv."""
    return [argv for argv in [*COMMANDS.values(), MISSING_OUT_DIR]
            if name in argv or name == "gold.tsv" and "cfg.json" in argv]


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from([*((name, False) for name in sorted(BROKEN)),
                             *((name, True) for name in sorted(COMMANDS))]),
       data=st.data())
def test_a_file_no_byte_mutation_reaches_exits_2_and_writes_nothing(seeds, case, data):
    name, directory = case
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        if directory:
            _seeded({n: text for n, text in seeds.items() if n != name}, root)
            os.mkdir(name)
        else:
            _seeded({**seeds, name: BROKEN[name](data, seeds[name])}, root)
        os.mkdir("run")
        for argv in _readers(name):
            assert _run(root, argv) == 2


# ------------------------------------------------------------------ the argv
# Valid values stay small, so that no run grows large; the invalid ones are
# the text a rule refuses, or a number outside its range.
NOT_AN_INTEGER = st.sampled_from(["", "x", "1.5", "1e3", "0x1", "-x"])
NOT_A_NUMBER = st.sampled_from(["", "x", "nan", "inf", "1,5", "-x"])
VALID = {
    cli.INTEGER: st.integers(1, 12).map(str),
    cli.AT_LEAST_1: st.integers(1, 6).map(str),
    cli.AT_LEAST_0: st.integers(0, 6).map(str),
    cli.UNIT: st.floats(0, 1).map(repr),
    cli.POSITIVE: st.floats(1e-3, 10).map(repr),
    cli.SIZES: st.lists(st.integers(0, 30), min_size=1, max_size=3).map(
        lambda sizes: ",".join(map(str, sizes))),
}
INVALID = {
    cli.INTEGER: NOT_AN_INTEGER,
    cli.AT_LEAST_1: NOT_AN_INTEGER | st.integers(-3, 0).map(str),
    cli.AT_LEAST_0: NOT_AN_INTEGER | st.integers(-3, -1).map(str),
    cli.UNIT: NOT_A_NUMBER | st.sampled_from(["-0.5", "1.5", "2"]),
    cli.POSITIVE: NOT_A_NUMBER | st.sampled_from(["0", "-1", "0.0"]),
    cli.SIZES: st.sampled_from(["", "x", "1,,2", "1,-1", "1.5", "-x"]),
}
# each command's input and output flags; its value flags are all drawn
PATHS = {
    "parse": ["--in", "gold.tsv", "--out", "out.jsonl"],
    "augment": ["--gold", "gold.tsv", "--out", "out.jsonl", "--tsv-out", "out.tsv"],
    "score": ["--pool", "pool.jsonl", "--gold", "gold.tsv", "--out", "out.tsv"],
    "select": ["--pool", "pool.jsonl", "--scores", "scores.tsv", "--out", "out.json"],
    "split": ["--full", "gold.tsv", "--train", "gold.tsv", "--out", "out.tsv"],
    "milab": ["--out", "out.json"],
    "report": [*REPORT[1:], "--harmony", "vowels.tsv"],
    "pipeline": MISSING_OUT_DIR[1:],
}


def _value_flags(command: str) -> list:
    """(flag, its Rule, or its choices) of each flag of command that takes a checked value."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(action.option_strings[0], getattr(action.type, "__self__", None) or action.choices)
            for action in sub.choices[command]._actions
            if isinstance(getattr(action.type, "__self__", None), cli.Rule) or action.choices]


def _toy_grammar_holds(values: dict, uncoupled: bool) -> bool:
    """Whether milab's toy grammar has the drawn sizes: 1..12 MSDs, 1..208
    stems, and unless uncoupled at least as many stems as MSDs."""
    stems, msds = int(values["--stems"]), int(values["--msds"])
    return 1 <= msds <= 12 and 1 <= stems <= 208 and (uncoupled or stems >= msds)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(PATHS)), data=st.data())
def test_drawn_flag_values_exit_1_exactly_when_one_is_invalid(seeds, command, data):
    flags = _value_flags(command)
    names = st.sampled_from([flag for flag, _ in flags])
    bad = data.draw(st.just(set()) | st.sets(names, min_size=1, max_size=2))
    values = {}
    for flag, rule in flags:
        if isinstance(rule, cli.Rule):
            values[flag] = data.draw((INVALID if flag in bad else VALID)[rule])
        else:
            values[flag] = "none" if flag in bad else data.draw(st.sampled_from(rule))
    uncoupled = command == "milab" and data.draw(st.booleans())
    argv = [command, *PATHS[command], *(["--uncoupled"] if uncoupled else [])]
    for flag, value in values.items():
        argv += [flag, value]
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        _seeded(seeds, root)
        code = _run(root, argv)
    usage = bool(bad) or (command == "milab" and not _toy_grammar_holds(values, uncoupled))
    assert code == 1 if usage else code in (0, 2)
