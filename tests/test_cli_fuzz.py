"""cli.main over mutated input files. Each input kind starts from a small
valid seed file, gets one mutation and runs through its command in process.
Whatever the bytes, no exception escapes main, the exit code is 0 or 2, no
temporary file is left, and a run that fails adds no file."""

import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from morphaug.cli import main

GOLD = (
    "walked\twalkeds\tV;PST\n"
    "talked\ttalkeds\tV;PST\n"
    "jumping\tjumpings\tV;PRS\n"
    "dreaming\tdreamings\tV;PRS\n"
    "kalap\tkalapler\tN;PL\n"
    "deniz\tdenizler\tN;PL\n"
)
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


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_a_mutated_input_file_exits_0_or_2_and_a_failure_writes_nothing(seeds, name, data):
    mutated = _mutate(data, name, seeds[name])
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for seed_name, text in {**seeds, name: mutated}.items():
            with open(seed_name, "wb") as f:
                f.write(text)
        os.mkdir("run")
        before = _files(root)
        code = main([*COMMANDS[name], "--quiet"])
        after = _files(root)
    assert code in (0, 2)
    assert not [f for f in after if ".tmp-" in f]
    if code:
        assert after == before
