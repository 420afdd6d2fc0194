"""Seed derivation, config hashing, bootstrap row blocks, input lines and text, atomic writes."""

from __future__ import annotations

import hashlib
import json
import os
import re


def derive_seed(seed: int, label: str) -> int:
    """Stable 63-bit seed for a named stage, derived from the top-level seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def config_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, ensure_ascii=False, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def row_blocks(row_size: int, rows: int, cells: int):
    """(start, stop) of consecutive blocks of `rows` rows of `row_size`
    cells, each block at most `cells` cells (at least one row); each caller
    passes its own budget. Drawing the blocks in turn consumes a generator as
    one draw of all the rows would."""
    step = max(1, cells // row_size)
    for start in range(0, rows, step):
        yield start, min(start + step, rows)


def lines(text: str):
    """(number, line) of each non-blank line of an input text, numbered
    from 1 with the blank lines. A line ends at "\\n" only, not at a lone
    "\\r" or at U+2028, U+2029 or U+0085, which json writes unescaped; one
    trailing "\\r" is dropped."""
    for line_no, line in enumerate(text.split("\n"), 1):
        if line.strip():
            yield line_no, line.removesuffix("\r")


# The text rule of a field of an input line, which BAD_TEXT finds broken: no tab,
# "\n" or "\r", so a TSV line of it reads back, nor a lone surrogate, which UTF-8 cannot write.
BAD_TEXT = re.compile("[\t\n\r\ud800-\udfff]")
TEXT_RULE = "no tab, \\n, \\r or lone surrogate"


def atomic_write(path: str, text: str) -> None:
    """Write text to a new file at path, with the mode open(path, "w") gives
    a new file, 0o666 less the umask (mkstemp's would be 0o600). A write
    that fails removes the file, so there is a whole file at path or none;
    each artifact is staged through it, then renamed into place."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
    except BaseException:
        os.unlink(path)
        raise
