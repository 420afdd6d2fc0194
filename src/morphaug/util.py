"""Seed derivation, config hashing, bootstrap row blocks, input lines, whole-file writes."""

from __future__ import annotations

import hashlib
import json
import os


def derive_seed(seed: int, label: str) -> int:
    """Stable 63-bit seed for a named stage, derived from the top-level seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def config_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, ensure_ascii=False, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# Cells drawn per block of bootstrap rows (report's resampled indices,
# milab's multinomial tables): 2**16 int64 values (512 KiB) plus the floats
# computed from them, whatever the resample count and row size; a block and
# its temporaries stay in cache. The draws do not depend on it.
BOOTSTRAP_BLOCK_ELEMENTS = 2 ** 16


def row_blocks(row_size: int, rows: int):
    """(start, stop) of consecutive blocks of `rows` rows of `row_size`
    cells, each block at most BOOTSTRAP_BLOCK_ELEMENTS cells (at least one
    row). Drawing the blocks in turn consumes a generator as one draw of all
    the rows would."""
    step = max(1, BOOTSTRAP_BLOCK_ELEMENTS // row_size)
    for start in range(0, rows, step):
        yield start, min(start + step, rows)


def lines(text: str):
    """(number, line) of each non-blank line of an input text, numbered
    from 1 with the blank lines. A line ends at "\\n" only (json writes
    U+2028, U+2029 and U+0085 unescaped) and without one trailing "\\r"."""
    for line_no, line in enumerate(text.split("\n"), 1):
        if line.strip():
            yield line_no, line.removesuffix("\r")


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
