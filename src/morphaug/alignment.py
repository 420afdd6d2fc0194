"""Character alignment and stem/affix segmentation.

The stem of a lemma-form pair is the set of maximal runs of aligned identical
characters of length >= min_run (default 3) under a minimum-edit-cost
alignment. Among minimum-cost alignments we take the one with the most matched
characters, with a fixed backtrace preference (match > substitution >
deletion > insertion) so results are deterministic.

The distance alone (`levenshtein`) uses the bit-parallel algorithm of
Myers (1999) in the formulation of Hyyrö (2003) on Python ints, which is
exact for strings of any length.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import MorphaugError

GAP = None


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance, by the Myers/Hyyrö bit-parallel algorithm.

    Bit i of the vertical delta vectors vp/vn is +1/-1 between rows i and
    i+1 of the current DP column, with the shorter string along the rows;
    each character of the longer string advances one column in a constant
    number of int operations."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    bit = 1
    for c in b:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    vp, vn, dist = mask, 0, len(b)
    for c in a:
        eq = peq.get(c, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & last:
            dist += 1
        elif hn & last:
            dist -= 1
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(xv | hp)) & mask
        vn = hp & xv
    return dist


class Segmentation(NamedTuple):
    """The stem of a lemma-form pair: the aligned (lemma_index, form_index)
    stem positions, in order. Every other position is affix. Corruption
    applies the same random draw to both sides of each pair."""

    stem_pairs: tuple[tuple[int, int], ...]

    def split_form(self, form: str) -> tuple[str, str]:
        """(stem, affix) of the gold form, or of any corruption of it (which
        keeps its length): the characters at the pairs' form positions, and
        the rest, each in order."""
        affix, stem = list(form), []
        for _, j in self.stem_pairs:
            stem.append(affix[j])
            affix[j] = ""
        return "".join(stem), "".join(affix)


# backtrace ops, in preference order for equal (cost, -matches)
_MATCH, _SUB, _DEL, _INS = 0, 1, 2, 3


def align(lemma: str, form: str) -> tuple[tuple[int | None, int | None], ...]:
    """The monotone (lemma_index, form_index) pairs, with GAP (None) on the
    gapped side, of a minimum-edit-cost alignment maximizing matched
    characters among minimum-cost paths."""
    if not lemma or not form:
        raise MorphaugError("align requires non-empty strings")
    n, m = len(lemma), len(form)
    # One int per cell orders paths by (cost, -matches): key = cost*w - matches
    # with w > any match count, so a step costs +w and a match -1. Candidates
    # are tried in op order and replaced only by a strictly smaller key.
    w = min(n, m) + 1
    prev = list(range(0, (m + 1) * w, w))
    ops = [bytearray([_INS]) * (m + 1)]  # the backtrace ops, one byte per cell
    for i, a in enumerate(lemma, start=1):
        left = i * w
        row = [left]
        op_row = bytearray([_DEL])
        for b, diag, up in zip(form, prev, prev[1:]):
            if a == b:
                best, o = diag - 1, _MATCH
            else:
                best, o = diag + w, _SUB
            up += w
            if up < best:
                best, o = up, _DEL
            left += w
            if left < best:
                best, o = left, _INS
            left = best
            row.append(best)
            op_row.append(o)
        ops.append(op_row)
        prev = row
    pairs = []
    i, j = n, m
    while i > 0 or j > 0:
        o = ops[i][j]
        if o in (_MATCH, _SUB):
            pairs.append((i - 1, j - 1))
            i, j = i - 1, j - 1
        elif o == _DEL:
            pairs.append((i - 1, GAP))
            i -= 1
        else:
            pairs.append((GAP, j - 1))
            j -= 1
    pairs.reverse()
    return tuple(pairs)


def extract_stem(lemma: str, form: str, min_run: int = 3) -> Segmentation | None:
    """The stem of a lemma-form pair: the maximal matched runs of length
    >= min_run of its alignment. None when no run is that long; such
    triples are excluded from augmentation."""
    stem: list[tuple[int, int]] = []
    run: list[tuple[int, int]] = []
    for i, j in (*align(lemma, form), (GAP, GAP)):  # a final gap ends the last run
        if i is not GAP and j is not GAP and lemma[i] == form[j]:
            run.append((i, j))
        else:
            if len(run) >= min_run:
                stem += run
            run = []
    return Segmentation(tuple(stem)) if stem else None
