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

from dataclasses import dataclass

from .errors import MorphaugError, NoStem

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


@dataclass(frozen=True)
class CharAlignment:
    """Monotone alignment between a lemma and a form.

    pairs holds (lemma_index, form_index) with GAP (None) on the gapped side;
    cost is the Levenshtein distance."""

    lemma: str
    form: str
    pairs: tuple[tuple[int | None, int | None], ...]
    cost: int


@dataclass(frozen=True)
class Segmentation:
    """Stem/affix decomposition of a lemma-form pair.

    Spans are half-open [start, end) index ranges. stem_pairs lists the
    aligned (lemma_index, form_index) stem positions in order; corruption
    applies the same random draw to both sides of each pair."""

    lemma: str
    form: str
    lemma_stem_spans: tuple[tuple[int, int], ...]
    form_stem_spans: tuple[tuple[int, int], ...]
    stem_pairs: tuple[tuple[int, int], ...]

    @property
    def x_stem(self) -> str:
        return _cut(self.lemma, self.lemma_stem_spans)[0]

    @property
    def x_affix(self) -> str:
        return _cut(self.lemma, self.lemma_stem_spans)[1]

    @property
    def y_stem(self) -> str:
        return self.split_form(self.form)[0]

    @property
    def y_affix(self) -> str:
        return self.split_form(self.form)[1]

    def split_form(self, form: str) -> tuple[str, str]:
        """(stem, affix) of the gold form, or of any corruption of it (which
        keeps its length), cut at form_stem_spans."""
        return _cut(form, self.form_stem_spans)


def _cut(text: str, spans: tuple[tuple[int, int], ...]) -> tuple[str, str]:
    """The characters of text inside the sorted, disjoint spans, and the rest."""
    bounds = [0, *(i for span in spans for i in span), len(text)]
    pieces = [text[a:b] for a, b in zip(bounds, bounds[1:])]
    return "".join(pieces[1::2]), "".join(pieces[::2])


# backtrace ops, in preference order for equal (cost, -matches)
_MATCH, _SUB, _DEL, _INS = 0, 1, 2, 3


def align(lemma: str, form: str) -> CharAlignment:
    """Minimum-edit-cost alignment maximizing matched characters among
    minimum-cost paths."""
    if not lemma or not form:
        raise MorphaugError("align requires non-empty strings")
    n, m = len(lemma), len(form)
    # One int per cell orders paths by (cost, -matches): key = cost*w - matches
    # with w > any match count, so a step costs +w and a match -1. Candidates
    # are tried in op order and replaced only by a strictly smaller key.
    w = min(n, m) + 1
    prev = list(range(0, (m + 1) * w, w))
    ops = [[_INS] * (m + 1)]
    for i, a in enumerate(lemma, start=1):
        left = i * w
        row = [left]
        op_row = [_DEL]
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
    return CharAlignment(lemma=lemma, form=form, pairs=tuple(pairs), cost=-(-prev[m] // w))


def extract_stem(a: CharAlignment, min_run: int = 3) -> Segmentation:
    """Segment a pair into stem (maximal matched runs >= min_run) and affix.

    Raises NoStem when no run is long enough; such triples are excluded from
    augmentation."""
    runs: list[list[tuple[int, int]]] = []
    current: list[tuple[int, int]] = []
    for i, j in a.pairs:
        if i is not GAP and j is not GAP and a.lemma[i] == a.form[j]:
            current.append((i, j))
        else:
            if current:
                runs.append(current)
            current = []
    if current:
        runs.append(current)
    stem_runs = [r for r in runs if len(r) >= min_run]
    if not stem_runs:
        raise NoStem(f"no aligned run of length >= {min_run} for {a.lemma!r}/{a.form!r}")
    lemma_spans = tuple((r[0][0], r[-1][0] + 1) for r in stem_runs)
    form_spans = tuple((r[0][1], r[-1][1] + 1) for r in stem_runs)
    stem_pairs = tuple(p for r in stem_runs for p in r)
    return Segmentation(
        lemma=a.lemma,
        form=a.form,
        lemma_stem_spans=lemma_spans,
        form_stem_spans=form_spans,
        stem_pairs=stem_pairs,
    )


def segmentation_from_boundary(lemma: str, form: str, stem_len: int) -> Segmentation:
    """Segmentation for a known prefix stem of length stem_len shared by lemma
    and form, bypassing alignment."""
    if stem_len < 1 or lemma[:stem_len] != form[:stem_len]:
        raise ValueError("lemma and form do not share the given prefix stem")
    span = ((0, stem_len),)
    return Segmentation(
        lemma=lemma,
        form=form,
        lemma_stem_spans=span,
        form_stem_spans=span,
        stem_pairs=tuple((i, i) for i in range(stem_len)),
    )
