"""Stem corruption: Bernoulli(theta) substitution of aligned stem characters.

Each aligned stem position flips an independent Bernoulli(theta); on success
the lemma and the form receive the same uniformly drawn replacement, another
character of the alphabet, so corrupted stems stay identical on both sides.
Affix characters and the MSD are never touched.
"""

from __future__ import annotations

import json
import logging
import random
import reprlib
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import NamedTuple

from .alignment import Segmentation, extract_stem, levenshtein
from .corpus import Alphabet, Dataset, InflectionTriple, check_triple
from .errors import LineError, MorphaugError
from .util import BAD_TEXT, TEXT_RULE, lines

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CorruptionConfig:
    theta: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0,1], got {self.theta}")


class SyntheticExample(NamedTuple):
    """A corrupted triple with provenance back to its gold source."""

    triple: InflectionTriple
    source_id: str
    substituted_lemma_positions: tuple[int, ...]
    substituted_form_positions: tuple[int, ...]
    lev_to_gold_target: int
    score: float | None = None

    @property
    def id(self) -> str:
        return self.triple.id

    def with_score(self, nll: float) -> "SyntheticExample":
        return SyntheticExample(*self[:5], nll)


def corrupt(
    t: InflectionTriple,
    seg: Segmentation,
    alphabet: Alphabet,
    cfg: CorruptionConfig,
    rng: random.Random,
    new_id: str,
) -> SyntheticExample:
    """Corrupt one triple using the supplied segmentation and RNG state.
    Each stem pair flips one Bernoulli(theta); on success both sides get the
    same replacement."""
    if len(alphabet) < 2:
        raise MorphaugError("need >= 2 characters to exclude the original")
    chars, index = alphabet.chars, alphabet.index
    n_all = len(chars)
    n_other = n_all - 1
    # draw among the other n-1 characters and step over the original's index:
    # the same draw as indexing the list of all characters but the original.
    # An original outside the alphabet draws among all n. Each draw is
    # randrange(n) inlined: getrandbits(n.bit_length()) until it is below n.
    bits_all, bits_other = n_all.bit_length(), n_other.bit_length()
    draw, getrandbits, theta = rng.random, rng.getrandbits, cfg.theta
    source = t.lemma
    lemma = list(source)
    form = list(t.form)
    sub_lemma: list[int] = []
    sub_form: list[int] = []
    for li, fi in seg.stem_pairs:
        if draw() < theta:
            k = index.get(source[li])
            if k is None:
                r = getrandbits(bits_all)
                while r >= n_all:
                    r = getrandbits(bits_all)
                c = chars[r]
            else:
                r = getrandbits(bits_other)
                while r >= n_other:
                    r = getrandbits(bits_other)
                c = chars[r + (r >= k)]
            lemma[li] = c
            form[fi] = c
            sub_lemma.append(li)
            sub_form.append(fi)
    form_str = "".join(form)
    # the two forms agree outside the substituted window, and an equal prefix
    # and suffix leave the edit distance unchanged
    if sub_form:
        lo, hi = min(sub_form), max(sub_form) + 1
        distance = levenshtein(form_str[lo:hi], t.form[lo:hi])
    else:
        distance = 0
    return SyntheticExample(
        InflectionTriple(new_id, "".join(lemma), form_str, t.msd),
        t.id, tuple(sub_lemma), tuple(sub_form), distance,
    )


def segment_dataset(gold: Dataset) -> dict:
    """Align every gold triple; value is None where no stem is found."""
    return {t.id: extract_stem(t.lemma, t.form) for t in gold}


def generate_pool(
    gold: Dataset, n: int, alphabet: Alphabet, cfg: CorruptionConfig
) -> list[SyntheticExample]:
    """Draw n corrupted examples, sampling gold triples uniformly with
    replacement. Unalignable triples are skipped and logged."""
    if n < 1:
        raise ValueError("n must be >= 1")
    segs = segment_dataset(gold)
    if all(s is None for s in segs.values()):
        raise MorphaugError(f"no triple in {gold.name!r} has an alignable stem")
    skipped = {tid for tid, s in segs.items() if s is None}
    if skipped:
        log.info("skipping %d unalignable gold triples: %s", len(skipped), sorted(skipped))
    rng = random.Random(cfg.seed)
    getrandbits = rng.getrandbits
    triples = gold.triples
    n_gold = len(triples)
    bits = n_gold.bit_length()
    pool: list[SyntheticExample] = []
    while len(pool) < n:
        r = getrandbits(bits)  # randrange(n_gold), inlined as in corrupt
        while r >= n_gold:
            r = getrandbits(bits)
        t = triples[r]
        seg = segs[t.id]
        if seg is None:
            continue
        pool.append(corrupt(t, seg, alphabet, cfg, rng, new_id=f"syn{len(pool):06d}"))
    return pool


def write_pool_jsonl(pool: list[SyntheticExample]) -> str:
    """One line per example: the bytes of json.dumps(..., ensure_ascii=False)
    of its dict, written from a template. Strings go through json's own
    string encoder, the int positions and distance through str, and each
    distinct MSD is encoded once."""
    enc = encode_basestring
    msds: dict[tuple[str, ...], str] = {}
    lines = []
    for e in pool:
        t = e.triple
        msd = msds.get(t.msd)
        if msd is None:
            msd = msds[t.msd] = "[" + ", ".join(map(enc, t.msd)) + "]"
        lemma_pos = ", ".join(map(str, e.substituted_lemma_positions))
        form_pos = ", ".join(map(str, e.substituted_form_positions))
        score = "null" if e.score is None else json.dumps(e.score)
        lines.append(
            f'{{"id": {enc(t.id)}, "source_id": {enc(e.source_id)}, "lemma": {enc(t.lemma)}, '
            f'"form": {enc(t.form)}, "msd": {msd}, "substituted_lemma_positions": [{lemma_pos}], '
            f'"substituted_form_positions": [{form_pos}], '
            f'"lev_to_gold_target": {e.lev_to_gold_target}, "score": {score}}}\n')
    return "".join(lines)


def read_pool_jsonl(text: str) -> list[SyntheticExample]:
    """The pool of a JSONL text, whose lines are util.lines. A line that is
    not a JSON object with every key and a value of the right type for
    each, whose triple is invalid, or whose id is taken, is a data error
    naming the line (and the key)."""
    pool, ids = [], set()
    for line_no, line in lines(text):
        try:
            d = json.loads(line)
        except json.JSONDecodeError as e:
            raise LineError(line_no, f"not valid JSON, column {e.colno}: {e.msg}") from None
        except (RecursionError, ValueError) as e:  # ValueError: an integer of too many digits
            raise LineError(line_no, f"not valid JSON: {e}") from None
        if not isinstance(d, dict):
            raise LineError(line_no, f"expected a JSON object, got {type(d).__name__}")
        try:
            bad = _bad_value(d)
        except KeyError as e:
            raise LineError(line_no, f"missing key {e.args[0]!r}") from None
        if bad:
            key, expected = bad
            raise LineError(line_no, f"{key!r} must be {expected}, got {reprlib.repr(d.get(key))}")
        try:
            triple = check_triple(InflectionTriple(d["id"], d["lemma"], d["form"],
                                                   tuple(d["msd"])))
        except MorphaugError as e:
            raise LineError(line_no, e) from None
        if triple.id in ids:
            raise LineError(line_no, f"duplicate id {triple.id!r}")
        ids.add(triple.id)
        pool.append(SyntheticExample(triple, d["source_id"],
                                     tuple(d["substituted_lemma_positions"]),
                                     tuple(d["substituted_form_positions"]),
                                     d["lev_to_gold_target"], d.get("score")))
    return pool


def _bad_value(d: dict) -> tuple[str, str] | None:
    """The first key of a pool line whose value has the wrong type, with the
    type it needs; None if every value is right. An id or source id keeps
    util's text rule, so each id<TAB>nll line reads back, and does not
    start with U+FEFF; the lemma, form and MSD are check_triple's, which
    holds them to the same text rule, so a triple's TSV line reads back.
    The score, which may be absent, is null or a finite number >= 0
    that a float holds, the rule of scoring.check_nll. The distance to the
    gold target is at most the form's length: it is an edit distance between
    two strings of that length. JSON gives exactly str, int, float, bool,
    list, dict or None, and a bool is no int here."""
    for key in ("id", "source_id", "lemma", "form"):
        if type(d[key]) is not str:
            return key, "a string"
    for key in ("id", "source_id"):
        if BAD_TEXT.search(d[key]) or d[key].startswith("\ufeff"):
            return key, f"a string with {TEXT_RULE} that does not start with U+FEFF"
    msd = d["msd"]
    if type(msd) is not list or any(type(tok) is not str for tok in msd):
        return "msd", "a list of strings"
    for key in ("substituted_lemma_positions", "substituted_form_positions"):
        positions = d[key]
        if type(positions) is not list or any(type(i) is not int for i in positions):
            return key, "a list of integers"
    lev = d["lev_to_gold_target"]  # an empty form is check_triple's error
    if type(lev) is not int or lev < 0 or lev > len(d["form"]) > 0:
        return "lev_to_gold_target", "an integer >= 0 and <= the form's length"
    score, top = d.get("score"), sys.float_info.max
    if score is not None and not (type(score) in (int, float) and 0 <= score <= top):
        return "score", f"null or a finite number >= 0 and <= {top!r}"
    return None


def check_sources(pool: list[SyntheticExample], gold: Dataset) -> list[Segmentation]:
    """The segmentation of each example's gold source, as a list parallel to
    the pool: stems[i] is that of pool[i]'s source. Every example must be a
    stem corruption of the alignable gold triple its source_id names: the
    same MSD; its (lemma, form) position pairs, as many of one as of the
    other, stem pairs of the source in their order, with the same character
    on both sides; a lemma and form that equal the gold ones once the gold
    characters are put back at those positions (each in range), since
    corruption never touches affixes or the MSD; and a distance to the gold
    form of at most the number of form positions, the Hamming distance that
    bounds it."""
    segs = segment_dataset(gold)
    stems = []
    for e in pool:
        seg = segs.get(e.source_id)  # not []: bench/tracer.py counts each [] as a gold draw
        if seg is None:
            raise MorphaugError(f"source id {e.source_id!r} of the pool names no alignable gold "
                                "triple")
        src, t = gold.by_id(e.source_id), e.triple
        lemma_pos, form_pos = e.substituted_lemma_positions, e.substituted_form_positions
        rest = iter(seg.stem_pairs)
        if not (t.msd == src.msd and len(lemma_pos) == len(form_pos)
                and _restores(t.lemma, src.lemma, lemma_pos)
                and _restores(t.form, src.form, form_pos)
                and all(pair in rest and t.lemma[pair[0]] == t.form[pair[1]]
                        for pair in zip(lemma_pos, form_pos))
                and e.lev_to_gold_target <= len(form_pos)):
            raise MorphaugError(f"pool example {e.id!r} is not a stem corruption of gold "
                                f"triple {e.source_id!r}; is --gold the file the pool was made "
                                "from?")
        stems.append(seg)
    return stems


def _restores(got: str, want: str, positions: tuple[int, ...]) -> bool:
    if len(got) != len(want):
        return False
    chars = list(got)
    for i in positions:
        if type(i) is not int or not 0 <= i < len(chars):
            return False
        chars[i] = want[i]
    return "".join(chars) == want
