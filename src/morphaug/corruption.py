"""Stem corruption: Bernoulli(theta) substitution of aligned stem characters.

Each aligned stem position flips an independent Bernoulli(theta); on success
the lemma and the form receive the same uniformly drawn replacement character,
so corrupted stems stay identical on both sides. Affix characters and the MSD
are never touched.
"""

from __future__ import annotations

import json
import logging
import math
import random
import re
import reprlib
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import NamedTuple

from .alignment import Segmentation, align, extract_stem, levenshtein
from .corpus import Alphabet, Dataset, InflectionTriple, derived_triple
from .errors import LineError, MorphaugError, NoStem
from .util import lines

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CorruptionConfig:
    theta: float = 0.5
    exclude_original: bool = True
    min_run: int = 3
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

    @property
    def msd_string(self) -> str:
        return self.triple.msd_string

    def with_score(self, nll: float) -> "SyntheticExample":
        return SyntheticExample(*self[:5], nll)


def substitute(
    t: InflectionTriple,
    seg: Segmentation,
    alphabet: Alphabet,
    cfg: CorruptionConfig,
    rng: random.Random,
) -> tuple[str, str, list[int], list[int]]:
    """The stem draws of one corruption: (lemma, form, substituted lemma
    positions, substituted form positions). Each stem pair flips one
    Bernoulli(theta); on success both sides get the same replacement."""
    if cfg.exclude_original and len(alphabet) < 2:
        raise MorphaugError("need >= 2 characters to exclude the original")
    chars = alphabet.chars
    n_all = len(chars)
    n_other = n_all - 1
    # with the original excluded, draw among the other n-1 characters and
    # step over the original's index: the same draw as indexing the list of
    # all characters but the original. Each draw is randrange(n) inlined:
    # getrandbits(n.bit_length()) until the result is below n.
    bits_all, bits_other = n_all.bit_length(), n_other.bit_length()
    index = alphabet.index if cfg.exclude_original else {}
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
    return "".join(lemma), "".join(form), sub_lemma, sub_form


def corrupt(
    t: InflectionTriple,
    seg: Segmentation,
    alphabet: Alphabet,
    cfg: CorruptionConfig,
    rng: random.Random,
    new_id: str | None = None,
) -> SyntheticExample:
    """Corrupt one triple using the supplied segmentation and RNG state."""
    lemma, form, sub_lemma, sub_form = substitute(t, seg, alphabet, cfg, rng)
    # the two forms agree outside the substituted window, and an equal prefix
    # and suffix leave the edit distance unchanged
    if sub_form:
        lo, hi = min(sub_form), max(sub_form) + 1
        distance = levenshtein(form[lo:hi], t.form[lo:hi])
    else:
        distance = 0
    # t is validated, and the corrupted triple keeps its MSD and its lengths
    return SyntheticExample(
        derived_triple(new_id if new_id is not None else f"{t.id}~syn", lemma, form, t.msd),
        t.id, tuple(sub_lemma), tuple(sub_form), distance,
    )


def segment_dataset(gold: Dataset, min_run: int = 3) -> dict:
    """Align every gold triple; value is None where no stem is found."""
    segs: dict[str, Segmentation | None] = {}
    for t in gold:
        try:
            segs[t.id] = extract_stem(align(t.lemma, t.form), min_run=min_run)
        except NoStem:
            segs[t.id] = None
    return segs


def generate_pool(
    gold: Dataset, n: int, alphabet: Alphabet, cfg: CorruptionConfig
) -> list[SyntheticExample]:
    """Draw n corrupted examples, sampling gold triples uniformly with
    replacement. Unalignable triples are skipped and logged."""
    if n < 1:
        raise ValueError("n must be >= 1")
    segs = segment_dataset(gold, min_run=cfg.min_run)
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
        r = getrandbits(bits)  # randrange(n_gold), inlined as in substitute
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
        except RecursionError as e:
            raise LineError(line_no, f"not valid JSON: {e}") from None
        if not isinstance(d, dict):
            raise LineError(line_no, f"expected a JSON object, got {type(d).__name__}")
        try:
            bad = _bad_value(d, "\\" in line)
        except KeyError as e:
            raise LineError(line_no, f"missing key {e.args[0]!r}") from None
        if bad:
            key, expected = bad
            raise LineError(line_no, f"{key!r} must be {expected}, got {reprlib.repr(d.get(key))}")
        try:
            triple = InflectionTriple(id=d["id"], lemma=d["lemma"], form=d["form"],
                                      msd=tuple(d["msd"]))
        except ValueError as e:
            raise LineError(line_no, e) from None
        if triple.id in ids:
            raise LineError(line_no, f"duplicate id {triple.id!r}")
        ids.add(triple.id)
        pool.append(SyntheticExample(triple, d["source_id"],
                                     tuple(d["substituted_lemma_positions"]),
                                     tuple(d["substituted_form_positions"]),
                                     d["lev_to_gold_target"], d.get("score")))
    return pool


_LINE_BREAK = re.compile("[\t\n\r]")
_SURROGATE = re.compile("[\ud800-\udfff]")
_ID_RULE = "a string with no tab, \\n or \\r that does not start with U+FEFF"


def _bad_value(d: dict, escaped: bool) -> tuple[str, str] | None:
    """The first key of a pool line whose value has the wrong type, with the
    type it needs; None if every value is right. No string holds a tab, "\\n"
    or "\\r", so an id<TAB>nll line and a triple's TSV line read back, nor
    a lone surrogate, which UTF-8 cannot write; only a JSON escape (in an
    `escaped` line) writes one. An id or source id does not start with
    U+FEFF. The score, which may be absent, is null or a finite number >= 0,
    the rule of scoring.check_nll. JSON gives exactly str, int, float, bool,
    list, dict or None, and a bool is no int here."""
    for key in ("id", "source_id", "lemma", "form"):
        if type(d[key]) is not str:
            return key, "a string"
    for key in ("id", "source_id"):
        if d[key].startswith("\ufeff"):
            return key, _ID_RULE
    msd = d["msd"]
    if type(msd) is not list or any(type(tok) is not str for tok in msd):
        return "msd", "a list of strings"
    for key in ("id", "source_id", "lemma", "form", "msd") if escaped else ():
        if key != "msd" and _LINE_BREAK.search(d[key]):
            return key, _ID_RULE if "id" in key else "a string with no tab, \\n or \\r"
        if _SURROGATE.search("".join(d[key])):  # an msd's tokens are joined
            return key, "free of lone surrogates (U+D800 to U+DFFF)"
    for key in ("substituted_lemma_positions", "substituted_form_positions"):
        positions = d[key]
        if type(positions) is not list or any(type(i) is not int for i in positions):
            return key, "a list of integers"
    if type(d["lev_to_gold_target"]) is not int or d["lev_to_gold_target"] < 0:
        return "lev_to_gold_target", "an integer >= 0"
    score = d.get("score")
    if score is not None and not (type(score) in (int, float) and 0 <= score < math.inf):
        return "score", "null or a finite number >= 0"
    return None


def unknown_source(source_id: str) -> MorphaugError:
    """The data error of a pool example whose source id names no gold triple it can use."""
    return MorphaugError(f"source id {source_id!r} of the pool names no alignable gold triple")


def check_sources(pool: list[SyntheticExample], gold: Dataset) -> None:
    """Check that every example is a stem corruption of the gold triple its
    source_id names: the same MSD, and a lemma and form that equal the gold
    ones once the gold characters are put back at the substituted positions
    (each in range), since corruption never touches affixes or the MSD."""
    for e in pool:
        try:
            src = gold.by_id(e.source_id)
        except KeyError:
            raise unknown_source(e.source_id) from None
        t = e.triple
        if not (t.msd == src.msd
                and _restores(t.lemma, src.lemma, e.substituted_lemma_positions)
                and _restores(t.form, src.form, e.substituted_form_positions)):
            raise MorphaugError(f"pool example {e.id!r} is not a stem corruption of gold "
                                f"triple {e.source_id!r}; is --gold the file the pool was made "
                                "from?")


def _restores(got: str, want: str, positions: tuple[int, ...]) -> bool:
    if len(got) != len(want):
        return False
    chars = list(got)
    for i in positions:
        if type(i) is not int or not 0 <= i < len(chars):
            return False
        chars[i] = want[i]
    return "".join(chars) == want
