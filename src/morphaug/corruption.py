"""Stem corruption: Bernoulli(theta) substitution of aligned stem characters.

Each aligned stem position flips an independent Bernoulli(theta); on success
the lemma and the form receive the same uniformly drawn replacement character,
so corrupted stems stay identical on both sides. Affix characters and the MSD
are never touched.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass

from .alignment import Segmentation, align, extract_stem, levenshtein
from .corpus import Alphabet, Dataset, InflectionTriple
from .errors import AlphabetTooSmall, MissingKey, NoAlignableTriples, NoStem

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


@dataclass(frozen=True)
class SyntheticExample:
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
        # the constructor directly: dataclasses.replace costs several times more
        return SyntheticExample(self.triple, self.source_id, self.substituted_lemma_positions,
                                self.substituted_form_positions, self.lev_to_gold_target, nll)


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
        raise AlphabetTooSmall("need >= 2 characters to exclude the original")
    chars = alphabet.chars
    n_chars = len(chars)
    # with the original excluded, draw among the other n-1 characters and
    # step over the original's index: the same draw as indexing the list of
    # all characters but the original
    index = alphabet.index if cfg.exclude_original else {}
    draw, randrange, theta = rng.random, rng.randrange, cfg.theta
    lemma = list(t.lemma)
    form = list(t.form)
    sub_lemma: list[int] = []
    sub_form: list[int] = []
    for li, fi in seg.stem_pairs:
        if draw() < theta:
            k = index.get(t.lemma[li])
            if k is None:
                c = chars[randrange(n_chars)]
            else:
                r = randrange(n_chars - 1)
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
    return SyntheticExample(
        triple=InflectionTriple(
            id=new_id if new_id is not None else f"{t.id}~syn",
            lemma=lemma, form=form, msd=t.msd,
        ),
        source_id=t.id,
        substituted_lemma_positions=tuple(sub_lemma),
        substituted_form_positions=tuple(sub_form),
        lev_to_gold_target=distance,
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
        raise NoAlignableTriples(f"no triple in {gold.name!r} has an alignable stem")
    skipped = {tid for tid, s in segs.items() if s is None}
    if skipped:
        log.info("skipping %d unalignable gold triples: %s", len(skipped), sorted(skipped))
    rng = random.Random(cfg.seed)
    pool: list[SyntheticExample] = []
    while len(pool) < n:
        t = gold[rng.randrange(len(gold))]
        seg = segs[t.id]
        if seg is None:
            continue
        pool.append(corrupt(t, seg, alphabet, cfg, rng, new_id=f"syn{len(pool):06d}"))
    return pool


def pool_to_dataset(pool: list[SyntheticExample], name: str = "syn-pool") -> Dataset:
    return Dataset(triples=tuple(e.triple for e in pool), name=name)


def write_pool_jsonl(pool: list[SyntheticExample]) -> str:
    lines = []
    for e in pool:
        lines.append(json.dumps({
            "id": e.id,
            "source_id": e.source_id,
            "lemma": e.triple.lemma,
            "form": e.triple.form,
            "msd": list(e.triple.msd),
            "substituted_lemma_positions": list(e.substituted_lemma_positions),
            "substituted_form_positions": list(e.substituted_form_positions),
            "lev_to_gold_target": e.lev_to_gold_target,
            "score": e.score,
        }, ensure_ascii=False))
    return "".join(ln + "\n" for ln in lines)


def read_pool_jsonl(text: str) -> list[SyntheticExample]:
    pool = []
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        d = json.loads(line)
        try:
            pool.append(SyntheticExample(
                triple=InflectionTriple(
                    id=d["id"], lemma=d["lemma"], form=d["form"], msd=tuple(d["msd"])
                ),
                source_id=d["source_id"],
                substituted_lemma_positions=tuple(d["substituted_lemma_positions"]),
                substituted_form_positions=tuple(d["substituted_form_positions"]),
                lev_to_gold_target=d["lev_to_gold_target"],
                score=d.get("score"),
            ))
        except KeyError as e:
            raise MissingKey(line_no, e.args[0]) from None
    return pool


def pool_to_tsv(pool: list[SyntheticExample]) -> str:
    """Triples only, for trainer consumption."""
    return "".join(
        f"{e.triple.lemma}\t{e.triple.form}\t{e.triple.msd_string}\n" for e in pool
    )
