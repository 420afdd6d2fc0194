"""Empirical information-theory lab on toy concatenative grammars.

Generates controlled gold data (form = stem ++ affix), mixes it with
stem-corrupted synthetic data at gold fraction lambda, and measures:

  * plug-in mutual information (bits) between the four stem/affix/tag
    variable pairs, which should decay to ~0 as lambda -> 0 when corruption
    replaces every stem character;
  * the convexity bound I_mixture <= lambda*I_gold + (1-lambda)*I_syn;
  * the total-variation gap between the empirical P(Y|X,T) and the
    factorized product P(Y_affix|X_affix,T) * P(Y_stem|X_stem).

Each example set is counted once, as a Counter of its records (corrupt_toy
counts its draws as they are made and never holds the examples); every MI
table, bootstrap and factorization gap of the curve is derived from those
counts.

An optional vowel-harmony rule makes affixes agree with the last stem vowel's
class, which breaks the factorization and is the built-in counterexample.
A toy record holds its stem and affixes, so it is never segmented.
"""

from __future__ import annotations

import os
import random
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import Alphabet
from .corruption import CorruptionConfig
from .errors import LineError, MorphaugError
from .util import derive_seed, lines, row_blocks

MI_PAIRS = (
    ("y_stem", "t"),
    ("y_stem", "x_affix"),
    ("y_affix", "y_stem"),
    ("y_affix", "x_stem"),
)

# the field of a toy record (stem, msd, x_affix, y_affix) that holds each MI
# variable (lemma and form share the prefix stem, so x_stem and y_stem are
# both the stem)
_VARIABLE_FIELD = {"t": 1, "x_stem": 0, "x_affix": 2, "y_stem": 0, "y_affix": 3}


@dataclass(frozen=True)
class HarmonyRule:
    """Vowel harmony: affix vowels take the class of the last stem vowel.

    `vowel_classes` maps each vowel to a class label; consonants are
    unmapped. A vowel labelled "neutral" never sets the stem's class, is
    never harmonized and never counts as a violation. `pairs` maps each
    vowel to its counterpart in the other class; only harmonize reads it."""

    vowel_classes: dict
    pairs: dict | None = None

    def __post_init__(self):
        if not self.vowel_classes:
            raise MorphaugError("vowel class map is empty")

    def stem_class(self, stem: str) -> str | None:
        for c in reversed(stem):
            cls = self.vowel_classes.get(c)
            if cls is not None and cls != "neutral":
                return cls
        return None

    def _clashes(self, c: str, cls: str) -> bool:
        own = self.vowel_classes.get(c)
        return own is not None and own != "neutral" and own != cls

    def harmonize(self, affix: str, cls: str | None) -> str:
        if cls is None:
            return affix
        return "".join(self.pairs[c] if self._clashes(c, cls) else c for c in affix)

    def violates(self, stem: str, affix: str) -> bool:
        cls = self.stem_class(stem)
        return cls is not None and any(self._clashes(c, cls) for c in affix)


def read_harmony_tsv(text: str) -> HarmonyRule:
    """The HarmonyRule of a char<TAB>class vowel TSV, whose lines are util.lines."""
    classes = {}
    for line_no, line in lines(text):
        fields = line.split("\t")
        if len(fields) != 2 or len(fields[0]) != 1 or not fields[1]:
            raise LineError(line_no, "expected char<TAB>class, one character and a non-empty "
                                     f"class, got {line!r}")
        char, cls = fields
        if char in classes:
            raise LineError(line_no, f"{char!r} is listed twice")
        classes[char] = cls
    return HarmonyRule(vowel_classes=classes)


def default_harmony() -> HarmonyRule:
    return HarmonyRule(
        vowel_classes={"a": "back", "o": "back", "e": "front", "i": "front"},
        pairs={"a": "e", "e": "a", "o": "i", "i": "o"},
    )


@dataclass(frozen=True)
class ToyGrammar:
    """Concatenative suffixing grammar over a small alphabet.

    When stem_groups is set, gold sampling draws the stem from the sampled
    MSD's own group, giving the gold data genuine stem-tag dependence (so the
    mutual informations start well above estimator bias). When it is None,
    stems and MSDs are sampled independently.
    """

    stems: tuple[str, ...]
    affix_map: dict
    alphabet: Alphabet
    harmony: HarmonyRule | None = None
    lemma_affix: str = ""
    harmonize_lemma: bool = True
    stem_groups: dict | None = None

    def __post_init__(self):
        if any(len(s) < 3 for s in self.stems):
            raise ValueError("all stems must have length >= 3")
        if len(set(self.affix_map.values())) != len(self.affix_map):
            raise ValueError("affixes must be distinct per MSD")

    @property
    def msds(self) -> tuple[str, ...]:
        return tuple(sorted(self.affix_map))

    def realize(self, stem: str, msd: str) -> tuple[str, str]:
        """(x_affix, y_affix) for a stem/MSD combination."""
        y_affix = self.affix_map[msd]
        x_affix = self.lemma_affix
        if self.harmony is not None:
            cls = self.harmony.stem_class(stem)
            y_affix = self.harmony.harmonize(y_affix, cls)
            if self.harmonize_lemma:
                x_affix = self.harmony.harmonize(x_affix, cls)
        return x_affix, y_affix


class ToyExample(NamedTuple):
    """One toy datapoint as its record: the prefix stem, which lemma and form
    share verbatim (so it is both x_stem and y_stem), the MSD, and the
    ground-truth affixes of the lemma and the form."""

    stem: str
    msd: str
    x_affix: str
    y_affix: str

    @property
    def lemma(self) -> str:
        return self.stem + self.x_affix

    @property
    def form(self) -> str:
        return self.stem + self.y_affix


_CONSONANTS = ("d", "l")
_VOWELS = ("a", "e", "o", "i")
# distinct CV / CVC suffixes in back-vowel citation shape, one per MSD
_SUFFIXES = tuple([c + v for c in _CONSONANTS for v in ("a", "o")]
                  + [c + v + c2 for c in _CONSONANTS for v in ("a", "o") for c2 in _CONSONANTS])


def make_toy_grammar(
    n_stems: int,
    n_msds: int,
    seed: int = 0,
    harmony: bool = False,
    coupled: bool = False,
    lemma_affix: str = "in",
    harmonize_lemma: bool = True,
    stem_len: int = 3,
) -> ToyGrammar:
    """Random grammar over a 6-character alphabet (2 consonants, 4 vowels).
    A coupled grammar gives every MSD its own stems, so it needs at least
    as many stems as MSDs."""
    chars = _CONSONANTS + _VOWELS
    # the distinct stems: strings of stem_len with at least one vowel
    n_possible = len(chars) ** stem_len - len(_CONSONANTS) ** stem_len
    if not 1 <= n_msds <= len(_SUFFIXES):
        raise ValueError(f"n_msds must be in 1..{len(_SUFFIXES)}, got {n_msds}")
    if not 1 <= n_stems <= n_possible:
        raise ValueError(f"n_stems must be in 1..{n_possible} for stems of length {stem_len}, "
                         f"got {n_stems}")
    if coupled and n_stems < n_msds:
        raise ValueError(f"a coupled grammar needs n_stems >= n_msds, got {n_stems} < {n_msds}")
    rng = random.Random(seed)
    stems: set[str] = set()
    while len(stems) < n_stems:
        s = "".join(rng.choice(chars) for _ in range(stem_len))
        if any(c in _VOWELS for c in s):
            stems.add(s)
    stem_tuple = tuple(sorted(stems))
    affix_map = {f"M{i}": _SUFFIXES[i] for i in range(n_msds)}
    stem_groups = None
    if coupled:
        groups: dict[str, list[str]] = {m: [] for m in affix_map}
        order = list(stem_tuple)
        rng.shuffle(order)
        for i, s in enumerate(order):
            groups[f"M{i % n_msds}"].append(s)
        stem_groups = {m: tuple(sorted(g)) for m, g in groups.items()}
    return ToyGrammar(
        stems=stem_tuple,
        affix_map=affix_map,
        alphabet=Alphabet(chars=tuple(sorted(chars))),
        harmony=default_harmony() if harmony else None,
        lemma_affix=lemma_affix,
        harmonize_lemma=harmonize_lemma,
        stem_groups=stem_groups,
    )


def generate_gold(g: ToyGrammar, n: int, seed: int = 0) -> list[ToyExample]:
    """n examples: MSD uniform, stem uniform (within the MSD's group when the
    grammar is coupled), form = stem ++ affix."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    msds = g.msds
    out = []
    for _ in range(n):
        msd = msds[rng.randrange(len(msds))]
        stems = g.stem_groups[msd] if g.stem_groups is not None else g.stems
        stem = stems[rng.randrange(len(stems))]
        out.append(ToyExample(stem, msd, *g.realize(stem, msd)))
    return out


def corrupt_toy(gold: list[ToyExample], g: ToyGrammar, n: int, theta: float,
                seed: int = 0) -> Counter:
    """The Counter of the records of n stem-corrupted examples, in
    first-occurrence order, from uniformly resampled gold sources, using the
    grammar's known stem boundary. Each record is counted as it is drawn, so
    no example is ever built. The draws are those of corruption.corrupt
    (corruption.substitute, inlined); no distance to the gold form is
    computed."""
    CorruptionConfig(theta=theta)  # rejects a theta outside [0, 1], as corrupt's config does
    if n > 0 and not gold:
        raise ValueError("corrupt_toy needs at least one gold example")
    chars, index = g.alphabet.chars, g.alphabet.index
    n_all = len(chars)
    n_other = n_all - 1
    if n > 0 and n_other < 1:
        raise MorphaugError("need >= 2 characters to exclude the original")
    bits_all, bits_other = n_all.bit_length(), n_other.bit_length()
    rng = random.Random(seed)
    draw, getrandbits = rng.random, rng.getrandbits
    n_gold = len(gold)
    bits = n_gold.bit_length()
    # gold index -> its plan, built on the source's first draw: the stem as a
    # list, each stem character's alphabet index (None outside the alphabet,
    # which draws among all n), and the msd and affixes. Lemma and form share
    # the stem, so one draw per stem position substitutes both, as substitute
    # does for a stem pair.
    plans: dict[int, tuple] = {}
    records = Counter()
    for _ in range(n):
        k = getrandbits(bits)  # randrange(n_gold), inlined as in corruption.substitute
        while k >= n_gold:
            k = getrandbits(bits)
        plan = plans.get(k)
        if plan is None:
            stem, msd, x_affix, y_affix = gold[k]
            plan = plans[k] = (list(stem), tuple(enumerate(map(index.get, stem))),
                               msd, x_affix, y_affix)
        shared, positions, msd, x_affix, y_affix = plan
        stem = shared[:]
        for i, original in positions:
            if draw() < theta:
                if original is None:
                    r = getrandbits(bits_all)
                    while r >= n_all:
                        r = getrandbits(bits_all)
                    stem[i] = chars[r]
                else:
                    r = getrandbits(bits_other)
                    while r >= n_other:
                        r = getrandbits(bits_other)
                    stem[i] = chars[r + (r >= original)]
        records["".join(stem), msd, x_affix, y_affix] += 1
    return records


@dataclass(frozen=True)
class MIEstimate:
    bits: float
    n_samples: int
    ci_low: float | None = None
    ci_high: float | None = None

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("plug-in MI must be nonnegative")


def _joint_counts(joint: Counter) -> np.ndarray:
    """The joint count table of a Counter of pairs, with sorted levels."""
    a_levels = {a: i for i, a in enumerate(sorted({a for a, _ in joint}))}
    b_levels = {b: i for i, b in enumerate(sorted({b for _, b in joint}))}
    counts = np.zeros((len(a_levels), len(b_levels)))
    for (a, b), c in joint.items():
        counts[a_levels[a], b_levels[b]] = c
    return counts


def _mi_bits(counts: np.ndarray) -> np.ndarray:
    """Plug-in MI in bits; counts (integer or float) has shape (..., r, c).
    The terms p * (log2 p - log2 pa - log2 pb) are reduced in place, and an
    empty cell's term (NaN) counts as +0.0, as nansum counts it."""
    n = counts.sum(axis=(-1, -2), keepdims=True)
    p = counts / n
    pa = p.sum(axis=-1, keepdims=True)
    pb = p.sum(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log2(p)
        terms -= np.log2(pa)
        terms -= np.log2(pb)
        terms *= p
    terms[p == 0] = 0.0
    return np.maximum(terms.sum(axis=(-1, -2)), 0.0)


def estimate_mi(joint: Counter, resamples: int = 0, seed: int = 0) -> MIEstimate:
    """Plug-in MI of a Counter of categorical pairs with positive counts,
    with optional bootstrap percentile CI (multinomial resampling of the
    empirical joint, drawn and reduced in row blocks of at most
    BOOTSTRAP_BLOCK_ELEMENTS cells)."""
    n = joint.total()
    if not n:
        raise ValueError("estimate_mi requires at least one sample")
    counts = _joint_counts(joint)
    bits = float(_mi_bits(counts))
    ci_low = ci_high = None
    if resamples > 0:
        flat = counts.ravel() / n
        rng = np.random.default_rng(seed)
        dist = np.empty(resamples)
        for start, stop in row_blocks(flat.size, resamples):
            boot = rng.multinomial(n, flat, size=stop - start)
            dist[start:stop] = _mi_bits(boot.reshape(-1, *counts.shape))
        ci_low, ci_high = (float(q) for q in np.percentile(dist, [2.5, 97.5]))
    return MIEstimate(bits=bits, n_samples=n, ci_low=ci_low, ci_high=ci_high)


def convexity_bound_check(
    i_g: float, i_a: float, lam: float, i_mixture: float, epsilon: float = 0.02
) -> bool:
    """I_mixture <= lam*I_gold + (1-lam)*I_syn + epsilon."""
    return i_mixture <= lam * i_g + (1 - lam) * i_a + epsilon


@dataclass(frozen=True)
class CurvePoint:
    syn_size: int
    lam: float
    mixture: dict
    gold_only: dict
    syn_only: dict | None
    convexity_ok: dict
    gap: FactorizationGap | None  # None when no (X, T) cell has enough support

    def to_dict(self) -> dict:
        def d(est):
            return {"bits": est.bits, "n": est.n_samples,
                    "ci": [est.ci_low, est.ci_high]}
        return {
            "factorization_gap": None if self.gap is None else {
                "tv_distance": self.gap.tv_distance,
                "cells_used": self.gap.cells_used,
                "skip_rate": self.gap.skip_rate,
            },
            "syn_size": self.syn_size,
            "lambda": self.lam,
            "mixture": {"/".join(p): d(e) for p, e in self.mixture.items()},
            "gold_only": {"/".join(p): d(e) for p, e in self.gold_only.items()},
            "syn_only": None if self.syn_only is None
                        else {"/".join(p): d(e) for p, e in self.syn_only.items()},
            "convexity_ok": {"/".join(p): ok for p, ok in self.convexity_ok.items()},
        }


def _pair_counts(records: Counter) -> dict:
    """The joint count of each MI pair, projected from a record count; pairs
    that read the same two fields share one Counter."""
    by_fields: dict[tuple, Counter] = {}
    out = {}
    for pair in MI_PAIRS:
        i, j = fields = tuple(_VARIABLE_FIELD[v] for v in pair)
        joint = by_fields.get(fields)
        if joint is None:
            joint = by_fields[fields] = Counter()
            for key, c in records.items():
                joint[key[i], key[j]] += c
        out[pair] = joint
    return out


def _bootstrap_workers() -> int:
    """Threads for a curve point's mixture bootstraps: one per MI pair, at
    most one per CPU this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(len(MI_PAIRS), cpus)


def mi_decay_curve(
    g: ToyGrammar,
    gold_n: int,
    syn_sizes: list[int],
    theta: float = 1.0,
    seed: int = 0,
    resamples: int = 200,
    epsilon: float = 0.02,
) -> list[CurvePoint]:
    """MI of the gold/synthetic mixture for each synthetic size, for all four
    variable pairs, with bootstrap CIs, per-point convexity verdicts and the
    mixture's factorization gap. Gold is counted and estimated once, each
    synthetic set counted once, and the mixture count is their sum.

    A point's four mixture bootstraps run on worker threads, each with its
    own seeded generator (numpy's multinomial draw releases the GIL), so the
    curve does not depend on the number of threads. The curve waits for all
    four before its next step."""
    gold = generate_gold(g, gold_n, seed=derive_seed(seed, "gold"))
    gold_rec = Counter(gold)
    gold_est = {pair: estimate_mi(joint)
                for pair, joint in _pair_counts(gold_rec).items()}
    points = []
    with ThreadPoolExecutor(max_workers=_bootstrap_workers()) as pool:
        for s in syn_sizes:
            syn_rec = corrupt_toy(gold, g, s, theta, seed=derive_seed(seed, f"syn-{s}")) \
                if s else Counter()
            # Counter addition keeps the first-occurrence order of gold + syn
            mixture = gold_rec + syn_rec
            lam = gold_n / (gold_n + s)
            futures = {pair: pool.submit(estimate_mi, joint, resamples=resamples,
                                         seed=derive_seed(seed, f"boot-{s}-{pair}"))
                       for pair, joint in _pair_counts(mixture).items()}
            mix_est = {pair: f.result() for pair, f in futures.items()}
            syn_est = {pair: estimate_mi(joint)
                       for pair, joint in _pair_counts(syn_rec).items()} if s else {}
            convex = {pair: convexity_bound_check(gold_est[pair].bits,
                                                  syn_est[pair].bits if s else 0.0, lam,
                                                  mix_est[pair].bits, epsilon)
                      for pair in MI_PAIRS}
            try:
                gap = factorization_gap(mixture)
            except ValueError:
                gap = None
            points.append(CurvePoint(
                syn_size=s, lam=lam, mixture=mix_est, gold_only=gold_est,
                syn_only=syn_est or None, convexity_ok=convex, gap=gap,
            ))
    return points


@dataclass(frozen=True)
class FactorizationGap:
    tv_distance: float
    cells_used: int
    cells_skipped: int

    def __post_init__(self):
        if not 0.0 <= self.tv_distance <= 1.0:
            raise ValueError("TV distance must lie in [0, 1]")

    @property
    def skip_rate(self) -> float:
        total = self.cells_used + self.cells_skipped
        return self.cells_skipped / total if total else 0.0


def factorization_gap(records: Counter, min_cell: int = 5) -> FactorizationGap:
    """Mean TV distance, over observed (X, T) cells with >= min_cell samples,
    between the empirical P(Y|X,T) and the factorized product
    P(Y_affix|X_affix,T) * P(Y_stem|X_stem), from a Counter of toy records.
    A cell is a (stem, x_affix, msd) and a form its y_affix: harmony keeps
    the lemma affix's length, so (stem, x_affix) is one-to-one with the
    lemma, and within a cell y_affix with the form.
    Cells and the forms in a cell are visited in first-occurrence order.
    Lemma and form share the stem (x_stem = y_stem), so P(Y_stem|X_stem)
    is 1."""
    cells: dict[tuple, Counter] = defaultdict(Counter)
    aff_cond: dict[tuple, Counter] = defaultdict(Counter)
    for (stem, msd, x_affix, y_affix), c in records.items():
        cells[stem, x_affix, msd][y_affix] += c
        aff_cond[x_affix, msd][y_affix] += c
    aff_total = {key: c.total() for key, c in aff_cond.items()}
    tvs = []
    skipped = 0
    for (_, x_affix, msd), forms in cells.items():
        n = forms.total()
        if n < min_cell:
            skipped += 1
            continue
        q_obs = 0.0
        abs_diff = 0.0
        aff_key = (x_affix, msd)
        for y_affix, c in forms.items():
            q = aff_cond[aff_key][y_affix] / aff_total[aff_key]
            q_obs += q
            abs_diff += abs(c / n - q)
        tvs.append(max(0.0, 0.5 * (abs_diff + (1.0 - q_obs))))
    if not tvs:
        raise ValueError("no (X, T) cell reaches the minimum support")
    return FactorizationGap(
        tv_distance=float(np.mean(tvs)), cells_used=len(tvs), cells_skipped=skipped
    )

