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

from .corpus import Alphabet, HarmonyRule
from .corruption import CorruptionConfig
from .errors import MorphaugError
from .util import derive_seed, row_blocks

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
    harmonize_lemma: bool = True,
) -> ToyGrammar:
    """Random grammar over a 6-character alphabet (2 consonants, 4 vowels),
    with stems of length 3 and the lemma affix "in". A coupled grammar gives
    every MSD its own stems, so it needs at least as many stems as MSDs."""
    chars = _CONSONANTS + _VOWELS
    # the distinct stems: strings of length 3 with at least one vowel
    n_possible = len(chars) ** 3 - len(_CONSONANTS) ** 3
    if not 1 <= n_msds <= len(_SUFFIXES):
        raise ValueError(f"n_msds must be in 1..{len(_SUFFIXES)}, got {n_msds}")
    if not 1 <= n_stems <= n_possible:
        raise ValueError(f"n_stems must be in 1..{n_possible} for stems of length 3, "
                         f"got {n_stems}")
    if coupled and n_stems < n_msds:
        raise ValueError(f"a coupled grammar needs n_stems >= n_msds, got {n_stems} < {n_msds}")
    rng = random.Random(seed)
    stems: set[str] = set()
    while len(stems) < n_stems:
        s = "".join(rng.choice(chars) for _ in range(3))
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
        lemma_affix="in",
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
    no example is ever built. The draws are those of corruption.corrupt,
    inlined; no distance to the gold form is computed."""
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
    # the stem, so one draw per stem position substitutes both, as corrupt
    # does for a stem pair.
    plans: dict[int, tuple] = {}
    records = Counter()
    for _ in range(n):
        k = getrandbits(bits)  # randrange(n_gold), inlined as in corruption.generate_pool
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


# Cells drawn per block of a bootstrap's multinomial tables: 2**14 int64
# counts (128 KiB) plus _mi_bits's float temporaries of the same shape, about
# 0.4 MiB in all, whatever the resample count and table size. Each of a curve
# point's bootstrap threads holds one block at a time, so the block sets
# their share of milab's peak; 2**13 saves only ~0.4 MiB more, with twice the
# blocks. The draws do not depend on it.
BOOTSTRAP_BLOCK_CELLS = 2 ** 14


def _percentile(values, q: float) -> float:
    """np.percentile(values, q) of ascending values, bit for bit, in plain
    floats: numpy's default linear rule, whose virtual index is
    (n - 1) * (q / 100). Values must hold no -0.0, whose result depends on
    the order numpy's partition leaves the zeros in; an MI sum is never -0.0.
    np.percentile would import numpy.ma (1.2 MiB, ~14 ms) for the two
    numbers of a CI."""
    last = len(values) - 1
    virtual = last * (q / 100)
    if virtual >= last:
        lo = hi = -1  # numpy takes the last value twice, with t = virtual + 1
    else:
        lo = int(virtual)
        hi = lo + 1
    a, b = float(values[lo]), float(values[hi])
    t = virtual - lo
    diff = b - a
    # numpy's _lerp, which takes the nearer end of the interval as its base
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def estimate_mi(joint: Counter, resamples: int = 0, seed: int = 0) -> dict:
    """Plug-in MI of a Counter of categorical pairs with positive counts, as
    the record {"bits", "n", "ci": [low, high]}; the CI is the bootstrap
    percentile interval (multinomial resampling of the empirical joint,
    drawn and reduced in row blocks of at most BOOTSTRAP_BLOCK_CELLS cells),
    or [None, None] with no resamples."""
    n = joint.total()
    if not n:
        raise ValueError("estimate_mi requires at least one sample")
    counts = _joint_counts(joint)
    est = {"bits": float(_mi_bits(counts)), "n": n, "ci": [None, None]}
    if resamples > 0:
        flat = counts.ravel() / n
        rng = np.random.default_rng(seed)
        dist = np.empty(resamples)
        for start, stop in row_blocks(flat.size, resamples, BOOTSTRAP_BLOCK_CELLS):
            boot = rng.multinomial(n, flat, size=stop - start)
            dist[start:stop] = _mi_bits(boot.reshape(-1, *counts.shape))
        dist.sort()
        est["ci"] = [_percentile(dist, 2.5), _percentile(dist, 97.5)]
    return est


def convexity_bound_check(
    i_g: float, i_a: float, lam: float, i_mixture: float, epsilon: float = 0.02
) -> bool:
    """I_mixture <= lam*I_gold + (1-lam)*I_syn + epsilon."""
    return i_mixture <= lam * i_g + (1 - lam) * i_a + epsilon


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
) -> list[dict]:
    """MI of the gold/synthetic mixture for each synthetic size, for all four
    variable pairs, with bootstrap CIs, per-point convexity verdicts and the
    mixture's factorization gap: one curve.json point per size, each pair's
    estimate and verdict keyed by its name ("y_stem/t"); every point's
    gold_only is the one dict of gold estimates. Gold is counted, projected
    and estimated once, each synthetic set counted and projected once, and
    each mixture count and pair table is the sum of the two.

    A point's four mixture bootstraps run on worker threads, each with its
    own seeded generator (numpy's multinomial draw releases the GIL), so the
    curve does not depend on the number of threads. The curve waits for all
    four before its next step."""
    gold = generate_gold(g, gold_n, seed=derive_seed(seed, "gold"))
    gold_rec = Counter(gold)
    gold_pairs = _pair_counts(gold_rec)
    gold_est = {"/".join(pair): estimate_mi(joint) for pair, joint in gold_pairs.items()}
    points = []
    with ThreadPoolExecutor(max_workers=_bootstrap_workers()) as pool:
        for s in syn_sizes:
            syn_rec = corrupt_toy(gold, g, s, theta, seed=derive_seed(seed, f"syn-{s}")) \
                if s else Counter()
            syn_pairs = _pair_counts(syn_rec)
            lam = gold_n / (gold_n + s)
            # the mixture's tables: projection is linear, and _joint_counts sorts levels
            futures = {"/".join(pair): pool.submit(
                estimate_mi, gold_pairs[pair] + syn_pairs[pair], resamples=resamples,
                seed=derive_seed(seed, f"boot-{s}-{pair}")) for pair in MI_PAIRS}
            mix_est = {name: f.result() for name, f in futures.items()}
            syn_est = {"/".join(pair): estimate_mi(joint)
                       for pair, joint in syn_pairs.items()} if s else None
            points.append({
                "syn_size": s,
                "lambda": lam,
                "mixture": mix_est,
                "gold_only": gold_est,
                "syn_only": syn_est,
                "convexity_ok": {name: convexity_bound_check(gold_est[name]["bits"],
                                                             syn_est[name]["bits"] if s else 0.0,
                                                             lam, mix_est[name]["bits"])
                                 for name in mix_est},
                # Counter addition keeps the first-occurrence order of gold + syn
                "factorization_gap": factorization_gap(gold_rec + syn_rec),
            })
    return points


def factorization_gap(records: Counter) -> dict | None:
    """Mean TV distance, over observed (X, T) cells with >= 5 samples,
    between the empirical P(Y|X,T) and the factorized product
    P(Y_affix|X_affix,T) * P(Y_stem|X_stem), from a Counter of toy records,
    as the record {"tv_distance", "cells_used", "skip_rate"}.
    A cell is a (stem, x_affix, msd) and a form its y_affix: harmony keeps
    the lemma affix's length, so (stem, x_affix) is one-to-one with the
    lemma, and within a cell y_affix with the form.
    Cells and the forms in a cell are visited in first-occurrence order.
    Lemma and form share the stem (x_stem = y_stem), so P(Y_stem|X_stem)
    is 1. None if no cell reaches 5 samples."""
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
        if n < 5:
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
        return None
    return {"tv_distance": float(np.mean(tvs)), "cells_used": len(tvs),
            "skip_rate": skipped / (len(tvs) + skipped)}

