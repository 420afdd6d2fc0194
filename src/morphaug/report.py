"""Diagnostics over scored pools: Pearson correlations of uncertainty with
corruption degree / lengths, and vowel-harmony violation statistics with a
bootstrap p-value."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .alignment import Segmentation
from .corruption import SyntheticExample, unknown_source
from .errors import MorphaugError, ZeroVariance
from .milab import HarmonyRule
from .scoring import require_scored
from .util import row_blocks


@dataclass(frozen=True)
class CorrelationReport:
    pearson_nll_levenshtein: float
    pearson_nll_stem_length: float
    pearson_nll_target_length: float
    n: int


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.std() == 0:
        raise ZeroVariance("x")
    if y.std() == 0:
        raise ZeroVariance("y")
    return float(np.corrcoef(x, y)[0, 1])


def _segmentation(segmentations: dict[str, Segmentation], source_id: str) -> Segmentation:
    try:
        return segmentations[source_id]
    except KeyError:
        raise unknown_source(source_id) from None


def correlations(
    pool: Sequence[SyntheticExample], segmentations: dict[str, Segmentation]
) -> CorrelationReport:
    """Pearson r of nll against corruption distance, stem length, and target
    length. Segmentations are keyed by gold source id."""
    pool = require_scored(pool)
    if len(pool) < 3:
        raise MorphaugError("need >= 3 scored examples")
    nll = [e.score for e in pool]
    lev = [e.lev_to_gold_target for e in pool]
    stem_len = [len(_segmentation(segmentations, e.source_id).stem_pairs) for e in pool]
    target_len = [len(e.triple.form) for e in pool]
    # the CorrelationReport's field order; a constant column is named
    rs = []
    for name, xs in (("lev_to_gold_target", lev), ("stem_length", stem_len),
                     ("target_length", target_len)):
        try:
            rs.append(pearson(nll, xs))
        except ZeroVariance as e:
            raise ZeroVariance("nll" if e.variable == "x" else name) from None
    return CorrelationReport(*rs, n=len(pool))


def msd_mode(counts: dict) -> tuple[str, int]:
    """The most frequent MSD of an MSD -> count map, and its count; ties go
    to the lexicographically smallest MSD."""
    top = max(counts.values())
    return min(m for m, c in counts.items() if c == top), top


def bootstrap_means(rng: np.random.Generator, x: np.ndarray, resamples: int) -> np.ndarray:
    """Mean of each of `resamples` with-replacement resamples of x."""
    n = len(x)
    means = np.empty(resamples)
    for start, stop in row_blocks(n, resamples):
        means[start:stop] = x[rng.integers(0, n, size=(stop - start, n))].mean(axis=1)
    return means


@dataclass(frozen=True)
class HarmonyStats:
    violation_rate: float
    mean_nll_violating: float | None
    mean_nll_adhering: float | None
    bootstrap_p: float | None
    n_violating: int
    n_adhering: int


def harmony_violation_stats(
    pool: Sequence[SyntheticExample],
    cfg: HarmonyRule,
    segmentations: dict[str, Segmentation],
    resamples: int = 10000,
    seed: int = 0,
) -> HarmonyStats:
    """Group mean NLL for harmony-violating vs adhering examples, with a
    one-sided bootstrap percentile p-value for the mean difference.

    An example violates iff any affix vowel's class differs from the last
    corrupted-stem vowel's class. Stems and affixes come from the gold
    segmentation applied to the corrupted strings."""
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    pool = require_scored(pool)
    violating: list[float] = []
    adhering: list[float] = []
    for e in pool:
        stem, affix = _segmentation(segmentations, e.source_id).split_form(e.triple.form)
        (violating if cfg.violates(stem, affix) else adhering).append(e.score)
    rate = len(violating) / len(pool)
    if not violating or not adhering:
        return HarmonyStats(
            violation_rate=rate,
            mean_nll_violating=float(np.mean(violating)) if violating else None,
            mean_nll_adhering=float(np.mean(adhering)) if adhering else None,
            bootstrap_p=None,
            n_violating=len(violating),
            n_adhering=len(adhering),
        )
    rng = np.random.default_rng(seed)
    v = np.asarray(violating)
    a = np.asarray(adhering)
    # all of v's resamples first, then all of a's: the generator's order
    diffs = bootstrap_means(rng, v, resamples) - bootstrap_means(rng, a, resamples)
    # one-sided: P(difference <= 0) under the bootstrap distribution
    p = float(np.mean(diffs <= 0))
    return HarmonyStats(
        violation_rate=rate,
        mean_nll_violating=float(v.mean()),
        mean_nll_adhering=float(a.mean()),
        bootstrap_p=p,
        n_violating=len(v),
        n_adhering=len(a),
    )
