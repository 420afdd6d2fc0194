"""Diagnostics over scored pools and selections: Pearson correlations of
uncertainty with corruption degree / lengths, MSD mode frequency, bootstrap
percentile intervals, and vowel-harmony violation statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .alignment import Segmentation
from .corruption import SyntheticExample
from .errors import EmptySelection, MissingSegmentation, TooFewSamples, ZeroVariance
from .milab import HarmonyRule
from .scoring import require_scored
from .selection import SelectionResult


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


def correlations(
    pool: Sequence[SyntheticExample], segmentations: dict[str, Segmentation]
) -> CorrelationReport:
    """Pearson r of nll against corruption distance, stem length, and target
    length. Segmentations are keyed by gold source id."""
    pool = require_scored(pool)
    if len(pool) < 3:
        raise TooFewSamples("need >= 3 scored examples")
    nll = [e.score for e in pool]
    lev = [e.lev_to_gold_target for e in pool]
    try:
        stem_len = [len(segmentations[e.source_id].y_stem) for e in pool]
    except KeyError as err:
        raise MissingSegmentation(err.args[0]) from None
    target_len = [len(e.triple.form) for e in pool]
    try:
        r_lev = pearson(nll, lev)
    except ZeroVariance:
        raise ZeroVariance("lev_to_gold_target") from None
    try:
        r_stem = pearson(nll, stem_len)
    except ZeroVariance:
        raise ZeroVariance("stem_length") from None
    try:
        r_len = pearson(nll, target_len)
    except ZeroVariance:
        raise ZeroVariance("target_length") from None
    return CorrelationReport(
        pearson_nll_levenshtein=r_lev,
        pearson_nll_stem_length=r_stem,
        pearson_nll_target_length=r_len,
        n=len(pool),
    )


def msd_mode_frequency(sel: SelectionResult) -> tuple[str, int]:
    """The most commonly selected MSD and its count; ties lexicographic."""
    if len(sel) == 0:
        raise EmptySelection("selection is empty")
    return sel.per_msd_counts.mode()


@dataclass(frozen=True)
class BootstrapCI:
    statistic: str
    point: float
    lower: float
    upper: float
    resamples: int
    level: float

    def __post_init__(self):
        if not self.lower <= self.point <= self.upper:
            raise ValueError("percentile CI must contain the point estimate")


# Indices drawn per block of bootstrap rows: 2**16 int64 indices (512 KiB),
# plus as many gathered floats, whatever the resample count and sample size;
# a block and its gather stay in cache. The draws do not depend on it.
BOOTSTRAP_BLOCK_ELEMENTS = 2 ** 16


def resample_blocks(rng: np.random.Generator, n: int, resamples: int):
    """The rows of rng.integers(0, n, size=(resamples, n)) as (first row,
    block) pairs, each block at most BOOTSTRAP_BLOCK_ELEMENTS indices (at
    least one row). The blocks consume the generator exactly as the one full
    draw would."""
    rows = max(1, BOOTSTRAP_BLOCK_ELEMENTS // n)
    for start in range(0, resamples, rows):
        yield start, rng.integers(0, n, size=(min(rows, resamples - start), n))


def bootstrap_means(rng: np.random.Generator, x: np.ndarray, resamples: int) -> np.ndarray:
    """Mean of each of `resamples` with-replacement resamples of x."""
    means = np.empty(resamples)
    for start, idx in resample_blocks(rng, len(x), resamples):
        means[start:start + len(idx)] = x[idx].mean(axis=1)
    return means


def bootstrap_percentile(
    samples: Sequence[float],
    statistic: Callable[[Sequence[float]], float] = None,
    resamples: int = 10000,
    level: float = 0.95,
    seed: int = 0,
    name: str = "statistic",
) -> BootstrapCI:
    """Percentile CI of a statistic over with-replacement resamples."""
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    samples = list(samples)
    if len(samples) < 2:
        raise TooFewSamples("bootstrap needs >= 2 samples")
    if statistic is None:
        statistic = lambda xs: float(np.mean(xs))
    point = float(statistic(samples))
    rng = np.random.default_rng(seed)
    arr = np.asarray(samples, dtype=float)
    dist = np.empty(resamples)
    for start, idx in resample_blocks(rng, len(arr), resamples):
        for i, row in enumerate(idx, start):
            dist[i] = statistic(arr[row])
    alpha = (1 - level) / 2
    lower, upper = np.percentile(dist, [100 * alpha, 100 * (1 - alpha)])
    lower = min(float(lower), point)
    upper = max(float(upper), point)
    return BootstrapCI(statistic=name, point=point, lower=lower, upper=upper,
                       resamples=resamples, level=level)


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
        try:
            seg = segmentations[e.source_id]
        except KeyError:
            raise MissingSegmentation(e.source_id) from None
        stem, affix = seg.split_form(e.triple.form)
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
