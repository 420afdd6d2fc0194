"""Diagnostics over scored pools: Pearson correlations of uncertainty with
corruption degree / lengths, and vowel-harmony violation statistics with a
bootstrap p-value."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .alignment import Segmentation
from .corruption import SyntheticExample
from .corpus import HarmonyRule
from .errors import MorphaugError
from .scoring import require_scored
from .util import row_blocks


def pearson(xs: Sequence[float], ys: Sequence[float], names=("x", "y")) -> float:
    """Pearson r of xs and ys; a constant column is a data error naming it by names."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    for column, name in zip((x, y), names):
        if column.std() == 0:
            raise MorphaugError(f"zero variance in {name}; correlation undefined")
    return float(np.corrcoef(x, y)[0, 1])


def correlations(pool: Sequence[SyntheticExample], stems: Sequence[Segmentation]) -> dict:
    """Pearson r of nll against corruption distance, stem length, and target
    length, as the record {"pearson_nll_levenshtein",
    "pearson_nll_stem_length", "pearson_nll_target_length", "n"}.
    stems[i] is the segmentation of pool[i]'s gold source, as
    corruption.check_sources returns it."""
    pool = require_scored(pool)
    if len(pool) < 3:
        raise MorphaugError("need >= 3 scored examples")
    nll = [e.score for e in pool]
    lev = [e.lev_to_gold_target for e in pool]
    stem_len = [len(seg.stem_pairs) for _, seg in zip(pool, stems, strict=True)]
    target_len = [len(e.triple.form) for e in pool]
    # each coefficient's key, and the name of its column should it be constant
    out = {"n": len(pool)}
    for key, name, xs in (("pearson_nll_levenshtein", "lev_to_gold_target", lev),
                          ("pearson_nll_stem_length", "stem_length", stem_len),
                          ("pearson_nll_target_length", "target_length", target_len)):
        out[key] = pearson(nll, xs, ("nll", name))
    return out


def msd_mode(counts: dict) -> tuple[str, int]:
    """The most frequent MSD of an MSD -> count map, and its count; ties go
    to the lexicographically smallest MSD."""
    top = max(counts.values())
    return min(m for m, c in counts.items() if c == top), top


# Indices drawn per block of bootstrap rows: 2**16 int64 values (512 KiB)
# plus the scores gathered from them, whatever the resample count and group
# size; a block and its temporaries stay in cache. A smaller block slows the
# report (1.08 -> 1.13 s in a probe). The draws do not depend on it.
BOOTSTRAP_BLOCK_CELLS = 2 ** 16


def bootstrap_means(rng: np.random.Generator, x: np.ndarray, resamples: int) -> np.ndarray:
    """Mean of each of `resamples` with-replacement resamples of x, drawn in
    row blocks of at most BOOTSTRAP_BLOCK_CELLS indices."""
    n = len(x)
    means = np.empty(resamples)
    for start, stop in row_blocks(n, resamples, BOOTSTRAP_BLOCK_CELLS):
        means[start:stop] = x[rng.integers(0, n, size=(stop - start, n))].mean(axis=1)
    return means


def harmony_violation_stats(
    pool: Sequence[SyntheticExample],
    cfg: HarmonyRule,
    stems: Sequence[Segmentation],
    resamples: int = 10000,
    seed: int = 0,
) -> dict:
    """Group mean NLL for harmony-violating vs adhering examples, with a
    one-sided bootstrap percentile p-value for the mean difference, as the
    record {"violation_rate", "mean_nll_violating", "mean_nll_adhering",
    "bootstrap_p", "n_violating", "n_adhering"}; a mean of an empty group,
    and the p-value unless both groups hold an example, is None.

    An example violates iff any affix vowel's class differs from the last
    corrupted-stem vowel's class. Stems and affixes come from the gold
    segmentation applied to the corrupted strings: stems[i] is that of
    pool[i]'s source, as corruption.check_sources returns it."""
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    pool = require_scored(pool)
    violating: list[float] = []
    adhering: list[float] = []
    for e, seg in zip(pool, stems, strict=True):
        stem, affix = seg.split_form(e.triple.form)
        (violating if cfg.violates(stem, affix) else adhering).append(e.score)
    p = None
    if violating and adhering:
        rng = np.random.default_rng(seed)
        # all of the violating resamples first, then all of the adhering: the generator's order
        diffs = (bootstrap_means(rng, np.asarray(violating), resamples)
                 - bootstrap_means(rng, np.asarray(adhering), resamples))
        # one-sided: P(difference <= 0) under the bootstrap distribution
        p = float(np.mean(diffs <= 0))
    return {
        "violation_rate": len(violating) / len(pool),
        "mean_nll_violating": float(np.mean(violating)) if violating else None,
        "mean_nll_adhering": float(np.mean(adhering)) if adhering else None,
        "bootstrap_p": p,
        "n_violating": len(violating),
        "n_adhering": len(adhering),
    }
