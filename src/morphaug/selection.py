"""Subset selection over a scored synthetic pool.

Seven strategies: uniform random; MSD-templatic sampling from
q_alpha(T) = p(T)^alpha / sum_T p(T)^alpha with alpha=0 (uniform over MSDs,
"umt") or alpha=1 (empirical MSD distribution, "ume"); exact top-k / bottom-k
by uncertainty ("highloss" / "lowloss"); and the hybrids that sample an MSD
from q_alpha and then take the most uncertain remaining candidate for it.
All sampling is without replacement and deterministic given the seed.
"""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import Callable, Sequence

from .corpus import MsdHistogram
from .corruption import SyntheticExample
from .errors import KTooLarge
from .scoring import require_scored

STRATEGIES = ("random", "umt", "ume", "highloss", "lowloss", "umt-loss", "ume-loss")


@dataclass(frozen=True)
class SelectionStrategy:
    """A strategy, the subset size k and the seed."""

    kind: str
    k: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.kind!r}")

    @property
    def alpha(self) -> float:
        """q_alpha's exponent, fixed by the kind: 1 (the empirical MSD
        distribution) for ume and ume-loss, 0 (uniform over MSDs) otherwise."""
        return 1.0 if self.kind in ("ume", "ume-loss") else 0.0


@dataclass(frozen=True)
class SelectionResult:
    selected_ids: tuple[str, ...]
    strategy: SelectionStrategy
    per_msd_counts: MsdHistogram

    def __len__(self) -> int:
        return len(self.selected_ids)

    def to_json(self) -> str:
        return json.dumps({
            "strategy": {
                "kind": self.strategy.kind,
                "k": self.strategy.k,
                "alpha": self.strategy.alpha,
                "seed": self.strategy.seed,
            },
            "selected_ids": list(self.selected_ids),
            "per_msd_counts": self.per_msd_counts.counts,
        }, ensure_ascii=False, indent=2)


def check_k(k: int, pool_size: int) -> None:
    if k > pool_size:
        raise KTooLarge(k, pool_size)
    if k < 0:
        raise ValueError("k must be >= 0")


def _msd_strings(examples: Sequence[SyntheticExample]) -> list[str]:
    """Each example's MSD string, joining each distinct MSD once."""
    joined = {msd: ";".join(msd) for msd in {e.triple.msd for e in examples}}
    return [joined[e.triple.msd] for e in examples]


def _result(selected: list[SyntheticExample], strategy: SelectionStrategy) -> SelectionResult:
    return SelectionResult(
        selected_ids=tuple(e.triple.id for e in selected),
        strategy=strategy,
        per_msd_counts=MsdHistogram(counts=dict(Counter(_msd_strings(selected))),
                                    total=len(selected)),
    )


def select_random(pool: Sequence[SyntheticExample], k: int, seed: int = 0) -> SelectionResult:
    check_k(k, len(pool))
    rng = random.Random(seed)
    selected = rng.sample(list(pool), k)
    return _result(selected, SelectionStrategy(kind="random", k=k, seed=seed))


def _msd_weights(pool: Sequence[SyntheticExample], alpha: float) -> dict[str, float]:
    # q_alpha is defined from the full pool's empirical p(T); the candidate
    # pool shrinks during selection but the weights stay fixed and are
    # renormalized over MSDs that still have candidates.
    counts = Counter(_msd_strings(pool))
    total = len(pool)
    return {m: (c / total) ** alpha for m, c in counts.items()}


def _group_by_msd(pool: Sequence[SyntheticExample]) -> dict[str, list[SyntheticExample]]:
    groups: dict[str, list[SyntheticExample]] = defaultdict(list)
    ordered = sorted(pool, key=attrgetter("triple.id"))
    for e, msd in zip(ordered, _msd_strings(ordered)):
        groups[msd].append(e)
    return groups


def _draw_by_msd(groups: dict[str, list[SyntheticExample]], weights: dict[str, float],
                 k: int, rng: random.Random,
                 take: Callable[[list[SyntheticExample]], SyntheticExample],
                 ) -> list[SyntheticExample]:
    """Repeat k times: draw an MSD by weight among those that still have
    candidates, then remove take(candidates) from its group. The sorted live
    MSDs and their cumulative weights are rebuilt only when a group empties;
    choices() with cum_weights makes the same draw as with the weights."""
    live = sorted(groups)
    cum = list(accumulate(weights[m] for m in live))
    selected = []
    for _ in range(k):
        cands = groups[rng.choices(live, cum_weights=cum, k=1)[0]]
        selected.append(take(cands))
        if not cands:
            live = [m for m in live if groups[m]]
            cum = list(accumulate(weights[m] for m in live))
    return selected


def select_templatic(pool: Sequence[SyntheticExample], k: int, alpha: float,
                     seed: int = 0) -> SelectionResult:
    """Repeat k times: draw an MSD from q_alpha, then a uniform candidate
    with that MSD; remove it. The result is labelled umt if alpha is 0, else
    ume (whose strategy reports alpha 1)."""
    check_k(k, len(pool))
    rng = random.Random(seed)
    selected = _draw_by_msd(_group_by_msd(pool), _msd_weights(pool, alpha), k, rng,
                            lambda cands: cands.pop(rng.randrange(len(cands))))
    kind = "umt" if alpha == 0 else "ume"
    return _result(selected, SelectionStrategy(kind=kind, k=k, seed=seed))


def select_by_loss(pool: Sequence[SyntheticExample], k: int,
                   direction: str = "highest") -> SelectionResult:
    """Exact top-k (or bottom-k) by nll; ties broken by lowest id."""
    if direction not in ("highest", "lowest"):
        raise ValueError(f"direction must be 'highest' or 'lowest', got {direction!r}")
    pool = require_scored(pool)
    check_k(k, len(pool))
    if direction == "highest":
        ranked = sorted(pool, key=lambda e: (-e.score, e.id))
        kind = "highloss"
    else:
        ranked = sorted(pool, key=lambda e: (e.score, e.id))
        kind = "lowloss"
    return _result(ranked[:k], SelectionStrategy(kind=kind, k=k))


def select_hybrid(pool: Sequence[SyntheticExample], k: int, alpha: float,
                  seed: int = 0) -> SelectionResult:
    """Repeat k times: draw an MSD from q_alpha, take its most uncertain
    remaining candidate (ties by lowest id); remove it. Labelled as
    select_templatic, with the -loss suffix."""
    pool = require_scored(pool)
    check_k(k, len(pool))
    groups = _group_by_msd(pool)
    # most uncertain last (ties by lowest id), so pop() takes it
    for cands in groups.values():
        cands.sort(key=lambda e: (-e.score, e.id))
        cands.reverse()
    selected = _draw_by_msd(groups, _msd_weights(pool, alpha), k, random.Random(seed), list.pop)
    kind = "umt-loss" if alpha == 0 else "ume-loss"
    return _result(selected, SelectionStrategy(kind=kind, k=k, seed=seed))


def select(pool: Sequence[SyntheticExample], strategy: SelectionStrategy) -> SelectionResult:
    kind, k, alpha, seed = strategy.kind, strategy.k, strategy.alpha, strategy.seed
    if kind == "random":
        return select_random(pool, k, seed)
    if kind in ("umt", "ume"):
        return select_templatic(pool, k, alpha, seed)
    if kind == "highloss":
        return select_by_loss(pool, k, "highest")
    if kind == "lowloss":
        return select_by_loss(pool, k, "lowest")
    if kind in ("umt-loss", "ume-loss"):
        return select_hybrid(pool, k, alpha, seed)
    raise ValueError(f"unknown strategy {kind!r}")
