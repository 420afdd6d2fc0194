"""Subset selection over a scored synthetic pool.

Seven strategies: uniform random; MSD-templatic sampling from
q_alpha(T) = p(T)^alpha / sum_T p(T)^alpha with alpha=0 (uniform over MSDs,
"umt") or alpha=1 (empirical MSD distribution, "ume"); exact top-k / bottom-k
by uncertainty ("highloss" / "lowloss"); and the hybrids that sample an MSD
from q_alpha and then take the most uncertain remaining candidate for it.
All sampling is without replacement and deterministic given the seed.

A PoolIndex holds what the strategies derive from one pool, each part
computed once, so a sweep of selections over one pool groups, orders and
ranks it once.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

from .corruption import SyntheticExample
from .errors import MorphaugError
from .scoring import require_scored

STRATEGIES = ("random", "umt", "ume", "highloss", "lowloss", "umt-loss", "ume-loss")
# the kinds that rank by score, so need a scored pool
LOSS_KINDS = ("highloss", "lowloss", "umt-loss", "ume-loss")


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


def check_k(k: int, pool_size: int) -> None:
    if k > pool_size:
        raise MorphaugError(f"requested k={k} exceeds pool size {pool_size}")
    if k < 0:
        raise ValueError("k must be >= 0")


class PoolIndex:
    """What selection derives from one pool, each part computed when a
    selection first needs it: the ids and MSD strings, the id order, the MSD
    groups in id order, the two loss orders and the hybrids' groups.
    Selections work on example positions and pop from copies of the groups,
    so the index serves any number of selections."""

    def __init__(self, pool: Sequence[SyntheticExample]):
        self.pool = list(pool)

    def __len__(self) -> int:
        return len(self.pool)

    @cached_property
    def ids(self) -> list[str]:
        return [e.triple.id for e in self.pool]

    @cached_property
    def msds(self) -> list[str]:
        """Each example's MSD string, joining each distinct MSD once."""
        msds = [e.triple.msd for e in self.pool]
        joined = {msd: ";".join(msd) for msd in set(msds)}
        return list(map(joined.__getitem__, msds))

    @cached_property
    def id_order(self) -> list[int]:
        """Positions sorted by id; equal ids keep their pool order."""
        return sorted(range(len(self.pool)), key=self.ids.__getitem__)

    @cached_property
    def groups(self) -> dict[str, list[int]]:
        """MSD -> the positions of its examples in id order, MSDs sorted."""
        groups = defaultdict(list)
        msds = self.msds
        for p in self.id_order:
            groups[msds[p]].append(p)
        return {m: groups[m] for m in sorted(groups)}

    def msd_weights(self, alpha: float) -> dict[str, float]:
        """p(T)^alpha per MSD, in the order of `groups`. q_alpha is defined
        from the full pool's empirical p(T); the candidates shrink during
        selection but the weights stay fixed and are renormalized over the
        MSDs that still have candidates."""
        n = len(self.pool)
        return {m: (len(g) / n) ** alpha for m, g in self.groups.items()}

    @cached_property
    def scores(self) -> list[float]:
        """Each example's score; a data error if any is missing."""
        return [e.score for e in require_scored(self.pool)]

    @cached_property
    def highest_loss(self) -> list[int]:
        """Positions by (-score, id): a stable sort of the id order, which
        reverse=True keeps for equal scores. It equals a sort by the key
        (-score, id) for every score but NaN, which read_pool_jsonl rejects."""
        return sorted(self.id_order, key=self.scores.__getitem__, reverse=True)

    @cached_property
    def lowest_loss(self) -> list[int]:
        """Positions by (score, id)."""
        return sorted(self.id_order, key=self.scores.__getitem__)

    @cached_property
    def hybrid_groups(self) -> dict[str, list[int]]:
        """Each MSD group by (-score, id), reversed, so pop() takes its most
        uncertain remaining candidate."""
        score = self.scores.__getitem__
        return {m: sorted(g, key=score, reverse=True)[::-1] for m, g in self.groups.items()}

    def _draw_by_msd(self, groups: dict[str, list[int]], alpha: float, k: int,
                     rng: random.Random, take: Callable[[list[int]], int]) -> list[int]:
        """Repeat k times: draw an MSD by weight among those that still have
        candidates, then remove take(candidates) from a copy of its group. The
        live MSDs and their cumulative weights are rebuilt only when a group
        empties; choices() with cum_weights makes the same draw as with the
        weights."""
        weights = self.msd_weights(alpha)
        groups = {m: g.copy() for m, g in groups.items()}
        live = list(groups)
        cum = list(accumulate(map(weights.__getitem__, live)))
        choices = rng.choices
        picked = []
        for _ in range(k):
            cands = groups[choices(live, cum_weights=cum)[0]]
            picked.append(take(cands))
            if not cands:
                live = [m for m in live if groups[m]]
                cum = list(accumulate(map(weights.__getitem__, live)))
        return picked

    def select(self, strategy: SelectionStrategy) -> dict:
        """The selection of `strategy` as the record {"strategy": {"kind",
        "k", "alpha", "seed"}, "selected_ids", "per_msd_counts"}, the last
        counting the selected examples of each MSD string; the MSD-drawn
        kinds use q_alpha with the strategy's alpha."""
        kind, k, alpha, seed = strategy.kind, strategy.k, strategy.alpha, strategy.seed
        if kind in LOSS_KINDS:
            self.scores  # an unscored pool is refused before any other check
        check_k(k, len(self.pool))
        if kind == "random":
            picked = random.Random(seed).sample(range(len(self.pool)), k)
        elif kind == "highloss" or kind == "lowloss":
            ranked = self.highest_loss if kind == "highloss" else self.lowest_loss
            picked = ranked[:k]
            seed = 0  # a ranking draws nothing, so its result records seed 0
        elif kind == "umt" or kind == "ume":
            rng = random.Random(seed)
            picked = self._draw_by_msd(self.groups, alpha, k, rng,
                                       lambda cands: cands.pop(rng.randrange(len(cands))))
        else:
            picked = self._draw_by_msd(self.hybrid_groups, alpha, k,
                                       random.Random(seed), list.pop)
        return {
            "strategy": {"kind": kind, "k": k, "alpha": alpha, "seed": seed},
            "selected_ids": list(map(self.ids.__getitem__, picked)),
            "per_msd_counts": dict(Counter(map(self.msds.__getitem__, picked))),
        }


def select(pool: Sequence[SyntheticExample] | PoolIndex,
           strategy: SelectionStrategy) -> dict:
    """The selection of `strategy` from a pool, or from the PoolIndex of one."""
    index = pool if isinstance(pool, PoolIndex) else PoolIndex(pool)
    return index.select(strategy)

