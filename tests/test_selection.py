import math
import random
from collections import Counter

import pytest

from morphaug.corpus import InflectionTriple
from morphaug.corruption import SyntheticExample
from morphaug.errors import MorphaugError
from morphaug.selection import (
    LOSS_KINDS,
    STRATEGIES,
    PoolIndex,
    SelectionStrategy,
    select,
)

from conftest import selection_json


def _ex(tid, msd="N;PL", score=None):
    return SyntheticExample(
        triple=InflectionTriple(id=tid, lemma="aaa", form="aaas",
                                msd=tuple(msd.split(";"))),
        source_id="g1",
        substituted_lemma_positions=(),
        substituted_form_positions=(),
        lev_to_gold_target=0,
        score=score,
    )


def _pool_nine_vs_one(scored=False):
    # 9 examples carry one tag, 1 example the other
    pool = [_ex(f"a{i:02d}", "PL;ERG", score=float(i) if scored else None)
            for i in range(9)]
    pool.append(_ex("b00", "SG;ERG", score=100.0 if scored else None))
    return pool


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        SelectionStrategy(kind="fancy", k=1)


def test_alpha_is_fixed_by_the_kind():
    # alpha is not an input, so a result's label always matches its request
    with pytest.raises(TypeError):
        SelectionStrategy(kind="umt", k=5, alpha=0.5)
    pool = _pool_nine_vs_one(scored=True)
    for kind in STRATEGIES:
        strategy = SelectionStrategy(kind=kind, k=5, seed=2)
        assert strategy.alpha == (1.0 if kind in ("ume", "ume-loss") else 0.0)
        res = select(pool, strategy)
        assert (res.strategy.kind, res.strategy.alpha) == (kind, strategy.alpha)


def test_k_equals_pool_size_selects_everything():
    pool = _pool_nine_vs_one(scored=True)
    for kind in STRATEGIES:
        res = select(pool, SelectionStrategy(kind=kind, k=10, seed=1))
        assert sorted(res.selected_ids) == sorted(e.id for e in pool)
        assert res.per_msd_counts == {"PL;ERG": 9, "SG;ERG": 1}


def test_k_zero_selects_nothing():
    pool = _pool_nine_vs_one(scored=True)
    for kind in STRATEGIES:
        assert select(pool, SelectionStrategy(kind=kind, k=0)).selected_ids == ()


def test_index_raises_as_the_one_shot_functions():
    # only the loss kinds need scores, and k is checked after the scores
    index = PoolIndex(_pool_nine_vs_one())
    for kind in STRATEGIES:
        if kind in LOSS_KINDS:
            with pytest.raises(MorphaugError, match="^10 pool examples have no score$"):
                index.select(SelectionStrategy(kind=kind, k=11))
        else:
            assert len(index.select(SelectionStrategy(kind=kind, k=10))) == 10
            with pytest.raises(MorphaugError, match="^requested k=11 exceeds pool size 10$"):
                index.select(SelectionStrategy(kind=kind, k=11))
            with pytest.raises(ValueError):
                index.select(SelectionStrategy(kind=kind, k=-1))


def test_k_too_large():
    with pytest.raises(MorphaugError, match="^requested k=11 exceeds pool size 10$"):
        select(_pool_nine_vs_one(), SelectionStrategy("random", 11))


def test_no_duplicates_and_determinism():
    pool = _pool_nine_vs_one(scored=True)
    for kind in STRATEGIES:
        s = SelectionStrategy(kind=kind, k=5, seed=42)
        r1, r2 = select(pool, s), select(pool, s)
        assert r1.selected_ids == r2.selected_ids
        assert len(set(r1.selected_ids)) == 5


def test_random_single_draw_frequencies():
    # a uniform first draw from a 4-item pool hits each item with p=0.25
    pool = [_ex(f"x{i}") for i in range(4)]
    hits = Counter(select(pool, SelectionStrategy("random", 1, seed=s)).selected_ids[0]
                   for s in range(10_000))
    sigma = math.sqrt(0.25 * 0.75 / 10_000)
    for tid in ("x0", "x1", "x2", "x3"):
        assert abs(hits[tid] / 10_000 - 0.25) < 3 * sigma


def test_msd_weights():
    index = PoolIndex(_pool_nine_vs_one())
    assert index.msd_weights(1.0) == {"PL;ERG": 0.9, "SG;ERG": 0.1}
    assert index.msd_weights(0.0) == {"PL;ERG": 1.0, "SG;ERG": 1.0}


@pytest.mark.parametrize("alpha,p_minority", [(0.0, 0.5), (1.0, 0.1)])
def test_templatic_first_draw_tag_frequency(alpha, p_minority):
    # with alpha=0 each tag is drawn with p=0.5; with alpha=1 the minority
    # tag keeps its empirical 0.1
    pool = _pool_nine_vs_one()
    kind = "ume" if alpha else "umt"
    assert SelectionStrategy(kind, 1).alpha == alpha
    n = 10_000
    minority = sum(
        select(pool, SelectionStrategy(kind, 1, seed=s)).per_msd_counts.get("SG;ERG", 0)
        for s in range(n)
    )
    sigma = math.sqrt(p_minority * (1 - p_minority) / n)
    assert abs(minority / n - p_minority) < 3 * sigma


def test_templatic_weights_fixed_from_full_pool():
    # after the single minority example is taken, only the majority tag has
    # candidates left, so every further draw must come from it
    pool = _pool_nine_vs_one()
    res = select(pool, SelectionStrategy("ume", 10, seed=0))
    assert res.per_msd_counts["SG;ERG"] == 1


def test_by_loss_examples():
    pool = [_ex("a", score=1.0), _ex("b", score=3.0), _ex("c", score=2.0)]
    assert select(pool, SelectionStrategy("highloss", 2)).selected_ids == ("b", "c")
    assert select(pool, SelectionStrategy("lowloss", 2)).selected_ids == ("a", "c")


def test_by_loss_tie_breaks_by_lowest_id():
    pool = [_ex("z", score=5.0), _ex("a", score=5.0), _ex("m", score=5.0)]
    assert select(pool, SelectionStrategy("highloss", 2)).selected_ids == ("a", "m")


def test_by_loss_matches_full_sort_oracle():
    rng = random.Random(77)
    pool = [_ex(f"e{i:04d}", score=round(rng.uniform(0, 10), 3))
            for i in range(1000)]
    for k in (1, 10, 100):
        oracle = [e.id for e in sorted(pool, key=lambda e: (-e.score, e.id))][:k]
        assert list(select(pool, SelectionStrategy("highloss", k)).selected_ids) == oracle
        oracle = [e.id for e in sorted(pool, key=lambda e: (e.score, e.id))][:k]
        assert list(select(pool, SelectionStrategy("lowloss", k)).selected_ids) == oracle


def test_by_loss_requires_scores():
    with pytest.raises(MorphaugError, match="^1 pool examples have no score$"):
        select([_ex("a")], SelectionStrategy("highloss", 1))
    with pytest.raises(MorphaugError, match="^1 pool examples have no score$"):
        select([_ex("a")], SelectionStrategy("umt-loss", 1))


def test_hybrid_single_msd_equals_highloss():
    # with one tag the MSD draw is degenerate and the hybrid is exact top-k
    rng = random.Random(5)
    pool = [_ex(f"e{i:03d}", score=rng.uniform(0, 10)) for i in range(50)]
    for k in (1, 5, 50):
        assert select(pool, SelectionStrategy("umt-loss", k, seed=3)).selected_ids == \
            select(pool, SelectionStrategy("highloss", k)).selected_ids


def test_hybrid_takes_most_uncertain_per_msd():
    pool = [
        _ex("a1", "N;SG", score=1.0), _ex("a2", "N;SG", score=9.0),
        _ex("b1", "N;PL", score=2.0), _ex("b2", "N;PL", score=8.0),
    ]
    res = select(pool, SelectionStrategy("umt-loss", 2, seed=0))
    # whichever tags were drawn, only the higher-scored member of each tag
    # group (or both members of one tag in score order) can appear first
    assert set(res.selected_ids) <= {"a2", "b2"} or \
        res.selected_ids in (("a2", "a1"), ("b2", "b1"))


def test_hybrid_exhausts_msd_and_renormalizes():
    pool = [_ex("a1", "N;SG", score=1.0),
            _ex("b1", "N;PL", score=2.0),
            _ex("b2", "N;PL", score=3.0)]
    res = select(pool, SelectionStrategy("umt-loss", 3, seed=11))
    assert sorted(res.selected_ids) == ["a1", "b1", "b2"]


def test_strategies_ignore_scores_when_score_free():
    # random/umt/ume must give identical selections under any score relabeling
    pool = _pool_nine_vs_one(scored=True)
    shuffled_scores = [e.with_score(-e.score) for e in pool]
    for kind in ("random", "umt", "ume"):
        s = SelectionStrategy(kind=kind, k=6, seed=8)
        assert select(pool, s).selected_ids == select(shuffled_scores, s).selected_ids


def test_result_json_round_trip():
    import json
    res = select(_pool_nine_vs_one(), SelectionStrategy("random", 3, seed=2))
    blob = json.loads(selection_json(res))
    assert blob["strategy"]["kind"] == "random"
    assert blob["selected_ids"] == list(res.selected_ids)
    assert sum(blob["per_msd_counts"].values()) == 3
