import random
import re

import numpy as np
import pytest

from morphaug.corpus import Alphabet, InflectionTriple
from morphaug.corruption import CorruptionConfig, SyntheticExample, generate_pool, segment_dataset
from morphaug.errors import MorphaugError, ZeroVariance
from morphaug.report import (bootstrap_means, correlations, harmony_violation_stats, msd_mode,
                             pearson)
from morphaug.milab import HarmonyRule
from morphaug.scoring import train_ngram, score_pool
from morphaug.selection import SelectionStrategy, select

from conftest import form_stem_positions, make_dataset, prefix_segmentation


# --------------------------------------------------------------- pearson

def test_pearson_perfect_linear():
    assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_five_point_frozen_value():
    # hand computation: cov / sqrt(var_x * var_y) on these five points
    assert pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 6]) == \
        pytest.approx(0.8219949365267865, abs=1e-12)


def test_pearson_symmetry_and_affine_invariance():
    rng = random.Random(3)
    xs = [rng.uniform(0, 1) for _ in range(50)]
    ys = [rng.uniform(0, 1) for _ in range(50)]
    r = pearson(xs, ys)
    assert pearson(ys, xs) == pytest.approx(r, abs=1e-12)
    assert pearson([3 * x + 7 for x in xs], ys) == pytest.approx(r, abs=1e-9)
    assert pearson([-2 * x for x in xs], ys) == pytest.approx(-r, abs=1e-9)


def test_pearson_shuffle_null_is_near_zero():
    rng = random.Random(8)
    xs = [rng.gauss(0, 1) for _ in range(10_000)]
    ys = xs[:]
    rng.shuffle(ys)
    assert abs(pearson(xs, ys)) < 0.05


def test_pearson_zero_variance():
    with pytest.raises(ZeroVariance):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ZeroVariance):
        pearson([1, 2, 3], [5, 5, 5])


# ----------------------------------------------------------- correlations

def _scored_pool(n=1000, theta=0.5, seed=0):
    rng = random.Random(seed)
    rows = []
    for _ in range(40):
        stem = "".join(rng.choice("abcdefgh") for _ in range(rng.randint(4, 8)))
        rows.append((stem, stem + "ing", "V;PRS"))
    gold = make_dataset(rows)
    alphabet = Alphabet(chars=tuple("abcdefgh"))
    pool = generate_pool(gold, n, alphabet, CorruptionConfig(theta=theta, seed=seed))
    scored = score_pool(train_ngram(gold, order=3, k=0.1), pool)
    return gold, scored


def test_correlations_positive_with_corruption_degree():
    gold, pool = _scored_pool()
    rep = correlations(pool, segment_dataset(gold))
    assert rep.n == 1000
    assert rep.pearson_nll_levenshtein > 0.2
    assert -1 <= rep.pearson_nll_stem_length <= 1
    assert -1 <= rep.pearson_nll_target_length <= 1


def test_correlations_too_few():
    gold, pool = _scored_pool(n=2)
    with pytest.raises(MorphaugError, match="^need >= 3 scored examples$"):
        correlations(pool, segment_dataset(gold))


def test_pool_source_without_segmentation_is_named():
    gold, pool = _scored_pool(n=50)
    segs = segment_dataset(gold)
    missing = pool[7].source_id
    del segs[missing]
    message = f"^source id {re.escape(repr(missing))} of the pool names no alignable gold triple$"
    with pytest.raises(MorphaugError, match=message):
        correlations(pool, segs)
    with pytest.raises(MorphaugError, match=message):
        harmony_violation_stats(pool, VOWELS, segs, resamples=10)


@pytest.mark.parametrize("constant", ["nll", "lev_to_gold_target", "stem_length",
                                      "target_length"])
def test_correlations_name_the_constant_column(constant):
    pool, segs = [], {}
    for i in range(5):
        form = "a" * (6 if constant == "target_length" else 6 + i)
        pool.append(SyntheticExample(
            triple=InflectionTriple(id=f"s{i}", lemma=form, form=form, msd=("N",)),
            source_id=f"g{i}", substituted_lemma_positions=(), substituted_form_positions=(),
            lev_to_gold_target=1 if constant == "lev_to_gold_target" else i,
            score=1.5 if constant == "nll" else float(i)))
        segs[f"g{i}"] = prefix_segmentation(3 if constant == "stem_length" else 3 + i)
    with pytest.raises(ZeroVariance) as err:
        correlations(pool, segs)
    assert err.value.variable == constant


# ------------------------------------------------------- msd mode frequency

def _ex(tid, msd, score=1.0):
    return SyntheticExample(
        triple=InflectionTriple(id=tid, lemma="aaa", form="aaas",
                                msd=tuple(msd.split(";"))),
        source_id=tid,
        substituted_lemma_positions=(),
        substituted_form_positions=(),
        lev_to_gold_target=0,
        score=score,
    )


def test_msd_mode_frequency():
    # the report's msd_mode block is the mode of a selection's MSD counts
    pool = [_ex(f"a{i}", "N;PL") for i in range(5)] + [_ex("b0", "N;SG")]
    sel = select(pool, SelectionStrategy("random", 6, seed=0))
    assert msd_mode(sel.per_msd_counts) == ("N;PL", 5)


# -------------------------------------------------------------- harmony

VOWELS = HarmonyRule(vowel_classes={
    "a": "back", "o": "back", "e": "front", "i": "front",
})


def test_harmony_config_basics():
    assert not VOWELS.violates("dal", "lar")
    assert VOWELS.violates("del", "lar")
    assert VOWELS.violates("dal", "ler")
    # consonant-only stems cannot violate
    assert not VOWELS.violates("dll", "lar")


def test_harmony_neutral_class_never_violates():
    cfg = HarmonyRule(vowel_classes={"a": "back", "e": "front", "i": "neutral"})
    assert not cfg.violates("dal", "lir")
    # neutral stem vowels are skipped when finding the governing class
    assert cfg.stem_class("dali") == "back"
    assert cfg.violates("dali", "ler")


def test_harmony_empty_config_rejected():
    with pytest.raises(MorphaugError, match="^vowel class map is empty$"):
        HarmonyRule(vowel_classes={})


def _toy_pool(theta=1.0, n=400, seed=5):
    rng = random.Random(seed)
    stems = []
    while len(stems) < 20:
        s = "".join(rng.choice("dlaoei") for _ in range(4))
        if any(c in "aoei" for c in s) and s not in stems:
            stems.append(s)
    rows = [(s, s + ("lar" if VOWELS.stem_class(s) == "back" else "ler"),
             "N;PL") for s in stems]
    gold = make_dataset(rows)
    pool = generate_pool(gold, n, Alphabet(chars=tuple("adeilo")),
                         CorruptionConfig(theta=theta, seed=seed))
    segs = segment_dataset(gold)
    scored = score_pool(train_ngram(gold, order=3, k=0.1), pool)
    return scored, segs


def test_harmony_violation_rate_matches_inline_reclassification():
    pool, segs = _toy_pool()
    stats = harmony_violation_stats(pool, VOWELS, segs, resamples=100, seed=0)
    violating = 0
    for e in pool:
        seg = segs[e.source_id]
        form = e.triple.form
        stem = "".join(form[i] for i in sorted(form_stem_positions(seg)))
        affix = "".join(form[i] for i in range(len(form))
                        if i not in form_stem_positions(seg))
        cls = None
        for c in reversed(stem):
            if c in VOWELS.vowel_classes:
                cls = VOWELS.vowel_classes[c]
                break
        if cls is not None and any(
            c in VOWELS.vowel_classes and VOWELS.vowel_classes[c] != cls
            for c in affix
        ):
            violating += 1
    assert stats.violation_rate == pytest.approx(violating / len(pool), abs=1e-12)
    assert stats.n_violating + stats.n_adhering == len(pool)


def test_harmony_planted_score_gap_detected():
    pool, segs = _toy_pool()
    # replant scores: violating examples get a clearly higher mean
    rng = random.Random(1)
    planted = []
    for e in pool:
        seg = segs[e.source_id]
        form = e.triple.form
        stem = "".join(form[i] for i in sorted(form_stem_positions(seg)))
        affix = "".join(form[i] for i in range(len(form))
                        if i not in form_stem_positions(seg))
        base = 1.0 + (0.5 if VOWELS.violates(stem, affix) else 0.0)
        planted.append(e.with_score(base + rng.gauss(0, 0.2)))
    stats = harmony_violation_stats(planted, VOWELS, segs, resamples=2000, seed=3)
    assert stats.mean_nll_violating > stats.mean_nll_adhering
    assert stats.bootstrap_p is not None and stats.bootstrap_p < 0.05


def test_harmony_stats_handle_one_sided_pool():
    # a consonant-only affix can never violate, so no p-value is possible
    rows = [("dala", "dalall", "N;PL"), ("dele", "delell", "N;PL")]
    gold = make_dataset(rows)
    pool = generate_pool(gold, 50, Alphabet(chars=tuple("adeilo")),
                         CorruptionConfig(theta=1.0, seed=2))
    segs = {t.id: prefix_segmentation(4) for t in gold}
    scored = [e.with_score(1.0 + i * 0.01) for i, e in enumerate(pool)]
    stats = harmony_violation_stats(scored, VOWELS, segs, resamples=100)
    assert stats.violation_rate == 0.0
    assert stats.bootstrap_p is None
    assert stats.mean_nll_violating is None


# -------------------------------------------------------------- bootstrap

def _percentile_ci(samples, resamples, seed):
    """The 95% percentile interval of the harmony bootstrap's resample means."""
    rng = np.random.default_rng(seed)
    means = bootstrap_means(rng, np.asarray(samples, dtype=float), resamples)
    return tuple(np.percentile(means, [2.5, 97.5]))


def test_bootstrap_constant_samples_degenerate_ci():
    means = bootstrap_means(np.random.default_rng(0), np.full(50, 2.0), 200)
    assert means.shape == (200,) and (means == 2.0).all()


def test_bootstrap_coin_ci_contains_half():
    lower, upper = _percentile_ci([0.0, 1.0] * 100, 2000, seed=1)
    assert lower < 0.5 < upper


def test_bootstrap_win_rate_excludes_distant_value():
    samples = [1.0] * 100 + [0.0] * 200  # win rate 1/3
    lower, upper = _percentile_ci(samples, 5000, seed=2)
    assert lower > 1 / 7
    assert upper < 0.6
    assert lower < 1 / 3 < upper


def test_bootstrap_deterministic():
    x = np.asarray([random.Random(4).gauss(0, 1) for _ in range(30)])
    a = bootstrap_means(np.random.default_rng(9), x, 500)
    b = bootstrap_means(np.random.default_rng(9), x, 500)
    assert (a == b).all()


def test_bootstrap_width_shrinks_like_sqrt_n():
    rng = random.Random(12)
    widths = []
    for n in (100, 400, 1600):
        samples = [rng.gauss(0, 1) for _ in range(n)]
        lower, upper = _percentile_ci(samples, 2000, seed=n)
        widths.append(upper - lower)
    # quadrupling n should roughly halve the width
    assert 1.4 < widths[0] / widths[1] < 2.9
    assert 1.4 < widths[1] / widths[2] < 2.9


@pytest.mark.parametrize("resamples", [0, -1])
def test_bootstrap_resamples_below_one_rejected(resamples):
    pool, segs = _toy_pool(n=50)
    with pytest.raises(ValueError, match="resamples"):
        harmony_violation_stats(pool, VOWELS, segs, resamples=resamples)
