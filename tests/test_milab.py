import math
import random
import struct
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from morphaug import milab
from morphaug.alignment import extract_stem
from morphaug.corpus import Alphabet, HarmonyRule
from morphaug.errors import MorphaugError
from morphaug.milab import (
    MI_PAIRS,
    ToyExample,
    ToyGrammar,
    convexity_bound_check,
    corrupt_toy,
    default_harmony,
    estimate_mi,
    factorization_gap,
    generate_gold,
    make_toy_grammar,
    mi_decay_curve,
)

from conftest import toy_dataset


# ---------------------------------------------------------------- MI estimator

def test_mi_independent_uniform_is_zero():
    # a perfectly balanced independent joint has exactly zero plug-in MI
    samples = [(a, b) for a in "xy" for b in "uv" for _ in range(25)]
    assert estimate_mi(Counter(samples))["bits"] == pytest.approx(0.0, abs=1e-12)


def test_mi_bijection_is_log2_of_support():
    samples = [("x", "u")] * 50 + [("y", "v")] * 50
    assert estimate_mi(Counter(samples))["bits"] == pytest.approx(1.0, abs=1e-12)
    samples = sum(([(c, c)] * 10 for c in "abcd"), [])
    assert estimate_mi(Counter(samples))["bits"] == pytest.approx(2.0, abs=1e-12)


def test_mi_matches_frozen_hand_value():
    # joint counts [[2,1,0],[0,3,1],[1,0,2]] over a 3x3 support (n=10);
    # sum p*log2(p/(pa*pb)) computed by hand once and frozen
    counts = [[2, 1, 0], [0, 3, 1], [1, 0, 2]]
    samples = []
    for i, row in enumerate(counts):
        for j, c in enumerate(row):
            samples += [(f"a{i}", f"b{j}")] * c
    assert estimate_mi(Counter(samples))["bits"] == pytest.approx(0.6954618442383218, abs=1e-12)


def test_mi_nonnegative_and_bounded_on_random_joints():
    rng = random.Random(13)
    for _ in range(30):
        samples = [(rng.choice("abc"), rng.choice("wxyz")) for _ in range(200)]
        est = estimate_mi(Counter(samples))
        assert 0.0 <= est["bits"] <= math.log2(3) + 1e-12


def test_mi_bootstrap_ci_brackets_point():
    samples = [("x", "u")] * 150 + [("x", "v")] * 50 + \
              [("y", "u")] * 50 + [("y", "v")] * 150
    est = estimate_mi(Counter(samples), resamples=500, seed=4)
    ci_low, ci_high = est["ci"]
    assert ci_low is not None and ci_low <= est["bits"] <= ci_high
    assert ci_high - ci_low < 0.3


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.tuples(st.sampled_from("abcd"), st.sampled_from("vwxyz")),
                       st.integers(1, 500), min_size=1).map(Counter),
       st.integers(0, 30), st.integers(0, 2**32))
@example(Counter({("a", "v"): 7}), 30, 0)  # a single cell
@example(Counter({("a", "v"): 3, ("a", "w"): 1, ("a", "x"): 9}), 30, 1)  # one row
@example(Counter({("a", "v"): 3, ("b", "v"): 1, ("c", "v"): 9}), 30, 2)  # one column
# the rare levels b and w are drawn 0 times in most resamples
@example(Counter({("a", "v"): 500, ("b", "w"): 1, ("a", "w"): 1, ("b", "v"): 1}), 30, 3)
def test_mi_is_nonnegative_and_its_ci_ordered(joint, resamples, seed):
    est = estimate_mi(joint, resamples=resamples, seed=seed)
    assert est["bits"] >= 0
    ci_low, ci_high = est["ci"]
    if resamples:
        assert 0 <= ci_low <= ci_high
    else:
        assert ci_low is None and ci_high is None


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=300, deadline=None)
# many magnitudes, and ties: a few shared values drawn again and again; +0.0
# stands for -0.0, whose result depends on how numpy's partition orders zeros
@given(st.lists(st.one_of(st.floats(-1e300, 1e300, allow_nan=False),
                          st.sampled_from([0.0, 1.0, 0.125, 3e-300, -7.5])),
                min_size=1, max_size=500).map(lambda xs: [x + 0.0 for x in xs]),
       st.sampled_from([0, 2.5, 50, 97.5, 100]))
@example([0.25], 2.5)
@example([1.0, 2.0], 97.5)
@example([0.0] * 10 + [1e-320] * 3, 50)
def test_percentile_replica_matches_numpy_bit_for_bit(values, q):
    # numpy's linear rule; a numpy that changes it fails here, not in a digest
    assert _bits(milab._percentile(sorted(values), q)) == \
        _bits(float(np.percentile(np.array(values), q)))


def test_mi_requires_samples():
    with pytest.raises(ValueError):
        estimate_mi(Counter())


# ----------------------------------------------------------------- toy grammar

def test_realize_concatenates_stem_and_affix():
    g = ToyGrammar(
        stems=("dal",), affix_map={"M0": "lar"},
        alphabet=make_toy_grammar(4, 2).alphabet,
    )
    e = ToyExample("dal", "M0", *g.realize("dal", "M0"))
    assert ToyExample._fields == ("stem", "msd", "x_affix", "y_affix")
    assert (e.lemma, e.form) == ("dal", "dallar")
    assert (e.x_affix, e.y_affix) == ("", "lar")


def test_harmony_agrees_with_last_stem_vowel():
    h = default_harmony()
    assert h.stem_class("dal") == "back"
    assert h.stem_class("del") == "front"
    assert h.harmonize("lar", "front") == "ler"
    assert h.harmonize("lar", "back") == "lar"
    assert h.harmonize("lar", None) == "lar"  # a stem without a vowel class
    assert not h.violates("dal", "lar")
    assert h.violates("del", "lar")
    # consonant-only strings are neutral
    assert h.stem_class("dll") is None
    assert not h.violates("dll", "lar")
    # a "neutral" vowel never sets the stem's class, is never harmonized and
    # never violates, as in the report's harmony TSV
    n = HarmonyRule(vowel_classes={"a": "back", "e": "front", "i": "neutral"},
                    pairs={"a": "e", "e": "a"})
    assert n.stem_class("deli") == "front"
    assert n.stem_class("di") is None
    assert n.harmonize("lari", "front") == "leri"
    assert not n.violates("deli", "lir")
    assert n.violates("deli", "lar")


@pytest.mark.parametrize("stems, affix_map, message", [
    (("da",), {"M0": "lar"}, "^all stems must have length >= 3$"),
    (("dal",), {"M0": "lar", "M1": "lar"}, "^affixes must be distinct per MSD$"),
])
def test_toy_grammar_rejects_a_short_stem_and_a_repeated_affix(stems, affix_map, message):
    with pytest.raises(ValueError, match=message):
        ToyGrammar(stems=stems, affix_map=affix_map, alphabet=make_toy_grammar(4, 2).alphabet)


def test_generate_gold_needs_at_least_one_example():
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        generate_gold(make_toy_grammar(4, 2), 0)


def test_corrupt_toy_needs_two_characters_to_exclude_the_original():
    g = ToyGrammar(stems=("aaa",), affix_map={"M0": "a"}, alphabet=Alphabet(chars=("a",)))
    with pytest.raises(MorphaugError, match="^need >= 2 characters to exclude the original$"):
        corrupt_toy(generate_gold(g, 1), g, 1, theta=0.5)


def test_grammar_harmony_end_to_end():
    g = make_toy_grammar(8, 2, seed=0, harmony=True)
    for stem in g.stems:
        for msd in g.msds:
            e = ToyExample(stem, msd, *g.realize(stem, msd))
            assert e.form == stem + e.y_affix
            assert not g.harmony.violates(stem, e.y_affix)


def test_gold_generation_is_deterministic_and_well_formed():
    g = make_toy_grammar(10, 3, seed=2, coupled=True)
    a = generate_gold(g, 200, seed=5)
    b = generate_gold(g, 200, seed=5)
    assert a == b
    for e in a:
        assert e.form == e.stem + e.y_affix
        assert e.lemma == e.stem + e.x_affix
        assert e.stem in g.stem_groups[e.msd]


def test_gold_msd_marginal_is_uniform():
    g = make_toy_grammar(12, 4, seed=1)
    gold = generate_gold(g, 8000, seed=9)
    tally = Counter(e.msd for e in gold)
    sigma = math.sqrt(0.25 * 0.75 / 8000)
    for m in g.msds:
        assert abs(tally[m] / 8000 - 0.25) < 4 * sigma


def test_corrupt_toy_replaces_stem_keeps_affix():
    g = make_toy_grammar(10, 3, seed=3, harmony=True, coupled=True)
    gold = generate_gold(g, 50, seed=1)
    syn = corrupt_toy(gold, g, 200, theta=1.0, seed=7)
    assert syn.total() == 200
    originals = {e.stem for e in gold}
    gold_affixes = {x.y_affix for x in gold}
    for record, c in syn.items():
        e = ToyExample(*record)
        assert c >= 1
        assert e.form == e.stem + e.y_affix
        assert set(e.stem) <= set(g.alphabet.chars)
        assert e.y_affix in gold_affixes
    # with full corruption over a 6-character alphabet, most corrupted stems
    # land outside the small set of gold stems (each record weighs its count)
    outside = sum(c for (stem, *_), c in syn.items() if stem not in originals)
    assert outside > 150


def test_crosscheck_segmentation_low_disagreement_on_gold():
    # alignment-based stem extraction mostly finds the grammar's own stem
    g = make_toy_grammar(20, 3, seed=4)
    gold = generate_gold(g, 300, seed=2)
    disagree = 0
    for e in gold:
        seg = extract_stem(e.lemma, e.form)
        disagree += seg is None or seg.split_form(e.form)[0] != e.stem
    assert disagree / len(gold) < 0.2


# ------------------------------------------------------------- convexity bound

def test_convexity_bound_endpoints():
    assert convexity_bound_check(1.0, 0.3, 1.0, 1.0, epsilon=0.0)
    assert convexity_bound_check(1.0, 0.3, 0.0, 0.3, epsilon=0.0)
    assert not convexity_bound_check(1.0, 0.0, 0.5, 0.6, epsilon=0.0)


def test_convexity_exact_on_constructed_mixture():
    # half the data is a perfect bijection over bits (1 bit), half is a
    # balanced independent joint (0 bits); the pooled joint has counts
    # 150/50/50/150 and MI = 1 - H(1/4) = 0.18872187554086717 bits,
    # strictly below the 0.5 bound — with zero slack required
    dependent = [("0", "0")] * 100 + [("1", "1")] * 100
    independent = [(a, b) for a in "01" for b in "01" for _ in range(50)]
    i_g = estimate_mi(Counter(dependent))["bits"]
    i_a = estimate_mi(Counter(independent))["bits"]
    i_mix = estimate_mi(Counter(dependent + independent))["bits"]
    assert i_g == pytest.approx(1.0, abs=1e-12)
    assert i_a == pytest.approx(0.0, abs=1e-12)
    assert i_mix == pytest.approx(0.18872187554086717, abs=1e-12)
    assert convexity_bound_check(i_g, i_a, 0.5, i_mix, epsilon=0.0)


def _levels(prefix):
    # one level makes a one-row or one-column table
    return st.integers(1, 4).map(lambda n: [f"{prefix}{i}" for i in range(n)])


@st.composite
def component_tables(draw):
    """Gold and synthetic count tables; each side may take levels of its own,
    so the supports may be disjoint."""
    tables = []
    for side in ("g", "s"):
        rows = draw(_levels(draw(st.sampled_from(["a", f"a{side}"]))))
        cols = draw(_levels(draw(st.sampled_from(["b", f"b{side}"]))))
        cells = st.tuples(st.sampled_from(rows), st.sampled_from(cols))
        tables.append(Counter(draw(st.dictionaries(cells, st.integers(1, 60), min_size=1,
                                                   max_size=16))))
    return tables


@settings(max_examples=300, deadline=None)
@given(component_tables())
@example([Counter({("a", "b0"): 3, ("a", "b1"): 5}), Counter({("x", "b0"): 2, ("y", "b1"): 7})])
@example([Counter({("a0", "b"): 4, ("a1", "b"): 1}), Counter({("a0", "c"): 2, ("a1", "c"): 9})])
# disjoint bijections: I_mix = 2 bits meets the bound 1 + 1 with equality
@example([Counter({("a0", "b0"): 5, ("a1", "b1"): 5}), Counter({("x0", "y0"): 5, ("x1", "y1"): 5})])
def test_mixture_mi_obeys_the_exact_convexity_bound(tables):
    # Z marks the component of a mixture row. I(A;B) <= I(A;B|Z) + I(A;Z) by
    # the chain rule (and the same with B), and the plug-in I(A;B|Z) is
    # exactly lam*I_gold + (1-lam)*I_syn
    gold, syn = tables
    lam = gold.total() / (gold.total() + syn.total())
    a_z, b_z = Counter(), Counter()
    for z, table in (("gold", gold), ("syn", syn)):
        for (a, b), count in table.items():
            a_z[a, z] += count
            b_z[b, z] += count
    bound = (lam * estimate_mi(gold)["bits"] + (1 - lam) * estimate_mi(syn)["bits"]
             + min(estimate_mi(a_z)["bits"], estimate_mi(b_z)["bits"]))
    assert estimate_mi(gold + syn)["bits"] <= bound + 1e-12


# -------------------------------------------------------------- decay curve

@pytest.fixture(scope="module")
def decay_curve():
    g = make_toy_grammar(20, 4, seed=1, harmony=True, coupled=True)
    return mi_decay_curve(g, 400, [0, 400, 4000], theta=1.0, seed=42,
                          resamples=100)


def test_curve_gold_endpoint_reproduces_gold_only(decay_curve):
    p0 = decay_curve[0]
    assert p0["syn_size"] == 0 and p0["lambda"] == 1.0
    for pair in MI_PAIRS:
        name = "/".join(pair)
        assert p0["mixture"][name]["bits"] == pytest.approx(p0["gold_only"][name]["bits"],
                                                            abs=1e-12)


def test_curve_decays_for_all_pairs(decay_curve):
    for pair in MI_PAIRS:
        bits = [pt["mixture"]["/".join(pair)]["bits"] for pt in decay_curve]
        assert bits[0] > 0.1  # genuine dependence in gold
        assert bits == sorted(bits, reverse=True)
        assert bits[-1] < 0.5 * bits[0]


def test_curve_convexity_holds(decay_curve):
    for pt in decay_curve:
        assert all(pt["convexity_ok"].values())


def test_partial_corruption_decays_less():
    g = make_toy_grammar(20, 4, seed=1, harmony=True, coupled=True)
    full = mi_decay_curve(g, 300, [3000], theta=1.0, seed=5, resamples=0)
    half = mi_decay_curve(g, 300, [3000], theta=0.5, seed=5, resamples=0)
    pair = "y_stem/t"
    assert half[0]["mixture"][pair]["bits"] > full[0]["mixture"][pair]["bits"]


# ---------------------------------------------------------- factorization gap

def test_factorization_gap_near_zero_without_harmony():
    g = make_toy_grammar(12, 3, seed=6, harmony=False, harmonize_lemma=False)
    gold = generate_gold(g, 100, seed=3)
    mix = Counter(gold) + corrupt_toy(gold, g, 9900, theta=1.0, seed=8)
    gap = factorization_gap(mix)
    assert gap["tv_distance"] < 0.02
    assert gap["cells_used"] > 0


def test_factorization_gap_large_with_harmony():
    g = make_toy_grammar(12, 3, seed=6, harmony=True, harmonize_lemma=False)
    gold = generate_gold(g, 100, seed=3)
    mix = Counter(gold) + corrupt_toy(gold, g, 9900, theta=1.0, seed=8)
    gap = factorization_gap(mix)
    assert gap["tv_distance"] > 0.05
    assert 0.0 <= gap["skip_rate"] < 1.0


def test_factorization_gap_needs_supported_cells():
    g = make_toy_grammar(12, 3, seed=6)
    gold = generate_gold(g, 3, seed=1)
    assert factorization_gap(Counter(gold)) is None
    assert factorization_gap(Counter()) is None


def test_toy_dataset_conversion():
    g = make_toy_grammar(5, 2, seed=0)
    gold = generate_gold(g, 10, seed=0)
    d = toy_dataset(gold)
    assert len(d) == 10
    assert d[0].lemma == gold[0].lemma


def test_toy_grammar_sizes_are_bounded():
    # 6**3 - 2**3 = 208 length-3 stems over d, l, a, e, o, i have a vowel
    g = make_toy_grammar(208, 12, seed=0)
    assert len(set(g.stems)) == 208 and len(g.msds) == 12
    for n_stems, n_msds, coupled in ((209, 5, False), (0, 5, False), (50, 0, False),
                                     (50, 13, False), (3, 4, True)):
        with pytest.raises(ValueError):
            make_toy_grammar(n_stems, n_msds, coupled=coupled)
    assert len(make_toy_grammar(3, 4).stems) == 3


# ---------------------------------------------------------------- memory

def _traced_peak(f) -> int:
    """The peak bytes that tracemalloc sees while f runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimate_mi_bootstrap_peak_is_a_row_block_not_the_whole_draw():
    # 4800 cells, 200 resamples: one draw is 960k multinomial counts plus
    # _mi_bits's temporaries of the same shape; milab's row block is 2**14 cells
    cells = np.random.default_rng(0).integers(1, 20, size=(80, 60))
    joint = Counter({(a, b): int(c) for (a, b), c in np.ndenumerate(cells)})
    blocked = _traced_peak(lambda: estimate_mi(joint, resamples=200))
    with mock.patch.object(milab, "BOOTSTRAP_BLOCK_CELLS", cells.size * 200):
        one_draw = _traced_peak(lambda: estimate_mi(joint, resamples=200))
    assert blocked < one_draw / 4, (blocked, one_draw)


def test_corrupt_toy_holds_no_example_objects():
    # the count saturates at the grammar's distinct records, so ten times the
    # draws cost no more memory; 50k ToyExamples would take megabytes
    g = make_toy_grammar(50, 5, seed=1, harmony=True)
    gold = generate_gold(g, 500, seed=2)
    small = _traced_peak(lambda: corrupt_toy(gold, g, 5_000, theta=1.0, seed=3))
    large = _traced_peak(lambda: corrupt_toy(gold, g, 50_000, theta=1.0, seed=3))
    assert large < 2 * small and large < 50_000 * 20, (small, large)
