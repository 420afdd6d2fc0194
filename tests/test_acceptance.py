"""Acceptance gate: ten end-to-end checks, one per criterion, each printing a
single PASS line when its assertions hold. Run with `pytest -s` to see them."""

import hashlib
import json
import math
import random
import time
from collections import Counter, defaultdict

import pytest
from scipy.stats import binom, chisquare

from morphaug.alignment import align, extract_stem
from morphaug.cli import main as cli_main
from morphaug.corpus import Alphabet, InflectionTriple
from morphaug.corruption import CorruptionConfig, SyntheticExample, corrupt
from morphaug.milab import (
    MI_PAIRS,
    convexity_bound_check,
    corrupt_toy,
    estimate_mi,
    factorization_gap,
    generate_gold,
    make_toy_grammar,
    mi_decay_curve,
)
from morphaug.report import msd_mode
from morphaug.scoring import NGramScorer, score_pool, train_ngram
from morphaug.selection import SelectionStrategy, select
from morphaug.splitgen import lemma_split

from conftest import make_dataset, oracle_levenshtein, oracle_matched_runs, path_cost


# ------------------------------------------------------------------ criteria 1+2

@pytest.fixture(scope="module")
def decay_curve():
    grammar = make_toy_grammar(50, 5, seed=1, harmony=True, coupled=True)
    start = time.monotonic()
    curve = mi_decay_curve(grammar, 500, [0, 500, 5000, 50000], theta=1.0,
                           seed=42, resamples=200)
    return curve, time.monotonic() - start


def test_criterion_1_mi_decay(decay_curve):
    curve, elapsed = decay_curve
    assert elapsed < 60.0
    for pair in MI_PAIRS:
        name = "/".join(pair)
        points = [pt["mixture"][name] for pt in curve]
        bits = [p["bits"] for p in points]
        # non-increasing within bootstrap CIs: each next point may not exceed
        # the previous point's upper CI bound
        for prev, nxt in zip(points, points[1:]):
            ceiling = prev["ci"][1] if prev["ci"][1] is not None else prev["bits"]
            assert nxt["bits"] <= ceiling + 1e-12
        gold_bits = curve[0]["gold_only"][name]["bits"]
        assert gold_bits > 0.1
        assert bits[-1] < 0.1 * gold_bits
    print("\nACCEPTANCE 1 PASS: all four MI curves decay, finals < 10% of "
          f"gold-only, runtime {elapsed:.1f}s")


def test_criterion_2_convexity(decay_curve):
    curve, _ = decay_curve
    for pt in curve:
        assert all(pt["convexity_ok"].values())
    # exact case with closed-form endpoints: half perfect bijection (1 bit),
    # half balanced independent joint (0 bits); pooled MI = 1 - H(1/4)
    dependent = [("0", "0")] * 100 + [("1", "1")] * 100
    independent = [(a, b) for a in "01" for b in "01" for _ in range(50)]
    i_g = estimate_mi(Counter(dependent))["bits"]
    i_a = estimate_mi(Counter(independent))["bits"]
    i_mix = estimate_mi(Counter(dependent + independent))["bits"]
    assert i_g == pytest.approx(1.0, abs=1e-12)
    assert i_a == pytest.approx(0.0, abs=1e-12)
    assert i_mix == pytest.approx(0.18872187554086717, abs=1e-12)
    assert convexity_bound_check(i_g, i_a, 0.5, i_mix, epsilon=0.0)
    print("ACCEPTANCE 2 PASS: convexity bound holds at every curve point "
          "(eps=0.02) and exactly on the constructed joint (eps=0)")


def test_criterion_3_factorization():
    plain = make_toy_grammar(12, 3, seed=6, harmony=False, harmonize_lemma=False)
    gold = generate_gold(plain, 100, seed=3)
    mix = Counter(gold) + corrupt_toy(gold, plain, 9900, theta=1.0, seed=8)
    gap_off = factorization_gap(mix)
    assert gap_off["tv_distance"] < 0.02

    harm = make_toy_grammar(12, 3, seed=6, harmony=True, harmonize_lemma=False)
    gold = generate_gold(harm, 100, seed=3)
    mix = Counter(gold) + corrupt_toy(gold, harm, 9900, theta=1.0, seed=8)
    gap_on = factorization_gap(mix)
    assert gap_on["tv_distance"] > 0.05
    print(f"ACCEPTANCE 3 PASS: factorization gap {gap_off['tv_distance']:.4f} "
          f"without harmony (< 0.02), {gap_on['tv_distance']:.4f} with harmony "
          "(> 0.05)")


def test_criterion_4_corruption_statistics():
    triple = InflectionTriple(id="t", lemma="abcdef", form="abcdefs", msd=("V", "PST"))
    seg = extract_stem(triple.lemma, triple.form)
    m = len(seg.stem_pairs)
    assert m == 6
    alphabet = Alphabet(chars=tuple("abcdefgh"))
    n = 10_000
    for theta in (0.25, 0.5, 1.0):
        rng = random.Random(int(theta * 100))
        counts = Counter()
        for _ in range(n):
            e = corrupt(triple, seg, alphabet, CorruptionConfig(theta=theta), rng, "s1")
            counts[len(e.substituted_form_positions)] += 1
            # affix and MSD bytes unchanged, always
            assert e.triple.form[-1] == "s"
            assert e.triple.msd == triple.msd
        if theta == 1.0:
            assert counts == {m: n}  # degenerate distribution, exact
            p_value = 1.0
        else:
            expected = [n * binom.pmf(j, m, theta) for j in range(m + 1)]
            observed = [counts.get(j, 0) for j in range(m + 1)]
            # merge low-expectation bins from both tails
            while len(expected) > 2 and expected[0] < 5:
                expected[1] += expected[0]
                observed[1] += observed[0]
                expected, observed = expected[1:], observed[1:]
            while len(expected) > 2 and expected[-1] < 5:
                expected[-2] += expected[-1]
                observed[-2] += observed[-1]
                expected, observed = expected[:-1], observed[:-1]
            p_value = chisquare(observed, expected).pvalue
        assert p_value > 0.01
    print("ACCEPTANCE 4 PASS: substitution counts fit Binomial(|stem|, theta) "
          "for theta in {0.25, 0.5, 1.0}; affix and MSD preserved in 100% of "
          "examples")


def test_criterion_5_alignment_oracle():
    rng = random.Random(2024)
    run_checks = 0
    for _ in range(1000):
        x = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 12)))
        y = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 12)))
        a = align(x, y)
        assert path_cost(x, y, a) == oracle_levenshtein(x, y)
        runs = oracle_matched_runs(x, y, a, min_run=3)
        if runs:
            seg = extract_stem(x, y)
            assert seg.stem_pairs == tuple(p for r in runs for p in r)
            run_checks += 1
    assert run_checks > 50
    print("ACCEPTANCE 5 PASS: 1000 random pairs match the independent DP "
          f"cost oracle exactly; {run_checks} stem extractions match the "
          "brute-force run oracle")


def _pool_example(tid, msd, score=None):
    return SyntheticExample(
        triple=InflectionTriple(id=tid, lemma="aaa", form="aaas",
                                msd=tuple(msd.split(";"))),
        source_id="g", substituted_lemma_positions=(),
        substituted_form_positions=(), lev_to_gold_target=0, score=score,
    )


def test_criterion_6_selection_exactness():
    rng = random.Random(55)
    pool = [_pool_example(f"e{i:04d}", "N;PL", score=round(rng.uniform(0, 10), 3))
            for i in range(1000)]
    for k in (1, 10, 100):
        oracle = [e.id for e in sorted(pool, key=lambda e: (-e.score, e.id))][:k]
        assert select(pool, SelectionStrategy("highloss", k))["selected_ids"] == oracle
        oracle = [e.id for e in sorted(pool, key=lambda e: (e.score, e.id))][:k]
        assert select(pool, SelectionStrategy("lowloss", k))["selected_ids"] == oracle

    # 9-vs-1 pool: q_0 gives each tag 0.5; q_1 keeps the empirical 0.9/0.1
    small = [_pool_example(f"a{i}", "PL;ERG") for i in range(9)]
    small.append(_pool_example("b0", "SG;ERG"))
    n = 10_000
    for kind, p_minor in (("umt", 0.5), ("ume", 0.1)):
        minority = sum(
            select(small, SelectionStrategy(kind, 1, seed=s))
            ["per_msd_counts"].get("SG;ERG", 0)
            for s in range(n)
        )
        sigma = math.sqrt(p_minor * (1 - p_minor) / n)
        assert abs(minority / n - p_minor) < 3 * sigma
    print("ACCEPTANCE 6 PASS: loss selection matches the full-sort oracle for "
          "k in {1, 10, 100}; templatic first-draw frequencies match q_0 and "
          "q_1 within 3 sigma over 10k trials")


def test_criterion_7_hybrid_spreads_tags():
    # one of five tags owns all the top-k scores
    pool = []
    for m in range(5):
        for i in range(40):
            s = 100.0 + i if m == 0 else float(i)
            pool.append(_pool_example(f"m{m}e{i:02d}", f"M{m};X", score=s))
    k = 10
    top = select(pool, SelectionStrategy("highloss", k))
    _, top_mode = msd_mode(top["per_msd_counts"])
    assert top_mode == k
    hybrid = select(pool, SelectionStrategy("umt-loss", k, seed=9))
    _, hybrid_mode = msd_mode(hybrid["per_msd_counts"])
    assert hybrid_mode < k
    print("ACCEPTANCE 7 PASS: pure loss selection concentrates all "
          f"{k} picks on one tag; the tag-balanced hybrid's mode count is "
          f"{hybrid_mode} < {k}")


def test_criterion_8_scoring_sanity():
    # untrained, the n-gram is uniform over its vocabulary {#, </s>, <unk>}
    [e] = score_pool(NGramScorer(order=3, k=0.1), [_pool_example("x", "N;PL")])
    assert e.score == pytest.approx(math.log(3), abs=1e-15)

    rows = [("walk", "walked", "V;PST"),
            ("talk", "talked", "V;PST"),
            ("walk", "walks", "V;PRS")]
    scorer = train_ngram(make_dataset(rows), order=3, k=0.1)
    # independent chain-rule recomputation with separately built counts
    vocab = {"#", "</s>", "<unk>"}
    counts, ctx_totals = defaultdict(int), defaultdict(int)
    for l, f, m in rows:
        vocab.update(l, f, m.split(";"))
    for l, f, m in rows:
        s = ["<s>", "<s>"] + list(l) + ["#"] + m.split(";") + ["#"] + list(f) + ["</s>"]
        for w1, w2, w3 in zip(s, s[1:], s[2:]):
            counts[(w1, w2, w3)] += 1
            ctx_totals[(w1, w2)] += 1
    for lemma, form, msd in [("walk", "walked", ("V", "PST")),
                             ("talk", "talks", ("V", "PRS")),
                             ("walk", "walks", ("V", "PRS"))]:
        seq = ["<s>", "<s>"] + list(lemma) + ["#"] + list(msd) + ["#"] + list(form) + ["</s>"]
        nll = 0.0
        for pos in range(len(seq) - (len(form) + 1), len(seq)):
            c = (seq[pos - 2], seq[pos - 1], seq[pos])
            nll -= math.log((counts[c] + 0.1) / (ctx_totals[c[:2]] + 0.1 * len(vocab)))
        expected = nll / (len(form) + 1)
        [got] = score_pool(scorer, [SyntheticExample(
            triple=InflectionTriple(id="q", lemma=lemma, form=form, msd=msd),
            source_id="g", substituted_lemma_positions=(),
            substituted_form_positions=(), lev_to_gold_target=0)])
        assert got.score == pytest.approx(expected, abs=1e-9)
    print("ACCEPTANCE 8 PASS: an untrained n-gram scores exactly ln(3); trigram "
          "scorer matches the hand chain-rule product to 1e-9")


def _run_all_subcommands(root, gold_file):
    root.mkdir(exist_ok=True)
    pool = str(root / "pool.jsonl")
    scores = str(root / "scores.tsv")
    args_sets = [
        ["parse", "--in", gold_file, "--out", str(root / "parsed.jsonl")],
        ["augment", "--gold", gold_file, "--n", "40", "--theta", "0.5",
         "--seed", "7", "--out", pool],
        ["score", "--pool", pool, "--gold", gold_file, "--out", scores],
        ["select", "--pool", pool, "--scores", scores, "--strategy",
         "umt-loss", "--k", "8", "--seed", "7", "--out", str(root / "sel.json")],
        ["split", "--full", gold_file, "--train", gold_file,
         "--out", str(root / "test.tsv")],
        ["milab", "--stems", "8", "--msds", "2", "--gold", "60",
         "--syn-sizes", "0,60", "--resamples", "10", "--seed", "7",
         "--out", str(root / "curve.json")],
        ["report", "--pool", pool, "--scores", scores, "--gold", gold_file,
         "--resamples", "50", "--seed", "7", "--out", str(root / "report.json")],
    ]
    for args in args_sets:
        assert cli_main(args + ["--quiet"]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.iterdir())}


def test_criterion_9_cli_determinism(tmp_path):
    gold_rows = []
    rng = random.Random(31)
    for i in range(20):
        stem = "".join(rng.choice("abcdefgh") for _ in range(rng.randint(4, 8)))
        gold_rows.append(f"{stem}\t{stem}ing\tV;PRS")
    gold_file = tmp_path / "gold.tsv"
    gold_file.write_text("\n".join(gold_rows) + "\n")
    # rerun into the same paths with the same flags: every artifact,
    # including the provenance sidecars, must be rewritten bit-identically
    d1 = _run_all_subcommands(tmp_path / "run", str(gold_file))
    d2 = _run_all_subcommands(tmp_path / "run", str(gold_file))
    assert d1 == d2
    assert len(d1) >= 7
    print(f"ACCEPTANCE 9 PASS: {len(d1)} artifacts from 7 subcommands are "
          "bit-identical across reruns (sha256)")


def test_criterion_10_lemma_split():
    rng = random.Random(77)
    lemmas = []
    while len(lemmas) < 500:
        w = "".join(rng.choice("abcdef") for _ in range(rng.randint(3, 7)))
        if w not in lemmas:
            lemmas.append(w)
    rows = [(l, l + suffix, msd)
            for l in lemmas
            for suffix, msd in (("s", "N;PL"), ("ing", "V;PRS"))]
    assert len(rows) == 1000
    full = make_dataset(rows)
    train = make_dataset([r for r in rows if r[0] in set(lemmas[:200])][:300])
    train_lemmas = {t.lemma for t in train}
    split = lemma_split(full, train)
    # disjointness
    assert not ({t.lemma for t in split.test} & split.train_lemmas)
    # conservation: every triple is kept or excluded by a train lemma
    for t in full:
        assert (t in split.test.triples) != (t.lemma in split.train_lemmas)
    # exact count vs brute-force filter
    expected = [t for t in full if t.lemma not in train_lemmas]
    assert list(split.test.triples) == expected
    assert len(split.test) == 1000 - 2 * len(train_lemmas)
    print("ACCEPTANCE 10 PASS: lemma split on a 1k-triple fixture is "
          "disjoint, conservative, and matches the brute-force filter exactly")
