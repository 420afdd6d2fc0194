import json
import math
import random
from collections import Counter, defaultdict
from functools import lru_cache, reduce
from operator import add, attrgetter

import numpy as np

from morphaug.alignment import GAP, CharAlignment, Segmentation
from morphaug.corpus import Dataset, InflectionTriple
from morphaug.corruption import CorruptionConfig, SyntheticExample, segment_dataset
from morphaug.errors import MorphaugError
from morphaug.milab import MI_PAIRS, ToyExample, convexity_bound_check, generate_gold
from morphaug.scoring import BOS, EOS, SEP, UNK
from morphaug.util import derive_seed


def oracle_levenshtein(a: str, b: str) -> int:
    """Independent memoized-recursion edit distance."""

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return d(len(a), len(b))


def oracle_align(lemma: str, form: str) -> CharAlignment:
    """Full-table alignment DP: every cell takes the min over its three
    candidates keyed by (cost, -matches, op), then a backtrace."""
    if not lemma or not form:
        raise MorphaugError("align requires non-empty strings")
    MATCH, SUB, DEL, INS = 0, 1, 2, 3
    n, m = len(lemma), len(form)
    cost = [[0] * (m + 1) for _ in range(n + 1)]
    matches = [[0] * (m + 1) for _ in range(n + 1)]
    op = [[-1] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        cost[i][0], op[i][0] = i, DEL
    for j in range(1, m + 1):
        cost[0][j], op[0][j] = j, INS
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            eq = lemma[i - 1] == form[j - 1]
            cands = [
                (cost[i - 1][j - 1] + (0 if eq else 1),
                 matches[i - 1][j - 1] + (1 if eq else 0),
                 MATCH if eq else SUB),
                (cost[i - 1][j] + 1, matches[i - 1][j], DEL),
                (cost[i][j - 1] + 1, matches[i][j - 1], INS),
            ]
            cost[i][j], matches[i][j], op[i][j] = min(cands, key=lambda c: (c[0], -c[1], c[2]))
    pairs = []
    i, j = n, m
    while i > 0 or j > 0:
        o = op[i][j]
        if o in (MATCH, SUB):
            pairs.append((i - 1, j - 1))
            i, j = i - 1, j - 1
        elif o == DEL:
            pairs.append((i - 1, GAP))
            i -= 1
        else:
            pairs.append((GAP, j - 1))
            j -= 1
    pairs.reverse()
    return CharAlignment(lemma=lemma, form=form, pairs=tuple(pairs), cost=cost[n][m])


def oracle_corrupt(t, seg, alphabet, cfg, rng, new_id=None) -> SyntheticExample:
    """Corruption that builds the list of allowed replacement characters at
    every substituted position and indexes it with one randrange draw."""
    if cfg.exclude_original and len(alphabet) < 2:
        raise MorphaugError("need >= 2 characters to exclude the original")
    lemma = list(t.lemma)
    form = list(t.form)
    sub_lemma, sub_form = [], []
    for li, fi in seg.stem_pairs:
        if rng.random() < cfg.theta:
            if cfg.exclude_original:
                choices = [c for c in alphabet.chars if c != t.lemma[li]]
            else:
                choices = list(alphabet.chars)
            c = choices[rng.randrange(len(choices))]
            lemma[li] = c
            form[fi] = c
            sub_lemma.append(li)
            sub_form.append(fi)
    corrupted = InflectionTriple(
        id=new_id if new_id is not None else f"{t.id}~syn",
        lemma="".join(lemma), form="".join(form), msd=t.msd,
    )
    return SyntheticExample(
        triple=corrupted,
        source_id=t.id,
        substituted_lemma_positions=tuple(sub_lemma),
        substituted_form_positions=tuple(sub_form),
        lev_to_gold_target=oracle_levenshtein(corrupted.form, t.form),
    )


def oracle_generate_pool(gold, n, alphabet, cfg, rng=None):
    """Pool generation with a randrange draw of the gold triple and a whole
    oracle_corrupt call per example; rng defaults to Random(cfg.seed)."""
    segs = segment_dataset(gold, min_run=cfg.min_run)
    rng = rng or random.Random(cfg.seed)
    pool = []
    while len(pool) < n:
        t = gold[rng.randrange(len(gold))]
        if segs[t.id] is not None:
            pool.append(oracle_corrupt(t, segs[t.id], alphabet, cfg, rng,
                                       new_id=f"syn{len(pool):06d}"))
    return pool


def oracle_write_pool_jsonl(pool):
    """The pool JSONL as json.dumps of one dict per example."""
    return "".join(json.dumps({
        "id": e.id,
        "source_id": e.source_id,
        "lemma": e.triple.lemma,
        "form": e.triple.form,
        "msd": list(e.triple.msd),
        "substituted_lemma_positions": list(e.substituted_lemma_positions),
        "substituted_form_positions": list(e.substituted_form_positions),
        "lev_to_gold_target": e.lev_to_gold_target,
        "score": e.score,
    }, ensure_ascii=False) + "\n" for e in pool)


def oracle_corrupt_toy(gold, g, n, theta, seed=0, rng=None):
    """Toy corruption through a whole oracle_corrupt call per draw: a fresh
    triple and segmentation each time, and a distance that is dropped; rng
    defaults to Random(seed)."""
    cfg = CorruptionConfig(theta=theta, seed=seed)
    rng = rng or random.Random(seed)
    out = []
    for i in range(n):
        src = gold[rng.randrange(len(gold))]
        seg = prefix_segmentation(len(src.stem))
        triple = InflectionTriple(id="src", lemma=src.lemma, form=src.form, msd=(src.msd,))
        syn = oracle_corrupt(triple, seg, g.alphabet, cfg, rng, new_id=f"s{i:06d}")
        out.append(ToyExample(
            stem=syn.triple.form[: len(src.stem)], msd=src.msd,
            x_affix=src.x_affix, y_affix=src.y_affix,
        ))
    return out


def oracle_pair_samples(examples, pair):
    """MI samples of a variable pair, read from one dict of all five
    variables per example (lemma and form share the prefix stem)."""
    a, b = pair
    rows = ({"t": e.msd, "x_stem": e.stem, "x_affix": e.x_affix,
             "y_stem": e.stem, "y_affix": e.y_affix} for e in examples)
    return [(v[a], v[b]) for v in rows]


# the ToyExample attribute that holds each MI variable (lemma and form share
# the prefix stem, so x_stem and y_stem are both the stem)
VARIABLE_ATTR = {"t": "msd", "x_stem": "stem", "x_affix": "x_affix",
                 "y_stem": "stem", "y_affix": "y_affix"}


def pair_samples(examples, pair):
    """MI samples of a variable pair as a list, one tuple per example."""
    return list(map(attrgetter(*(VARIABLE_ATTR[v] for v in pair)), examples))


def toy_dataset(examples, name="toy") -> Dataset:
    return Dataset(triples=tuple(
        InflectionTriple(id=f"g{i:06d}", lemma=e.lemma, form=e.form, msd=(e.msd,))
        for i, e in enumerate(examples)), name=name)


def oracle_joint_counts(samples):
    """Joint count table with levels taken from the samples themselves."""
    a_levels = {a: i for i, a in enumerate(sorted({a for a, _ in samples}))}
    b_levels = {b: i for i, b in enumerate(sorted({b for _, b in samples}))}
    counts = np.zeros((len(a_levels), len(b_levels)))
    for a, b in samples:
        counts[a_levels[a], b_levels[b]] += 1
    return counts


def oracle_factorization_gap(examples):
    """The factorization gap with every conditional's total summed again for
    each observed form."""
    cells = defaultdict(list)
    aff_cond = defaultdict(Counter)
    stem_cond = defaultdict(Counter)
    for e in examples:
        cells[(e.lemma, e.msd)].append(e)
        aff_cond[(e.x_affix, e.msd)][e.y_affix] += 1
        stem_cond[e.stem][e.stem] += 1
    tvs, skipped = [], 0
    for (_, msd), members in cells.items():
        if len(members) < 5:
            skipped += 1
            continue
        p = Counter(e.form for e in members)
        decomp = {e.form: e for e in members}
        q_obs = abs_diff = 0.0
        for form, c in p.items():
            e = decomp[form]
            ac, sc = aff_cond[(e.x_affix, msd)], stem_cond[e.stem]
            q = (ac[e.y_affix] / sum(ac.values())) * (sc[e.stem] / sum(sc.values()))
            q_obs += q
            abs_diff += abs(c / len(members) - q)
        tvs.append(max(0.0, 0.5 * (abs_diff + (1.0 - q_obs))))
    if not tvs:
        raise ValueError("no (X, T) cell reaches the minimum support")
    return {"tv_distance": float(np.mean(tvs)), "cells_used": len(tvs),
            "skip_rate": skipped / (len(tvs) + skipped)}


def oracle_mi_bits(counts):
    """Plug-in MI in bits of count tables of shape (..., r, c), as float
    copies reduced by nansum (an empty cell's term is NaN)."""
    counts = counts.astype(float)
    n = counts.sum(axis=(-1, -2), keepdims=True)
    p = counts / n
    pa = p.sum(axis=-1, keepdims=True)
    pb = p.sum(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * (np.log2(p) - np.log2(pa) - np.log2(pb))
    return np.maximum(np.nansum(terms, axis=(-1, -2)), 0.0)


def oracle_estimate_mi(samples, resamples=0, seed=0):
    """Plug-in MI of a list of samples: the joint table counted sample by
    sample (oracle_joint_counts), n the number of samples."""
    counts = oracle_joint_counts(samples)
    n = len(samples)
    ci = [None, None]
    if resamples > 0:
        rng = np.random.default_rng(seed)
        boot = rng.multinomial(n, counts.ravel() / n, size=resamples)
        dist = oracle_mi_bits(boot.reshape(resamples, *counts.shape))
        ci = [float(q) for q in np.percentile(dist, [2.5, 97.5])]
    return {"bits": float(oracle_mi_bits(counts)), "n": n, "ci": ci}


def oracle_mi_decay_curve(g, gold_n, syn_sizes, theta=1.0, seed=0, resamples=200):
    """The decay curve from the mixture list of each point, with the gold-only
    estimates made again at every point, and every step an oracle."""
    gold = generate_gold(g, gold_n, seed=derive_seed(seed, "gold"))
    points = []
    for s in syn_sizes:
        syn = oracle_corrupt_toy(gold, g, s, theta, seed=derive_seed(seed, f"syn-{s}")) if s else []
        mixture = gold + syn
        lam = gold_n / (gold_n + s)
        mix_est, gold_est, syn_est, convex = {}, {}, {}, {}
        for pair in MI_PAIRS:
            name = "/".join(pair)
            mix_est[name] = oracle_estimate_mi(oracle_pair_samples(mixture, pair), resamples,
                                               derive_seed(seed, f"boot-{s}-{pair}"))
            gold_est[name] = oracle_estimate_mi(oracle_pair_samples(gold, pair))
            if syn:
                syn_est[name] = oracle_estimate_mi(oracle_pair_samples(syn, pair))
            i_a = syn_est[name]["bits"] if syn else 0.0
            convex[name] = convexity_bound_check(gold_est[name]["bits"], i_a, lam,
                                                 mix_est[name]["bits"])
        try:
            gap = oracle_factorization_gap(mixture)
        except ValueError:
            gap = None
        points.append({"syn_size": s, "lambda": lam, "mixture": mix_est, "gold_only": gold_est,
                       "syn_only": syn_est or None, "convexity_ok": convex,
                       "factorization_gap": gap})
    return points


def oracle_logprobs(scorer, lemma, msd, form):
    """(log-probs, token hits, UNK hits) of one example, computed as
    math.log(scorer.prob(ctx, tok)) at every form position and EOS."""
    toks = list(lemma) + [SEP] + list(msd) + [SEP] + list(form) + [EOS]
    unk = sum(tok not in scorer.vocab for tok in toks)
    seq = [BOS] * (scorer.order - 1) + [tok if tok in scorer.vocab else UNK for tok in toks]
    out = []
    for i in range(len(seq) - (len(form) + 1), len(seq)):
        ctx = tuple(seq[i - scorer.order + 1 : i])
        out.append(math.log(scorer.prob(ctx, seq[i])))
    return out, len(toks), unk


def oracle_nlls(scorer, pool):
    """(nlls, token hits, UNK hits) of scoring the pool one oracle_logprobs
    call per example: each nll is -(log-probs summed left to right) /
    (|form| + 1)."""
    nlls, hits, unk = [], 0, 0
    for e in pool:
        lps, n_tok, n_unk = oracle_logprobs(scorer, e.triple.lemma, e.triple.msd, e.triple.form)
        nlls.append(-reduce(add, lps, 0.0) / (len(e.triple.form) + 1))
        hits, unk = hits + n_tok, unk + n_unk
    return nlls, hits, unk


def oracle_harmony_bootstrap(v, a, resamples, rng):
    """The report's bootstrap as one full (resamples, n) index matrix per
    group, v's before a's: (row means of v, row means of a, one-sided p)."""
    v_means = v[rng.integers(0, len(v), size=(resamples, len(v)))].mean(axis=1)
    a_means = a[rng.integers(0, len(a), size=(resamples, len(a)))].mean(axis=1)
    return v_means, a_means, float(np.mean(v_means - a_means <= 0))


def oracle_group_by_msd(pool):
    """MSD string -> its examples, each group sorted by id (equal ids in pool
    order)."""
    groups = defaultdict(list)
    for e in sorted(pool, key=attrgetter("triple.id")):
        groups[e.triple.msd_string].append(e)
    return groups


def _oracle_msd_groups(pool, alpha):
    counts = defaultdict(int)
    for e in pool:
        counts[e.triple.msd_string] += 1
    weights = {m: (c / len(pool)) ** alpha for m, c in counts.items()}
    return weights, oracle_group_by_msd(pool)


def _oracle_draw_msd(rng, weights, remaining):
    live = sorted(m for m, cands in remaining.items() if cands)
    w = [weights[m] for m in live]
    return rng.choices(live, weights=w, k=1)[0]


def oracle_select_random(pool, k, rng):
    """The examples of a uniform draw of k from the pool's list."""
    return rng.sample(list(pool), k)


def oracle_select_by_loss(pool, k, direction):
    """The first k examples of a full sort by (-score, id) for "highest",
    by (score, id) for "lowest"."""
    if direction == "highest":
        return sorted(pool, key=lambda e: (-e.score, e.id))[:k]
    return sorted(pool, key=lambda e: (e.score, e.id))[:k]


def oracle_select_templatic(pool, k, alpha, rng):
    """The examples of the MSD-templatic draw that re-sorts the live MSDs and
    re-accumulates their weights on every draw."""
    weights, remaining = _oracle_msd_groups(pool, alpha)
    selected = []
    for _ in range(k):
        msd = _oracle_draw_msd(rng, weights, remaining)
        cands = remaining[msd]
        selected.append(cands.pop(rng.randrange(len(cands))))
    return selected


def oracle_select_hybrid(pool, k, alpha, rng):
    """The examples of the hybrid draw: as oracle_select_templatic, but takes
    the most uncertain candidate with pop(0)."""
    weights, remaining = _oracle_msd_groups(pool, alpha)
    # most uncertain first, ties by lowest id
    for cands in remaining.values():
        cands.sort(key=lambda e: (-e.score, e.id))
    selected = []
    for _ in range(k):
        msd = _oracle_draw_msd(rng, weights, remaining)
        selected.append(remaining[msd].pop(0))
    return selected


def oracle_matched_runs(alignment, min_run):
    """Brute-force scan for maximal runs of consecutive matched pairs."""
    runs, cur = [], []
    for pair in alignment.pairs:
        i, j = pair
        ok = i is not None and j is not None and alignment.lemma[i] == alignment.form[j]
        if ok:
            cur.append(pair)
        else:
            if len(cur) >= min_run:
                runs.append(tuple(cur))
            cur = []
    if len(cur) >= min_run:
        runs.append(tuple(cur))
    return runs


# ------------------------------------- views of src objects only tests read

def matched_pairs(a: CharAlignment) -> list[tuple[int, int]]:
    """The aligned (lemma_index, form_index) pairs of identical characters."""
    return [(i, j) for i, j in a.pairs
            if i is not GAP and j is not GAP and a.lemma[i] == a.form[j]]


def lemma_stem_positions(seg) -> frozenset[int]:
    return frozenset(i for i, _ in seg.stem_pairs)


def form_stem_positions(seg) -> frozenset[int]:
    return frozenset(j for _, j in seg.stem_pairs)


def prefix_segmentation(stem_len: int) -> Segmentation:
    """The Segmentation of a prefix stem of stem_len characters that lemma
    and form share, without alignment."""
    return Segmentation(tuple((i, i) for i in range(stem_len)))


def split_lemma(seg, lemma: str) -> tuple[str, str]:
    """(stem, affix) of a lemma: the characters at the pairs' lemma
    positions, and the rest, each in order."""
    stem = lemma_stem_positions(seg)
    return ("".join(lemma[i] for i, _ in seg.stem_pairs),
            "".join(c for i, c in enumerate(lemma) if i not in stem))


def random_word(rng: random.Random, alphabet="abcd", lo=1, hi=12) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def make_dataset(rows, name="fixture") -> Dataset:
    triples = tuple(
        InflectionTriple(id=str(i + 1), lemma=l, form=f, msd=tuple(m.split(";")))
        for i, (l, f, m) in enumerate(rows)
    )
    return Dataset(triples=triples, name=name)

