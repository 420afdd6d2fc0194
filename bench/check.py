"""Output checker: invariants of each workload's artifacts, sha256 digests,
and the digests pinned for the default seed.

Each check function takes the run directory and the workload's Plan and
returns a list of problems; an empty list means the outputs are correct.
The pool checks read the gold segmentation from the program's own
`segment_dataset`: they test the corruption draw against it, while the
golden digests pin the segmentation itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import unicodedata
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 0
# a realised substitution count further than this many binomial standard
# deviations from theta * trials is a defect, not chance
SIGMAS = 6.0


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(run_dir: Path, artifacts) -> dict:
    """sha256 of every artifact; a missing artifact maps to None."""
    return {a: sha256(run_dir / a) if (run_dir / a).is_file() else None for a in artifacts}


def golden_problems(workload: str, seen: dict) -> list:
    pinned = json.loads(GOLDEN.read_text()).get(workload, {})
    return [f"{a}: sha256 {d} differs from pinned {pinned.get(a)}"
            for a, d in sorted(seen.items()) if pinned.get(a) != d]


def _rows(path: Path) -> list:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def _check_meta(run_dir: Path, artifacts) -> list:
    problems = []
    for a in artifacts:
        if a.endswith(".meta.json"):
            meta = json.loads((run_dir / a).read_text(encoding="utf-8"))
            if meta.get("tool") != "morphaug" or "stage" not in meta:
                problems.append(f"{a}: no provenance")
    return problems


def _check_pool(run_dir: Path, plan) -> tuple[list, list]:
    """The pool has n examples with unique ids; each keeps its source's MSD,
    affixes and length, differs from it exactly at the recorded stem
    positions, records a plausible distance, and the substitution rate over
    all stem positions is within SIGMAS binomial deviations of theta."""
    from morphaug.corpus import parse_unimorph
    from morphaug.corruption import segment_dataset

    gold = parse_unimorph((run_dir / "gold.tsv").read_text(encoding="utf-8"))
    segs = segment_dataset(gold)
    pool = [json.loads(line) for line in
            (run_dir / "out/pool.jsonl").read_text(encoding="utf-8").splitlines()]
    n, theta = plan.expect["n_pool"], plan.expect["theta"]
    problems = []
    if len(pool) != n:
        problems.append(f"pool has {len(pool)} examples, expected {n}")
    if len({e["id"] for e in pool}) != len(pool):
        problems.append("pool ids are not unique")
    trials = substituted = 0
    for e in pool:
        src = gold.by_id(e["source_id"]) if e["source_id"] in gold else None
        seg = segs.get(e["source_id"])
        if src is None or seg is None:
            problems.append(f"{e['id']}: source {e['source_id']} is not an alignable gold triple")
            continue
        if tuple(e["msd"]) != src.msd or len(e["lemma"]) != len(src.lemma) \
                or len(e["form"]) != len(src.form):
            problems.append(f"{e['id']}: MSD or length differs from its source")
            continue
        lemma_pos = {i for i, p in enumerate(zip(e["lemma"], src.lemma)) if p[0] != p[1]}
        form_pos = {i for i, p in enumerate(zip(e["form"], src.form)) if p[0] != p[1]}
        sub_lemma, sub_form = e["substituted_lemma_positions"], e["substituted_form_positions"]
        pairs = set(zip(sub_lemma, sub_form))
        if lemma_pos != set(sub_lemma) or form_pos != set(sub_form) \
                or not pairs <= set(seg.stem_pairs) \
                or any(e["lemma"][i] != e["form"][j] for i, j in pairs):
            problems.append(f"{e['id']}: substitutions outside the stem or unequal on both sides")
        lev = e["lev_to_gold_target"]
        if not (0 < lev <= len(form_pos) if form_pos else lev == 0):
            problems.append(f"{e['id']}: lev_to_gold_target {lev} inconsistent with "
                            f"{len(form_pos)} substitutions")
        trials += len(seg.stem_pairs)
        substituted += len(sub_lemma)
        if len(problems) > 20:
            break
    slack = SIGMAS * math.sqrt(trials * theta * (1 - theta))
    if abs(substituted - theta * trials) > slack:
        problems.append(f"substitution rate {substituted}/{trials} is not within "
                        f"{SIGMAS} sigma of theta={theta}")
    return problems, pool


def _check_scores(run_dir: Path, pool: list) -> tuple[list, dict]:
    rows = _rows(run_dir / "out/scores.tsv")
    problems = []
    if [r[0] for r in rows] != [e["id"] for e in pool]:
        problems.append("scores.tsv ids do not match the pool")
    scores = {}
    for r in rows:
        x = float(r[1])
        if not math.isfinite(x) or x < 0:
            problems.append(f"score {r[0]}={r[1]} is not finite and >= 0")
        scores[r[0]] = x
    return problems, scores


def _check_selections(run_dir: Path, plan, pool: list, scores: dict) -> list:
    """Each selection has k unique pool ids and correct per-MSD counts;
    highloss and lowloss are the exact top and bottom k."""
    msd = {e["id"]: ";".join(e["msd"]) for e in pool}
    problems = []
    for path, (kind, k) in sorted(plan.expect["selections"].items()):
        sel = json.loads((run_dir / path).read_text(encoding="utf-8"))
        ids = sel["selected_ids"]
        if len(ids) != k or len(set(ids)) != k or not set(ids) <= msd.keys():
            problems.append(f"{path}: not {k} unique pool ids")
            continue
        counts: dict = {}
        for i in ids:
            counts[msd[i]] = counts.get(msd[i], 0) + 1
        if sel["per_msd_counts"] != counts or sel["strategy"]["kind"] != kind:
            problems.append(f"{path}: per-MSD counts or strategy do not match the ids")
        if kind in ("highloss", "lowloss"):
            sign = -1 if kind == "highloss" else 1
            best = sorted(scores, key=lambda i: (sign * scores[i], i))[:k]
            if ids != best:
                problems.append(f"{path}: not the exact {kind} top-{k}")
    return problems


def _check_split(run_dir: Path) -> list:
    """test.tsv is lemma-disjoint from gold (after NFC) and keeps every other
    triple of the full corpus, in order."""
    def nfc(s):
        return unicodedata.normalize("NFC", s)
    gold_lemmas = {nfc(r[0]) for r in _rows(run_dir / "gold.tsv")}
    expected = [r for r in _rows(run_dir / "full.tsv") if nfc(r[0]) not in gold_lemmas]
    if _rows(run_dir / "out/test.tsv") != expected:
        return ["test.tsv is not the lemma-disjoint part of full.tsv"]
    return []


def check_augment_score(run_dir: Path, plan) -> list:
    problems, pool = _check_pool(run_dir, plan)
    score_problems, scores = _check_scores(run_dir, pool)
    return (problems + score_problems + _check_selections(run_dir, plan, pool, scores)
            + _check_split(run_dir) + _check_meta(run_dir, plan.artifacts))


def check_select_report(run_dir: Path, plan) -> list:
    problems, pool = _check_pool(run_dir, plan)
    score_problems, scores = _check_scores(run_dir, pool)
    problems += score_problems + _check_selections(run_dir, plan, pool, scores)
    problems += _check_meta(run_dir, plan.artifacts)
    rep = json.loads((run_dir / "out/report.json").read_text(encoding="utf-8"))
    corr = rep["correlations"]
    if corr["n"] != len(pool) or not all(
            -1 <= corr[k] <= 1 for k in corr if k.startswith("pearson")):
        problems.append("report correlations are not in [-1, 1] over the whole pool")
    h = rep["harmony"]
    if h["bootstrap_p"] is None or not 0 <= h["bootstrap_p"] <= 1:
        problems.append(f"report bootstrap p {h['bootstrap_p']} is not in [0, 1]")
    if h["n_violating"] + h["n_adhering"] != len(pool) or not 0 <= h["violation_rate"] <= 1:
        problems.append("report harmony groups do not partition the pool")
    sel = json.loads((run_dir / plan.expect["report_selection"]).read_text(encoding="utf-8"))
    top = max(sel["per_msd_counts"].values())
    if rep["msd_mode"]["count"] != top or sel["per_msd_counts"][rep["msd_mode"]["msd"]] != top:
        problems.append("report msd_mode is not the selection's most frequent MSD")
    return problems


def check_milab(run_dir: Path, plan) -> list:
    """One curve point per synthetic size with lambda = gold/(gold+syn) in
    [0, 1], every MI >= 0 inside its CI order, every convexity verdict true
    and the factorization TV distance in [0, 1]."""
    curve = json.loads((run_dir / "curve.json").read_text(encoding="utf-8"))["curve"]
    gold_n, sizes = plan.expect["gold_n"], plan.expect["syn_sizes"]
    problems = []
    if [p["syn_size"] for p in curve] != sizes:
        problems.append(f"curve sizes {[p['syn_size'] for p in curve]} != {sizes}")
    for p in curve:
        s = p["syn_size"]
        lam = p["lambda"]
        if not 0 <= lam <= 1 or abs(lam - gold_n / (gold_n + s)) > 1e-12:
            problems.append(f"syn_size {s}: lambda {lam} wrong")
        for block in ("mixture", "gold_only", "syn_only"):
            for pair, est in (p[block] or {}).items():
                lo, hi = est["ci"]
                if est["bits"] < 0 or (lo is not None and not 0 <= lo <= hi):
                    problems.append(f"syn_size {s}: {block} {pair} MI {est['bits']} ci {lo},{hi}")
        if not all(p["convexity_ok"].values()):
            problems.append(f"syn_size {s}: convexity bound violated")
        gap = p["factorization_gap"]
        if gap is not None and not 0 <= gap["tv_distance"] <= 1:
            problems.append(f"syn_size {s}: TV distance {gap['tv_distance']} not in [0, 1]")
    return problems


CHECKS = {
    "augment-score": check_augment_score,
    "select-report": check_select_report,
    "milab": check_milab,
}


def check(run_dir: Path, plan) -> list:
    try:
        return CHECKS[plan.workload](run_dir, plan)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        # malformed or undecodable artifacts are a failed check, not a crash
        return [f"artifacts unreadable: {type(e).__name__}: {e}"]
