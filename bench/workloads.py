"""Seeded inputs and command chains for the three benchmark workloads.

Every workload is a fixed command chain of the real `morphaug` CLI run on
files generated here from the workload seed. The program sees only those
files, read through relative paths from the run directory, so the artifact
bytes (whose provenance embeds the config paths) do not depend on where the
benchmark runs.

  augment-score  realistic paradigm corpus, large pool: alignment,
                 corruption, pool JSONL and scoring dominate.
  select-report  many-tag corpus, small pool: the 35-selection sweep and the
                 report's bootstrap dominate time and peak memory.
  milab          `morphaug milab --harmony on` with its defaults: toy-grammar
                 corruption, MI bootstrap and the factorization gap.

`scale="tiny"` shrinks every size for smoke tests; the benchmark itself
always runs `scale="full"`.
"""

from __future__ import annotations

import json
import random
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("augment-score", "select-report", "milab")
SCALES = ("full", "tiny")

# the sizes the pipeline's `sweep: true` runs, per strategy
SWEEP_SIZES = (128, 256, 512, 1024, 2048)
STRATEGIES = ("random", "umt", "ume", "highloss", "lowloss", "umt-loss", "ume-loss")

# decomposed (NFD) vowels, as some UniMorph files spell them
_NFD_VOWELS = ("e\u0301", "u\u0308", "a\u0300", "o\u0302")
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_ABLAUT = {"a": "e", "e": "i", "i": "a", "o": "u", "u": "o"}


@dataclass(frozen=True)
class Plan:
    """What one repetition of a workload runs and what it must produce.

    `commands` are argv lists for `morphaug` (the part after the program
    name), run in order from a directory holding `inputs`. `artifacts` are
    the output files, relative to that directory. `items` is the work one
    repetition completes, for items_per_s. `expect` holds the parameters the
    output checker needs."""

    workload: str
    inputs: dict
    commands: list
    artifacts: list
    items: int
    expect: dict = field(default_factory=dict)

    def write_inputs(self, directory: Path) -> None:
        for name, text in self.inputs.items():
            (directory / name).write_text(text, encoding="utf-8")


def _zipf_sample(rng: random.Random, items: list, k: int) -> list:
    """k distinct items, drawn without replacement with weights 1/rank."""
    pool = list(items)
    weights = [1.0 / (r + 1) for r in range(len(pool))]
    out = []
    for _ in range(k):
        i = rng.choices(range(len(pool)), weights=weights)[0]
        out.append(pool.pop(i))
        weights.pop(i)
    return out


def _stem(rng: random.Random, n: int, nfd_rate: float) -> str:
    """Alternating consonant/vowel stem of n letters; a vowel is written as a
    decomposed diacritic with probability nfd_rate."""
    out = []
    consonant = rng.random() < 0.6
    for _ in range(n):
        if consonant:
            out.append(rng.choice(_CONSONANTS))
        elif rng.random() < nfd_rate:
            out.append(rng.choice(_NFD_VOWELS))
        else:
            out.append(rng.choice(_VOWELS))
        consonant = not consonant
    return "".join(out)


def _ablaut(stem: str) -> str:
    """Change the last plain vowel of the stem (a stem-internal change)."""
    for i in range(len(stem) - 1, -1, -1):
        if stem[i] in _ABLAUT and not (i + 1 < len(stem) and unicodedata.combining(stem[i + 1])):
            return stem[:i] + _ABLAUT[stem[i]] + stem[i + 1:]
    return stem


def _affix(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(_CONSONANTS + _VOWELS) for _ in range(n))


def paradigm_corpus(seed: int, n_lemmas: int, n_full_extra: int,
                    msds_per_lemma: int = 10) -> tuple[str, str]:
    """(gold TSV, full TSV) of a realistic verb-paradigm corpus.

    60 MSDs with Zipf-like frequencies; 10% of MSDs are prefixing; 40% of
    lemmas are "strong" and change a stem vowel in half of the MSDs (about
    20% of triples); 2% of lemmas are suppletive (an unrelated stem in every
    form). The full corpus repeats every gold lemma with more MSDs, half of
    them written in NFC, and adds n_full_extra unseen lemmas.

    Stem lengths cycle through 5..12 and suffix lengths through 1..4 by
    frequency rank, so the amount of work (string lengths) is nearly the
    same for every seed while the strings differ."""
    rng = random.Random(f"paradigm:{seed}")
    msds = [f"V;{mood};{person};{number};{pol}"
            for mood in ("IND;PRS", "IND;PST", "IND;FUT", "COND", "SBJV")
            for person in ("1", "2", "3")
            for number in ("SG", "PL")
            for pol in ("POS", "NEG")]
    rng.shuffle(msds)  # rank order of the Zipf weights
    affixes: dict[str, tuple[str, str]] = {}
    used = set()
    prefixing = set(rng.sample(msds, len(msds) // 10))
    for rank, m in enumerate(msds):
        while True:
            prefix = _affix(rng, 2) if m in prefixing else ""
            suffix = _affix(rng, 1 + rank % 4)
            if (prefix, suffix) not in used:
                used.add((prefix, suffix))
                affixes[m] = (prefix, suffix)
                break
    ablaut_msds = set(rng.sample(msds, len(msds) // 2))

    def lemma_rows(stem: str, strong: bool, suppletive: str | None, chosen: list) -> list:
        lemma = stem + "en"
        rows = []
        for m in chosen:
            prefix, suffix = affixes[m]
            s = suppletive if suppletive else (_ablaut(stem) if strong and m in ablaut_msds else stem)
            rows.append((lemma, prefix + s + suffix, m))
        return rows

    n_total = n_lemmas + n_full_extra
    suppletive_ids = set(rng.sample(range(n_total), max(1, n_total // 50)))
    strong_ids = set(rng.sample(range(n_total), n_total * 2 // 5))
    stems: set[str] = set()
    paradigms = []
    while len(paradigms) < n_total:
        i = len(paradigms)
        stem = _stem(rng, 5 + i % 8, nfd_rate=0.08)
        if stem in stems:
            continue
        stems.add(stem)
        suppletive = _stem(rng, 3 + i % 4, 0.0) if i in suppletive_ids else None
        paradigms.append((stem, i in strong_ids, suppletive))

    gold_rows, full_rows = [], []
    for i, (stem, strong, suppletive) in enumerate(paradigms):
        chosen = _zipf_sample(rng, msds, msds_per_lemma + 4)
        if i < n_lemmas:
            gold_rows += lemma_rows(stem, strong, suppletive, chosen[:msds_per_lemma])
            rows = lemma_rows(stem, strong, suppletive, chosen)
            if i % 2:
                rows = [tuple(unicodedata.normalize("NFC", c) for c in r) for r in rows]
            full_rows += rows
        else:
            full_rows += lemma_rows(stem, strong, suppletive, chosen[:msds_per_lemma])
    rng.shuffle(full_rows)
    return _tsv(gold_rows), _tsv(full_rows)


# vowel classes of the many-tag corpus: its affixes harmonize with the last
# back/front stem vowel; "y" is neutral and never triggers a violation
HARMONY_CLASSES = {"a": "back", "o": "back", "u": "back",
                   "e": "front", "i": "front", "y": "neutral"}
_HARMONY_VOWELS = {"A": ("a", "e"), "U": ("u", "i")}


def _harmonize(stem: str, affix: str) -> str:
    cls = "back"
    for c in reversed(stem):
        if HARMONY_CLASSES.get(c) in ("back", "front"):
            cls = HARMONY_CLASSES[c]
            break
    pick = 0 if cls == "back" else 1
    return "".join(_HARMONY_VOWELS[c][pick] if c in _HARMONY_VOWELS else c for c in affix)


def many_tag_corpus(seed: int, n_lemmas: int, n_msds: int, msds_per_lemma: int = 5) -> str:
    """Gold TSV of an agglutinative noun corpus with short stems (3-5
    letters) and n_msds distinct MSDs, each used equally often. Affixes are
    case + number + possessor exponents with vowel harmony."""
    rng = random.Random(f"many-tag:{seed}")
    cases = ["NOM", "ACC", "GEN", "DAT", "LOC", "ABL", "INS", "COM", "ESS", "TRANS", "ALL", "ADE"]
    numbers = ["SG", "PL", "DU"]
    possessors = ["NPOSS"] + [f"PSS{p}{n}" for p in "123" for n in ("S", "P", "D")] + \
        ["PSS3I", "PSS4", "PSSRS", "PSSRP"]
    exps = {}
    for i, tag in enumerate(cases + numbers + possessors):
        exps[tag] = "" if tag in ("NOM", "SG", "NPOSS") else "".join(
            rng.choice("dlmnkst") + rng.choice("AU") for _ in range(1 + i % 2))
    combos = [(c, n, p) for c in cases for n in numbers for p in possessors]
    rng.shuffle(combos)
    combos = combos[:n_msds]
    slots = [combos[i % len(combos)] for i in range(n_lemmas * msds_per_lemma)]
    rng.shuffle(slots)
    stems: set[str] = set()
    while len(stems) < n_lemmas:
        s = _stem(rng, 3 + len(stems) % 3, nfd_rate=0.0)
        if rng.random() < 0.1:
            s = s[:-1] + "y"
        stems.add(s)
    rows = []
    for i, stem in enumerate(sorted(stems)):
        for c, n, p in slots[i * msds_per_lemma:(i + 1) * msds_per_lemma]:
            affix = _harmonize(stem, exps[c] + exps[n] + exps[p])
            rows.append((stem, stem + affix, f"N;{c};{n};{p}"))
    return _tsv(rows)


def _tsv(rows) -> str:
    return "".join(f"{l}\t{f}\t{m}\n" for l, f, m in rows)


def _config(**cfg) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def build(workload: str, seed: int, scale: str = "full") -> Plan:
    """The plan of one workload for a seed. The same seed gives the same
    inputs, byte for byte."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    tiny = scale == "tiny"
    if workload == "augment-score":
        gold, full = paradigm_corpus(seed, n_lemmas=30 if tiny else 300,
                                     n_full_extra=30 if tiny else 300)
        n_pool, k = (500, 64) if tiny else (50_000, 1024)
        strategies = ["highloss", "umt-loss"]
        cfg = _config(gold="gold.tsv", full="full.tsv", n_pool=n_pool, theta=0.5,
                      order=3, k_smooth=0.1, strategies=strategies, k=k, seed=seed)
        artifacts = ["out/pool.jsonl", "out/pool.jsonl.meta.json",
                     "out/scores.tsv", "out/scores.tsv.meta.json",
                     "out/test.tsv", "out/test.tsv.meta.json"]
        artifacts += [f"out/select-{s}-{k}.json" for s in strategies]
        return Plan(
            workload=workload,
            inputs={"gold.tsv": gold, "full.tsv": full, "config.json": cfg},
            commands=[["pipeline", "--config", "config.json", "--out-dir", "out", "--quiet"]],
            artifacts=artifacts,
            items=n_pool,
            expect={"n_pool": n_pool, "theta": 0.5,
                    "selections": {f"out/select-{s}-{k}.json": (s, k) for s in strategies}},
        )
    if workload == "select-report":
        # the pool is sized so that the report bootstrap's (resamples x n)
        # index matrices set peak memory while staying well under 1/4 of 8 GiB
        n_pool = 2_100 if tiny else 6_000
        gold = many_tag_corpus(seed, n_lemmas=40 if tiny else 200, n_msds=50 if tiny else 500)
        cfg = _config(gold="gold.tsv", n_pool=n_pool, theta=0.5, order=3, k_smooth=0.1,
                      strategies=list(STRATEGIES), sweep=True, seed=seed)
        selections = {f"out/select-{s}-{k}.json": (s, k)
                      for s in STRATEGIES for k in SWEEP_SIZES}
        harmony = "".join(f"{c}\t{cls}\n" for c, cls in sorted(HARMONY_CLASSES.items()))
        report_argv = ["report", "--pool", "out/pool.jsonl", "--scores", "out/scores.tsv",
                       "--gold", "gold.tsv", "--selection", "out/select-umt-loss-2048.json",
                       "--harmony", "harmony.tsv", "--out", "out/report.json",
                       "--seed", str(seed), "--quiet"]
        if tiny:  # the full scale keeps the default 10k resamples
            report_argv += ["--resamples", "200"]
        return Plan(
            workload=workload,
            inputs={"gold.tsv": gold, "config.json": cfg, "harmony.tsv": harmony},
            commands=[["pipeline", "--config", "config.json", "--out-dir", "out", "--quiet"],
                      report_argv],
            artifacts=["out/pool.jsonl", "out/pool.jsonl.meta.json",
                       "out/scores.tsv", "out/scores.tsv.meta.json",
                       "out/report.json"] + sorted(selections),
            items=sum(k for _, k in selections.values()),
            expect={"n_pool": n_pool, "theta": 0.5, "selections": selections,
                    "report_selection": "out/select-umt-loss-2048.json"},
        )
    if workload == "milab":
        gold_n = 500
        syn_sizes = [0, 50, 500] if tiny else [0, 500, 5000, 50000]
        argv = ["milab", "--harmony", "on", "--out", "curve.json", "--seed", str(seed), "--quiet"]
        if tiny:
            argv += ["--syn-sizes", ",".join(map(str, syn_sizes)), "--resamples", "20"]
        return Plan(
            workload=workload,
            inputs={},
            commands=[argv],
            artifacts=["curve.json"],
            items=sum(syn_sizes),
            expect={"gold_n": gold_n, "syn_sizes": syn_sizes},
        )
    raise ValueError(f"unknown workload {workload!r}")
