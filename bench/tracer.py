"""Traced run of a morphaug command chain, and the per-layer metrics of it.

Run as a script, it imports `morphaug.cli` from PYTHONPATH, wraps each
public layer function at every place a caller looks it up (for example
`corruption.levenshtein` as well as `alignment.levenshtein`), runs one
morphaug command in-process through `morphaug.cli.main`, and writes the
spans and counters as JSON when the command ends:

    python3 tracer.py SPANS_OUT RUN_ID ARG...

ARG... is the morphaug argv (without the program name); a chain runs one
such process per command, as the untraced benchmark does. Each span records
its name, start, end, parent span and run id (the command's index in the
chain). Spans stay in memory until the end. Bookkeeping done between spans
lands in the caller's self time and shows in trace.overhead_s.

`layer_metrics` turns the dumps of a chain into the per-layer metrics: for
every layer `<name>.s` (time inside it) and `<name>.self_s` (minus nested
layers), plus the counts and ratios below. The self times of all layers
plus cli.self_s add up to trace.wall_s, the traced time of the commands.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import tracemalloc
from collections import Counter
from time import perf_counter

from workloads import STRATEGIES

MSD_DRAWN = ("umt", "ume", "umt-loss", "ume-loss")

# every span the traced run can record; "cli" is the root span of a command
SPANS = (
    "cli",
    "corpus.parse_unimorph",
    "alignment.align",
    "alignment.levenshtein",
    "corruption.segment_dataset",
    "corruption.generate_pool",
    "corruption.corrupt",
    "corruption.write_pool_jsonl",
    "corruption.read_pool_jsonl",
    "scoring.train_ngram",
    "scoring.score_pool",
    "scoring.load_external_scores",
    *(f"selection.{k}" for k in STRATEGIES),
    "splitgen.lemma_split",
    "milab.generate_gold",
    "milab.corrupt_toy",
    "milab.mi_decay_curve",
    "milab.estimate_mi",
    "milab.factorization_gap",
    "report.correlations",
    "report.harmony_violation_stats",
    "cli.atomic_write",
)

# per-layer metrics beyond the span times: name -> (unit, better)
COUNTS = {
    "alignment.align.calls": ("count", "lower"),
    "alignment.align.cells": ("count", "lower"),
    "alignment.stem_found_ratio": ("ratio", "higher"),
    "alignment.levenshtein.calls": ("count", "lower"),
    "alignment.levenshtein.cells": ("count", "lower"),
    "corruption.corrupt.calls": ("count", "lower"),
    "corruption.draw_accept_ratio": ("ratio", "higher"),
    "corruption.substitution_rate": ("ratio", "higher"),
    "corruption.pool_mib": ("MiB", "lower"),
    "scoring.contexts": ("count", "lower"),
    "scoring.tokens": ("count", "lower"),
    "scoring.unk_rate": ("ratio", "lower"),
    "selection.draws": ("count", "lower"),
    "splitgen.kept_ratio": ("ratio", "higher"),
    "milab.generate_gold.calls": ("count", "lower"),
    "milab.corrupt_toy.examples": ("count", "lower"),
    "milab.estimate_mi.resamples": ("count", "lower"),
    "report.harmony_violation_stats.peak_mib": ("MiB", "lower"),
    "report.bootstrap.resamples": ("count", "lower"),
    "cli.atomic_write.calls": ("count", "lower"),
    "cli.bytes_written": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def metric_specs() -> dict:
    """Every per-layer metric name -> (unit, better)."""
    specs = {}
    for name in SPANS:
        if name != "cli":
            specs[f"{name}.s"] = ("s", "lower")
            specs[f"{name}.self_s"] = ("s", "lower")
    specs.update(COUNTS)
    return specs


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # [name id, start, end, parent index, run id]
        self.stack = [-1]
        self.run = 0
        self.counters: Counter = Counter()
        self.stash: dict = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None, memory=False):
        """fn with a span around each call. `name` is a span name or a
        callable (args, kwargs) -> span name. `after(tracer, args, kwargs,
        result)` runs after the span closes and returns the result to hand
        back to the caller. With memory=True the tracemalloc peak of the call
        is added to the counter `<name>.peak_bytes`."""
        spans, stack, tracer = self.spans, self.stack, self
        fixed = None if callable(name) else self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._id(name(args, kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            if memory:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent, tracer.run)
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.counters[f"{tracer.names[nid]}.peak_bytes"] = max(
                        tracer.counters[f"{tracer.names[nid]}.peak_bytes"], peak)
            return after(tracer, args, kwargs, result) if after else result

        return traced


def _arg(fn, name):
    """Fast accessor for one argument of fn, by position, keyword or default."""
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index(name)
    default = params[pos].default

    def get(args, kwargs):
        if pos < len(args):
            return args[pos]
        return kwargs.get(name, default)
    return get


class _CountingDict(dict):
    """The segmentation dict generate_pool draws from; every lookup by id is
    one gold draw."""

    def __init__(self, data, counters):
        super().__init__(data)
        self._counters = counters

    def __getitem__(self, key):
        self._counters["corruption.gold_draws"] += 1
        return dict.__getitem__(self, key)


def install(tracer: Tracer):
    """Replace each layer function by its traced wrapper in every morphaug
    module that binds it, so calls through any name are recorded. Returns
    `morphaug.cli.main` wrapped in the root span "cli"."""
    from morphaug import (alignment, cli, corpus, corruption, milab, report, scoring,
                          selection, splitgen, util)

    def cells(prefix):
        calls, cells = f"{prefix}.calls", f"{prefix}.cells"

        def after(t, a, kw, r):
            t.counters[calls] += 1
            t.counters[cells] += len(a[0]) * len(a[1])
            return r
        return after

    def segmented(t, a, kw, r):
        t.counters["alignment.segmented"] += len(r)
        t.counters["alignment.stem_found"] += sum(s is not None for s in r.values())
        return _CountingDict(r, t.counters)

    def pooled(t, a, kw, r):
        t.counters["corruption.pool_examples"] += len(r)
        return r

    def corrupted(t, a, kw, r):
        t.counters["corruption.corrupt.calls"] += 1
        t.counters["corruption.stem_positions"] += len(a[1].stem_pairs)
        t.counters["corruption.substituted"] += len(r.substituted_lemma_positions)
        return r

    def pool_size(t, text):
        size = len(text.encode("utf-8"))
        t.counters["corruption.pool_bytes"] = max(t.counters["corruption.pool_bytes"], size)

    def wrote_pool(t, a, kw, r):
        pool_size(t, r)
        return r

    def read_pool(t, a, kw, r):
        pool_size(t, a[0])
        return r

    train_order = _arg(scoring.train_ngram, "order")

    def trained(t, a, kw, r):
        t.stash.setdefault("train", []).append((a[0], train_order(a, kw)))
        return r

    def scored(t, a, kw, r):
        t.stash.setdefault("scored", []).append(r)
        return r

    def strategy(a, kw):
        return f"selection.{(a[1] if len(a) > 1 else kw['strategy']).kind}"

    def selected(t, a, kw, r):
        s = a[1] if len(a) > 1 else kw["strategy"]
        if s.kind in MSD_DRAWN:
            t.counters["selection.draws"] += s.k  # one MSD draw per selected example
        return r

    def split(t, a, kw, r):
        t.counters["splitgen.full"] += len(a[0])
        t.counters["splitgen.kept"] += len(r.test)
        return r

    def counted(key, get=None):
        def after(t, a, kw, r):
            t.counters[key] += get(a, kw) if get else 1
            return r
        return after

    def wrote(t, a, kw, r):
        t.counters["cli.atomic_write.calls"] += 1
        t.counters["cli.bytes_written"] += os.path.getsize(a[0])
        return r

    layers = [
        (corpus.parse_unimorph, "corpus.parse_unimorph", None),
        (alignment.align, "alignment.align", cells("alignment.align")),
        (alignment.levenshtein, "alignment.levenshtein", cells("alignment.levenshtein")),
        (corruption.segment_dataset, "corruption.segment_dataset", segmented),
        (corruption.generate_pool, "corruption.generate_pool", pooled),
        (corruption.corrupt, "corruption.corrupt", corrupted),
        (corruption.write_pool_jsonl, "corruption.write_pool_jsonl", wrote_pool),
        (corruption.read_pool_jsonl, "corruption.read_pool_jsonl", read_pool),
        (scoring.train_ngram, "scoring.train_ngram", trained),
        (scoring.score_pool, "scoring.score_pool", scored),
        (scoring.load_external_scores, "scoring.load_external_scores", None),
        (selection.select, strategy, selected),
        (splitgen.lemma_split, "splitgen.lemma_split", split),
        (milab.generate_gold, "milab.generate_gold", counted("milab.generate_gold.calls")),
        (milab.corrupt_toy, "milab.corrupt_toy",
         counted("milab.corrupt_toy.examples", _arg(milab.corrupt_toy, "n"))),
        (milab.mi_decay_curve, "milab.mi_decay_curve", None),
        (milab.estimate_mi, "milab.estimate_mi",
         counted("milab.estimate_mi.resamples", _arg(milab.estimate_mi, "resamples"))),
        (milab.factorization_gap, "milab.factorization_gap", None),
        (report.correlations, "report.correlations", None),
        (report.harmony_violation_stats, "report.harmony_violation_stats",
         counted("report.bootstrap.resamples",
                 _arg(report.harmony_violation_stats, "resamples"))),
        (util.atomic_write, "cli.atomic_write", wrote),
    ]
    modules = [m for n, m in sys.modules.items() if n == "morphaug" or n.startswith("morphaug.")]
    for fn, name, after in layers:
        # the bootstrap's index matrices are this layer's memory story
        traced = tracer.wrap(name, fn, after, memory=fn is report.harmony_violation_stats)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, traced)
    return tracer.wrap("cli", cli.main)


def derived_counters(tracer: Tracer) -> dict:
    """Counts computed after the chain, from the objects the layers handled:
    the n-gram contexts of each trained scorer, and the tokens the scorer
    maps for the scored pool with the share of them outside its vocabulary."""
    contexts = tokens = unk = 0
    vocab = {"#", "</s>", "<unk>"}
    for gold, order in tracer.stash.get("train", []):
        seen = set()
        for t in gold:
            vocab.update(t.lemma, t.form, t.msd)
            seq = ["<s>"] * (order - 1) + [*t.lemma, "#", *t.msd, "#", *t.form, "</s>"]
            seen.update(tuple(seq[i - order + 1:i]) for i in range(order - 1, len(seq)))
        contexts += len(seen)
    for pool in tracer.stash.get("scored", []):
        for e in pool:
            toks = [*e.triple.lemma, *e.triple.msd, *e.triple.form]
            tokens += len(toks) + 3  # two separators and EOS
            unk += sum(tok not in vocab for tok in toks)
    return {"scoring.contexts": contexts, "scoring.tokens": tokens, "scoring.unk": unk}


def run_command(argv: list, run: int, spans_out: str) -> int:
    tracer = Tracer()
    tracer.run = run
    rc = install(tracer)(argv)
    counters = dict(tracer.counters)
    counters.update(derived_counters(tracer))
    with open(spans_out, "w", encoding="utf-8") as f:
        f.write(json.dumps({"names": tracer.names, "spans": tracer.spans,
                            "counters": counters}))
    return rc


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(dumps: list) -> dict:
    """Per-layer metrics of the traced commands of one chain (trace.overhead_s
    is filled in by the caller, which knows the untraced wall time)."""
    total: Counter = Counter()
    own: Counter = Counter()
    c: Counter = Counter()
    wall = 0.0
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        child = [0.0] * len(spans)
        for nid, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (nid, start, end, parent, _) in enumerate(spans):
            total[names[nid]] += end - start
            own[names[nid]] += end - start - child[i]
            if parent < 0:
                wall += end - start
        for key, value in dump["counters"].items():
            # sizes (*_bytes) are peaks over the chain; everything else adds up
            c[key] = max(c[key], value) if key.endswith("_bytes") else c[key] + value
    m = {}
    for name in SPANS:
        if name != "cli":
            m[f"{name}.s"] = total[name]
            m[f"{name}.self_s"] = own[name]
    m.update({
        "alignment.align.calls": c["alignment.align.calls"],
        "alignment.align.cells": c["alignment.align.cells"],
        "alignment.stem_found_ratio": _ratio(c["alignment.stem_found"], c["alignment.segmented"]),
        "alignment.levenshtein.calls": c["alignment.levenshtein.calls"],
        "alignment.levenshtein.cells": c["alignment.levenshtein.cells"],
        "corruption.corrupt.calls": c["corruption.corrupt.calls"],
        "corruption.draw_accept_ratio": _ratio(c["corruption.pool_examples"],
                                               c["corruption.gold_draws"]),
        "corruption.substitution_rate": _ratio(c["corruption.substituted"],
                                               c["corruption.stem_positions"]),
        "corruption.pool_mib": c["corruption.pool_bytes"] / 2**20,
        "scoring.contexts": c["scoring.contexts"],
        "scoring.tokens": c["scoring.tokens"],
        "scoring.unk_rate": _ratio(c["scoring.unk"], c["scoring.tokens"]),
        "selection.draws": c["selection.draws"],
        "splitgen.kept_ratio": _ratio(c["splitgen.kept"], c["splitgen.full"]),
        "milab.generate_gold.calls": c["milab.generate_gold.calls"],
        "milab.corrupt_toy.examples": c["milab.corrupt_toy.examples"],
        "milab.estimate_mi.resamples": c["milab.estimate_mi.resamples"],
        "report.harmony_violation_stats.peak_mib":
            c["report.harmony_violation_stats.peak_bytes"] / 2**20,
        "report.bootstrap.resamples": c["report.bootstrap.resamples"],
        "cli.atomic_write.calls": c["cli.atomic_write.calls"],
        "cli.bytes_written": c["cli.bytes_written"],
        "cli.self_s": own["cli"],
        "trace.wall_s": wall,
        "trace.overhead_s": 0.0,
    })
    unknown = set(total) - set(SPANS)
    if unknown:
        raise ValueError(f"spans without a metric: {sorted(unknown)}")
    return m


def accounting_error(m: dict) -> float:
    """|sum of layer self times + cli.self_s - trace.wall_s|; zero up to
    float rounding when every span is nested in a command's root span."""
    own = sum(v for k, v in m.items() if k.endswith(".self_s"))
    return abs(own - m["trace.wall_s"])


if __name__ == "__main__":
    sys.exit(run_command(sys.argv[3:], int(sys.argv[2]), sys.argv[1]))
