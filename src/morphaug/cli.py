"""Command-line pipeline: parse -> augment -> score -> select -> split,
plus the toy-grammar information lab and the diagnostics report.

A command adds all of its artifacts or, if it fails, no file at all. Each
carries provenance (config hash, seed, parameters) either embedded (JSON
outputs) or as a .meta.json sidecar (TSV/JSONL outputs). A single top-level
seed is fanned out per stage, so any stage can be reproduced in isolation.
Exit codes: 0 ok, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import logging
import math
import os
import sys
from typing import Callable, NamedTuple

# milab and report load numpy; they are imported by the commands that use
# them, so the other commands start without it, and numpy always loads
# after the BLAS thread default below is set
from . import corpus, corruption, scoring, selection, splitgen
from .errors import MorphaugError
from .util import atomic_write, config_hash, derive_seed

# On import, numpy's OpenBLAS starts a worker thread per CPU, yet morphaug
# makes no parallel BLAS call (its one BLAS call is report's corrcoef of two
# vectors). So one thread is the default; the artifacts' bytes do not depend
# on it. A value already in the environment is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

log = logging.getLogger("morphaug")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ------------------------------------------------------------ parameter rules
# Each value rule of a flag or a pipeline config key, written once. A flag's
# type= is its rule's, so a bad value is a usage error naming the flag before
# any command runs; a bad config value is a data error naming the key.

def _int_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


class Rule(NamedTuple):
    wording: str
    types: tuple  # exact, so a bool is never an integer or a number, though Python counts it an int
    holds: Callable[[object], bool] = lambda value: True
    parse: Callable[[str], object] = str  # a flag's text to its value; a ValueError if it cannot

    def flag(self, text: str):
        """The value of a flag's text, as argparse's type=."""
        try:
            if self.holds(value := self.parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {self.wording}, got {text!r}")

    def check(self, where: str, name: str, value) -> None:
        """A value read from a file that breaks the rule is a data error naming it."""
        if type(value) not in self.types or not self.holds(value):
            raise MorphaugError(f"{where}: {name} must be {self.wording}, got {json.dumps(value)}")


# The largest size or count: 2**60 - 1 list slots or float64 values fill the
# 2**63 - 1 bytes Python and numpy address, so a size within it never
# overflows an index with a traceback; it may run out of memory (a data
# error), and a run with a large one is not promised to end.
MAX_SIZE = 2 ** 60 - 1
INTEGER = Rule("an integer", (int,), parse=int)
AT_LEAST_1 = Rule("an integer in [1, 2**60 - 1]", (int,), lambda v: 1 <= v <= MAX_SIZE, int)
AT_LEAST_0 = Rule("an integer in [0, 2**60 - 1]", (int,), lambda v: 0 <= v <= MAX_SIZE, int)
UNIT = Rule("a number in [0, 1]", (int, float), lambda v: 0 <= v <= 1, float)
POSITIVE = Rule("a number > 0 and finite", (int, float), lambda v: 0 < v < math.inf, float)
# "" and a name that holds a NUL name no file, and UTF-8 cannot write a lone surrogate
PATH = Rule("a path", (str,),
            lambda v: v and "\0" not in v and not any("\ud800" <= c <= "\udfff" for c in v))
BOOL = Rule("true or false", (bool,))
STRATEGY_NAMES = Rule(f"a list of strategy names ({', '.join(selection.STRATEGIES)})", (list,),
                      lambda v: all(s in selection.STRATEGIES for s in v))
# the value stays the text, which the provenance records
SIZES = Rule("comma-separated integers in [0, 2**60 - 1]", (str,),
             lambda text: all(map(AT_LEAST_0.holds, _int_list(text))))


# the provenance sidecar of a TSV/JSONL artifact
META_SUFFIX = ".meta.json"


def _provenance(stage: str, params: dict) -> dict:
    params = {k: v for k, v in params.items() if k != "func"}
    return {"tool": "morphaug", "stage": stage, "params": params,
            "config_hash": config_hash(params)}


class Outputs:
    """The files one command writes, as a `with` block that adds them all,
    one rename each, or, if anything in it raises, no file or directory.
    documents embed their provenance; tables (TSV/JSONL) get a sidecar. A
    missing out_dir, holding them all, is made when they are written. Built
    before any input is read, it refuses two outputs that are one file (a
    usage error) and one that is a directory or not in a directory. An
    OSError names the target, never a staged file."""

    def __init__(self, *documents: str, tables=(), out_dir: str = ""):
        paths = [*documents, *(p for table in tables for p in (table, table + META_SUFFIX))]
        real = [os.path.realpath(path) for path in paths]
        for i, path in enumerate(paths):
            if real[i] in real[:i]:
                raise UsageError(f"two outputs name one file: {paths[real.index(real[i])]!r} "
                                 f"and {path!r}")
        self.staged: list[tuple[str, str]] = []  # (staged file, target), in the order written
        self.made: list[str] = []  # deepest first
        while out_dir and not os.path.exists(out_dir):
            self.made.append(out_dir)
            out_dir = os.path.dirname(out_dir)
        for path in paths if not self.made else ():  # a directory yet to make holds nothing
            parent = os.path.dirname(path) or "."
            if os.path.isdir(path):
                code = errno.EISDIR
            elif not os.path.isdir(parent):
                code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
            else:
                continue
            raise OSError(code, os.strerror(code), path)

    def __enter__(self) -> Outputs:
        return self

    def __exit__(self, kind, value, traceback) -> None:
        try:
            if kind is None:
                self.commit()
        finally:  # remove what is left, which after commit() is nothing
            for staged, _ in self.staged:
                if os.path.exists(staged):  # a commit() that failed renamed those before it
                    os.unlink(staged)
            for path in self.made:
                if os.path.isdir(path) and not os.listdir(path):
                    os.rmdir(path)

    def table(self, path: str, text: str, stage: str, params: dict) -> None:
        self._stage(path, text)
        self._stage(path + META_SUFFIX,
                    json.dumps(_provenance(stage, params), indent=2, sort_keys=True) + "\n")

    def document(self, path: str, payload: dict, stage: str, params: dict) -> None:
        payload = {**payload, "provenance": _provenance(stage, params)}
        self._stage(path, json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n")

    def _stage(self, path: str, text: str) -> None:
        if self.made:
            os.makedirs(self.made[0], exist_ok=True)
        staged = f"{os.path.dirname(os.path.abspath(path))}/.tmp-{os.urandom(8).hex()}~"
        try:
            atomic_write(staged, text)
        except OSError as e:
            raise OSError(e.errno, e.strerror, path) from e
        self.staged.append((staged, path))

    def commit(self) -> None:
        for staged, path in self.staged:
            try:
                os.replace(staged, path)
            except OSError as e:
                raise OSError(e.errno, e.strerror, path) from e
        self.staged, self.made = [], []


def _read(path: str) -> str:
    """The text of an input file, line ends untranslated so that util.lines
    alone splits it; one leading UTF-8 byte order mark is not part of it."""
    with open(path, encoding="utf-8-sig", newline="") as f:
        return f.read()


def _load(path: str, load, *args):
    """load(the text of an input file, *args); a data error of either, or
    bytes that are not UTF-8, names the file."""
    try:
        return load(_read(path), *args)
    except (MorphaugError, UnicodeDecodeError) as e:
        raise MorphaugError(f"{path}: {e}") from None


def _parse(path: str) -> corpus.Dataset:
    return _load(path, corpus.parse_unimorph, path)


def _json(text: str):
    """The JSON value of a text, as a decoder for _load. json raises a
    ValueError for bad syntax and for an integer of over 4300 digits."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise MorphaugError(f"not valid JSON: {e}") from None


def _load_scored_pool(pool_path: str, scores_path: str | None):
    """The pool of a JSONL file, scored by an external id<TAB>nll file if one is given."""
    pool = _load(pool_path, corruption.read_pool_jsonl)
    return pool if scores_path is None else _load(scores_path, scoring.load_external_scores, pool)


# --------------------------------------------------------------------- stages
# One function per stage, called by its subcommand and by `pipeline`; the
# callers differ only in the provenance params.

def _augment(gold, n: int, cfg: corruption.CorruptionConfig, out: Outputs, path: str,
             params: dict) -> list:
    pool = corruption.generate_pool(gold, n, corpus.extract_alphabet(gold), cfg)
    out.table(path, corruption.write_pool_jsonl(pool), "augment", params)
    log.info("wrote %d synthetic examples to %s", len(pool), path)
    return pool


def _score(pool, gold, order: int, k_smooth: float, out: Outputs, path: str, params: dict) -> list:
    """The pool scored by an n-gram trained on gold."""
    scored = scoring.score_pool(scoring.train_ngram(gold, order=order, k=k_smooth), pool)
    out.table(path, scoring.write_scores_tsv(scored), "score", params)
    log.info("scored %d examples to %s", len(scored), path)
    return scored


def _strategy(kind: str, k: int, seed: int) -> selection.SelectionStrategy:
    """The strategy select and pipeline both run for kind and k under the top-level seed."""
    return selection.SelectionStrategy(kind=kind, k=k, seed=derive_seed(seed, f"select-{kind}-{k}"))


def _select(index: selection.PoolIndex, strategy: selection.SelectionStrategy, out: Outputs,
            path: str, params: dict):
    result = selection.select(index, strategy)
    out.document(path, result, "select", params)
    log.info("selected %d / %d examples (%s)", strategy.k, len(index), strategy.kind)
    return result


def _split(full, train, out: Outputs, path: str, params: dict) -> None:
    split = splitgen.lemma_split(full, train)
    out.table(path, corpus.serialize(split.test), "split", params)
    log.info("lemma split: %d of %d triples kept for test", len(split.test), len(full))


# ---------------------------------------------------------------- subcommands
# Each command writes through one Outputs, built from all its paths before
# it reads any input.

def cmd_parse(args) -> None:
    with Outputs(tables=[args.out]) as out:
        d = _parse(args.infile)
        out.table(args.out, corpus.to_jsonl(d), "parse", vars(args))
    log.info("parsed %d triples from %s", len(d), args.infile)


def cmd_augment(args) -> None:
    cfg = corruption.CorruptionConfig(
        theta=args.theta,
        exclude_original=not args.allow_original_char,
        min_run=args.min_run,
        seed=derive_seed(args.seed, "augment"),
    )
    with Outputs(tables=[args.out, *([args.tsv_out] if args.tsv_out else [])]) as out:
        pool = _augment(_parse(args.gold), args.n, cfg, out, args.out, vars(args))
        if args.tsv_out:
            out.table(args.tsv_out, corpus.serialize(e.triple for e in pool), "augment",
                      vars(args))


def cmd_score(args) -> None:
    with Outputs(tables=[args.out]) as out:
        pool = _load(args.pool, corruption.read_pool_jsonl)
        _score(pool, _parse(args.gold), args.order, args.k_smooth, out, args.out, vars(args))


def cmd_select(args) -> None:
    if args.merged_out and not args.gold:
        raise UsageError("--merged-out needs --gold")
    if args.gold and not args.merged_out:
        raise UsageError("--gold needs --merged-out")
    with Outputs(args.out, tables=[args.merged_out] if args.merged_out else []) as out:
        gold = _parse(args.gold) if args.merged_out else None
        pool = _load_scored_pool(args.pool, args.scores)
        result = _select(selection.PoolIndex(pool), _strategy(args.strategy, args.k, args.seed),
                         out, args.out, vars(args))
        if args.merged_out:
            by_id = {e.id: e for e in pool}
            merged = corpus.serialize([*gold, *(by_id[i].triple for i in result["selected_ids"])])
            out.table(args.merged_out, merged, "select", vars(args))


def cmd_split(args) -> None:
    with Outputs(tables=[args.out]) as out:
        _split(_parse(args.full), _parse(args.train), out, args.out, vars(args))


def cmd_milab(args) -> None:
    from . import milab

    with Outputs(args.out) as out:
        try:
            # its ValueErrors are all bad sizes, raised before any other work
            grammar = milab.make_toy_grammar(
                n_stems=args.stems, n_msds=args.msds,
                seed=derive_seed(args.seed, "grammar"),
                harmony=args.harmony == "on",
                coupled=not args.uncoupled,
            )
        except ValueError as e:
            raise UsageError(f"--stems/--msds: {e}") from None
        curve = milab.mi_decay_curve(
            grammar, args.gold, _int_list(args.syn_sizes), theta=args.theta,
            seed=derive_seed(args.seed, "milab"), resamples=args.resamples,
        )
        out.document(args.out, {"curve": curve}, "milab", vars(args))
    log.info("wrote %d curve points to %s", len(curve), args.out)


def cmd_report(args) -> None:
    from . import report

    with Outputs(args.out) as out:
        # the small inputs first, so a bad one fails before the pool is read
        if args.selection:
            blob = _load(args.selection, _json)
            counts = blob.get("per_msd_counts") if isinstance(blob, dict) else None
            if not isinstance(counts, dict):
                raise MorphaugError(f"{args.selection}: expected a selection JSON with a "
                                    "'per_msd_counts' object")
            if not counts:
                raise MorphaugError(f"{args.selection}: the selection is empty")
            for msd, count in counts.items():
                AT_LEAST_1.check(args.selection, f"per_msd_counts[{msd!r}]", count)
        if args.harmony:
            cfg = _load(args.harmony, corpus.read_harmony_tsv)
        # gold's stems take the pool's min_run: its sidecar's, else augment's default
        meta_path = args.pool + META_SUFFIX
        meta = _load(meta_path, _json) if os.path.exists(meta_path) else {"params": {}}
        params = meta.get("params") if isinstance(meta, dict) else None
        if not isinstance(params, dict):
            raise MorphaugError(f"{meta_path}: expected a JSON object with a 'params' object")
        min_run = params.get("min_run", corruption.CorruptionConfig.min_run)
        AT_LEAST_1.check(meta_path, "params.min_run", min_run)
        pool = _load_scored_pool(args.pool, args.scores)
        gold = _parse(args.gold)
        stems = corruption.check_sources(pool, gold, min_run)
        blocks = {"correlations": report.correlations(pool, stems)}
        if args.selection:
            msd, count = report.msd_mode(counts)
            blocks["msd_mode"] = {"msd": msd, "count": count}
        if args.harmony:
            blocks["harmony"] = report.harmony_violation_stats(
                pool, cfg, stems, resamples=args.resamples,
                seed=derive_seed(args.seed, "report"),
            )
        out.document(args.out, blocks, "report", vars(args))
    log.info("wrote report to %s", args.out)


SWEEP_SIZES = (128, 256, 512, 1024, 2048)
# each key a pipeline config may hold, with its rule; any other key is a data error
CONFIG_KEYS = {"gold": PATH, "full": PATH, "n_pool": AT_LEAST_1, "theta": UNIT,
               "order": AT_LEAST_1, "k_smooth": POSITIVE, "strategies": STRATEGY_NAMES,
               "seed": INTEGER, "sweep": BOOL, "k": AT_LEAST_0}


def cmd_pipeline(args) -> None:
    cfg = _load(args.config, _json)
    if not isinstance(cfg, dict):
        raise MorphaugError(f"{args.config}: expected a JSON object")
    unknown = [k for k in cfg if k not in CONFIG_KEYS]
    if unknown:
        raise MorphaugError(f"{args.config}: unknown config key {', '.join(map(repr, unknown))}"
                            f" (the keys are {', '.join(CONFIG_KEYS)})")
    required = ["gold", "n_pool", "theta", "order", "k_smooth", "strategies", "seed"]
    missing = [k for k in required if k not in cfg]
    if missing:
        raise MorphaugError(f"pipeline config missing keys: {', '.join(missing)}")
    # every value is checked before the corpora are read or any file is written
    for key, rule in CONFIG_KEYS.items():
        if key in cfg:
            rule.check(args.config, key, cfg[key])
    seed, n_pool = cfg["seed"], cfg["n_pool"]
    sizes = SWEEP_SIZES if cfg.get("sweep") else [cfg.get("k", 128)]
    strategies = [_strategy(kind, k, seed) for kind in cfg["strategies"] for k in sizes]
    for s in strategies:  # as select does: a size is checked for each selection made
        selection.check_k(s.k, n_pool)
    ccfg = corruption.CorruptionConfig(theta=cfg["theta"], seed=derive_seed(seed, "augment"))

    out_dir = args.out_dir.rstrip("/")
    pool_out, scores_out, test_out = (f"{out_dir}/{name}"
                                      for name in ("pool.jsonl", "scores.tsv", "test.tsv"))
    select_outs = [f"{out_dir}/select-{s.kind}-{s.k}.json" for s in strategies]
    tables = [pool_out, scores_out, *([test_out] if "full" in cfg else [])]
    # a strategy listed twice writes its one file twice, with the same bytes
    with Outputs(*dict.fromkeys(select_outs), tables=tables, out_dir=out_dir) as out:
        gold = _parse(cfg["gold"])
        full = _parse(cfg["full"]) if "full" in cfg else None
        pool = _augment(gold, n_pool, ccfg, out, pool_out, cfg)
        scored = _score(pool, gold, cfg["order"], cfg["k_smooth"], out, scores_out, cfg)
        index = selection.PoolIndex(scored)  # grouped, ordered and ranked once for the sweep
        for strategy, select_out in zip(strategies, select_outs):
            _select(index, strategy, out, select_out, cfg)
        if full is not None:
            _split(full, gold, out, test_out, cfg)
    log.info("pipeline artifacts written to %s", out_dir)


# -------------------------------------------------------------------- parser

def build_parser() -> _Parser:
    p = _Parser(prog="morphaug", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=INTEGER.flag, default=0)
    common.add_argument("--quiet", action="store_true")
    scores_help = "id<TAB>nll scores: score's output or an external model's"
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("parse", parents=[common],
                        help="validate a UniMorph TSV and export JSONL")
    sp.add_argument("--in", type=PATH.flag, dest="infile", required=True)
    sp.add_argument("--out", type=PATH.flag, required=True)
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("augment", parents=[common], help="generate a stem-corrupted synthetic pool")
    sp.add_argument("--gold", type=PATH.flag, required=True)
    sp.add_argument("--n", type=AT_LEAST_1.flag, required=True)
    sp.add_argument("--theta", type=UNIT.flag, default=0.5)
    sp.add_argument("--min-run", type=AT_LEAST_1.flag, default=3)
    sp.add_argument("--allow-original-char", action="store_true",
                    help="let a substitution redraw the original character")
    sp.add_argument("--out", type=PATH.flag, required=True)
    sp.add_argument("--tsv-out", type=PATH.flag, default=None)
    sp.set_defaults(func=cmd_augment)

    sp = sub.add_parser("score", parents=[common], help="attach NLL uncertainty scores to a pool")
    sp.add_argument("--pool", type=PATH.flag, required=True)
    sp.add_argument("--gold", type=PATH.flag, required=True)
    sp.add_argument("--order", type=AT_LEAST_1.flag, default=3)
    sp.add_argument("--k-smooth", type=POSITIVE.flag, default=0.1)
    sp.add_argument("--out", type=PATH.flag, required=True)
    sp.set_defaults(func=cmd_score)

    sp = sub.add_parser("select", parents=[common], help="pick a subset of the scored pool")
    sp.add_argument("--pool", type=PATH.flag, required=True)
    sp.add_argument("--scores", type=PATH.flag, default=None, help=scores_help)
    sp.add_argument("--strategy", required=True, choices=selection.STRATEGIES)
    sp.add_argument("--k", type=AT_LEAST_0.flag, required=True)
    sp.add_argument("--gold", type=PATH.flag, default=None)
    sp.add_argument("--merged-out", type=PATH.flag, default=None,
                    help="also write gold + selection as one training TSV")
    sp.add_argument("--out", type=PATH.flag, required=True)
    sp.set_defaults(func=cmd_select)

    sp = sub.add_parser("split", parents=[common], help="lemma-disjoint compositional test split")
    sp.add_argument("--full", type=PATH.flag, required=True)
    sp.add_argument("--train", type=PATH.flag, required=True)
    sp.add_argument("--out", type=PATH.flag, required=True)
    sp.set_defaults(func=cmd_split)

    sp = sub.add_parser("milab", parents=[common], help="toy-grammar mutual-information lab")
    sp.add_argument("--stems", type=INTEGER.flag, default=50)
    sp.add_argument("--msds", type=INTEGER.flag, default=5)
    sp.add_argument("--gold", type=AT_LEAST_1.flag, default=500)
    sp.add_argument("--syn-sizes", type=SIZES.flag, default="0,500,5000,50000")
    sp.add_argument("--theta", type=UNIT.flag, default=1.0)
    sp.add_argument("--harmony", choices=("on", "off"), default="off")
    sp.add_argument("--uncoupled", action="store_true",
                    help="sample stems independently of MSDs")
    sp.add_argument("--resamples", type=AT_LEAST_0.flag, default=200)
    sp.add_argument("--out", type=PATH.flag, required=True)
    sp.set_defaults(func=cmd_milab)

    sp = sub.add_parser("report", parents=[common], help="correlations, MSD mode, harmony stats")
    sp.add_argument("--pool", type=PATH.flag, required=True)
    sp.add_argument("--scores", type=PATH.flag, default=None, help=scores_help)
    sp.add_argument("--gold", type=PATH.flag, required=True)
    sp.add_argument("--selection", type=PATH.flag, default=None)
    sp.add_argument("--harmony", type=PATH.flag, default=None, help="char<TAB>class vowel TSV")
    sp.add_argument("--resamples", type=AT_LEAST_1.flag, default=10000)
    sp.add_argument("--out", type=PATH.flag, required=True)
    sp.set_defaults(func=cmd_report)

    sp = sub.add_parser("pipeline", parents=[common], help="run all stages from a JSON config")
    sp.add_argument("--config", type=PATH.flag, required=True)
    sp.add_argument("--out-dir", type=PATH.flag, required=True)
    sp.set_defaults(func=cmd_pipeline)
    return p


def main(argv=None) -> int:
    # the pool and all that is built from it are acyclic (NamedTuples of str,
    # tuple and int), so reference counting frees them; the cyclic collector
    # would only walk them again and again
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                            format="%(levelname)s %(name)s: %(message)s")
        args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (MorphaugError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
