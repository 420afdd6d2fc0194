"""morphaug benchmark: run one workload of the real CLI, check its outputs
and print its metrics.

    python3 bench/run.py --workload augment-score --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program measured is `src/morphaug`
of the checkout this file sits in, imported through PYTHONPATH (it need not
be installed). Inputs come from bench/workloads.py and the seed. The steps:

  1. a warm-up import of `morphaug.cli`, so bytecode compilation is not timed;
  2. setup_s: the median of SETUP_REPEATS fresh interpreters that import
     `morphaug.cli` (numpy included), which every CLI call pays;
  3. repetitions of the workload's command chain, one child process per
     command, each repetition in a fresh directory, until --seconds have
     passed (at least MIN_REPS). wall_s, cpu_s (user + sys of the children,
     from os.wait4) and peak_rss_mib (largest child ru_maxrss) are medians
     over repetitions; items_per_s is the workload's items over wall_s;
  4. the output check: the invariants in bench/check.py on the first
     repetition, byte equality of every later repetition with it, and for
     the default seed the sha256 digests pinned in bench/golden.json;
  5. with --trace 1, one more repetition with each command run in-process
     under bench/tracer.py, whose artifacts must equal the untraced ones; it
     gives the per-layer metrics and trace.overhead_s (its wall time minus
     the untraced median wall_s, both measured around the child processes).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1). A failed repetition (non-zero exit,
missing artifact, digest mismatch, broken invariant) counts in `failed` and
makes the exit code 1. Without the program's sources the benchmark exits 2
and prints no result. Scratch files live under .bench_work/ of the checkout
and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))  # the checker reads the gold segmentation

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# repeats at the full scale; the tiny smoke-test scale does one of each
SETUP_REPEATS = 11
MIN_REPS = 3
# a command takes at most ~12 s here; a child past this limit is killed and
# its repetition fails, which ends the measurement well inside 180 s
CHILD_TIMEOUT_S = 60.0
IMPORT_PROBE = "import morphaug, morphaug.cli; print(morphaug.__file__)"

# name -> (unit, better); every run with --trace 0 reports all of them
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}


class Child:
    """Wall time, exit code and resource usage of one finished child."""

    def __init__(self, argv, cwd, env, log):
        start = time.perf_counter()
        with open(log, "ab") as err:
            p = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                 stdout=subprocess.PIPE, stderr=err)
        # the pipe only ever carries a short line; a full pipe would need a
        # reader thread before wait4
        killer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        self.wall = time.perf_counter() - start
        p.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.stdout = p.stdout.read().decode("utf-8", "replace")
        p.stdout.close()
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mib = usage.ru_maxrss / 1024  # Linux reports KiB


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_rep(plan, rep_dir: Path, env: dict, log: Path) -> dict:
    """One repetition of the chain in a fresh directory."""
    rep_dir.mkdir(parents=True)
    plan.write_inputs(rep_dir)
    wall = cpu = rss = 0.0
    problems = []
    for argv in plan.commands:
        c = Child([sys.executable, "-m", "morphaug.cli", *argv], rep_dir, env, log)
        wall += c.wall
        cpu += c.cpu
        rss = max(rss, c.rss_mib)
        if c.rc != 0:
            problems.append(f"`morphaug {argv[0]}` exited {c.rc}")
            break
    seen = check.digests(rep_dir, plan.artifacts)
    if not problems:
        problems = [f"{a}: missing" for a, d in seen.items() if d is None]
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mib": rss,
            "digests": seen, "problems": problems}


def run_traced(plan, rep_dir: Path, env: dict, log: Path) -> dict:
    """The chain once more, each command in-process under the tracer."""
    rep_dir.mkdir(parents=True)
    plan.write_inputs(rep_dir)
    wall, dumps, problems = 0.0, [], []
    for run, argv in enumerate(plan.commands):
        spans = rep_dir.parent / f"spans{run}.json"
        c = Child([sys.executable, str(BENCH / "tracer.py"), str(spans), str(run), *argv],
                  rep_dir, env, log)
        wall += c.wall
        if c.rc != 0:
            problems.append(f"traced `morphaug {argv[0]}` exited {c.rc}")
            break
        dumps.append(json.loads(spans.read_text()))
    return {"wall_s": wall, "dumps": dumps, "problems": problems,
            "digests": check.digests(rep_dir, plan.artifacts)}


def commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    mem = "unknown"
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem = line.split(":", 1)[1].strip()
    except OSError:
        pass
    return {"commit": commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "mem_total": mem, "machine": platform.machine()}


def measure(args, work: Path) -> dict:
    plan = workloads.build(args.workload, args.seed, args.scale)
    env = child_env()
    log = work / "stderr.log"
    work.mkdir(parents=True)

    warm = Child([sys.executable, "-c", IMPORT_PROBE], work, env, log)
    imported = warm.stdout.strip()
    if warm.rc != 0 or not Path(imported).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: morphaug did not import from {ROOT / 'src'}: "
                         f"{imported or 'exit ' + str(warm.rc)}")
    record = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
              "seconds": args.seconds, "morphaug_file": imported, **machine()}
    import numpy  # the children import the same interpreter's numpy
    record["numpy"] = numpy.__version__

    full = args.scale == "full"
    setup = [Child([sys.executable, "-c", IMPORT_PROBE], work, env, log).wall
             for _ in range(SETUP_REPEATS if full else 1)]

    reps = []
    start = time.perf_counter()
    while len(reps) < (MIN_REPS if full else 1) or time.perf_counter() - start + \
            statistics.median(r["wall_s"] for r in reps) <= args.seconds:
        rep_dir = work / f"rep{len(reps)}"
        rep = run_rep(plan, rep_dir, env, log)
        if not rep["problems"] and not reps:
            rep["problems"] = check.check(rep_dir, plan)
            if args.seed == check.DEFAULT_SEED and full:
                rep["problems"] += check.golden_problems(args.workload, rep["digests"])
        elif not rep["problems"] and rep["digests"] != reps[0]["digests"]:
            rep["problems"] = ["artifacts differ from the first repetition"]
        reps.append(rep)
        shutil.rmtree(rep_dir)
        if rep["problems"]:
            break  # failures repeat; measuring on would only spend the time limit

    walls = [r["wall_s"] for r in reps]
    wall = statistics.median(walls)
    e2e = {
        "wall_s": wall,
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "items_per_s": plan.items / wall,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
        "setup_s": statistics.median(setup),
    }
    record.update(reps=len(reps), items=plan.items, setup_samples=setup,
                  samples={k: [r[k] for r in reps] for k in ("wall_s", "cpu_s", "peak_rss_mib")},
                  digests=reps[0]["digests"], end_to_end=e2e)
    runs = reps
    record["per_layer"] = {}
    if args.trace and not reps[-1]["problems"]:
        traced = run_traced(plan, work / "traced", env, log)
        if not traced["problems"] and traced["digests"] != reps[0]["digests"]:
            traced["problems"] = ["traced artifacts differ from the untraced ones"]
        if not traced["problems"]:
            layers = tracer.layer_metrics(traced["dumps"])
            layers["trace.overhead_s"] = traced["wall_s"] - wall
            if tracer.accounting_error(layers) > 1e-6 * max(layers["trace.wall_s"], 1.0):
                traced["problems"].append("layer self times do not add up to trace.wall_s")
            record["per_layer"] = layers
        runs = reps + [traced]
    failed = [r for r in runs if r["problems"]]
    record.update(attempted=len(runs), failed=len(failed),
                  problems=sorted({p for r in failed for p in r["problems"]}))
    return record


def report(record: dict, trace: bool) -> dict:
    """Human-readable lines on stdout; returns the result object."""
    w = record["workload"]
    print(f"# {w} seed={record['seed']} scale={record['scale']} "
          f"commit={record['commit']} python={record['python']} numpy={record['numpy']} "
          f"nproc={record['nproc']} mem={record['mem_total']}")
    print(f"# morphaug imported from {record['morphaug_file']}")
    for name, (unit, _) in END_TO_END.items():
        n = len(record["setup_samples"]) if name == "setup_s" else record["reps"]
        print(f"{w} {name} = {record['end_to_end'][name]:.6g} {unit} (median of {n})")
    print(f"{w} failed_ratio = {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']} runs)")
    for p in record["problems"]:
        print(f"{w} FAILED: {p}")
    if trace:
        specs = tracer.metric_specs()
        for name, value in record["per_layer"].items():
            print(f"{w} {name} = {value:.6g} {specs[name][0]}")
    metrics = record["per_layer"] if trace else record["end_to_end"]
    units = tracer.metric_specs() if trace else END_TO_END
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=workloads.SCALES, default="full",
                   help="'tiny' shrinks every size, for smoke tests")
    p.add_argument("--out", default=None, help="also write the full record as JSON here")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "morphaug" / "cli.py").is_file():
        print(f"error: no morphaug sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    result = report(record, bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
