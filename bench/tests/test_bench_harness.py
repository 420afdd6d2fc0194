"""Tests of the benchmark itself: deterministic inputs, a checker that
rejects corrupted outputs, metric names that match BENCHMARK.json, and a
tiny-scale smoke run of every workload."""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    a = workloads.build(workload, 7)
    assert a == workloads.build(workload, 7)
    if a.inputs:
        assert a.inputs != workloads.build(workload, 8).inputs
    else:  # milab generates its grammar from the seed it is given
        assert a.commands != workloads.build(workload, 8).commands


def test_paradigm_corpus_has_the_promised_shape():
    gold, full = workloads.paradigm_corpus(0, n_lemmas=300, n_full_extra=300)
    rows = [line.split("\t") for line in gold.splitlines()]
    assert len(rows) == 3000
    assert len({r[0] for r in rows}) == 300
    assert len({r[2] for r in rows}) == 60
    assert any("\u0301" in r[0] or "\u0308" in r[0] for r in rows)  # NFD diacritics
    assert len(full.splitlines()) > len(rows)


def test_many_tag_corpus_uses_every_msd():
    rows = [line.split("\t") for line in workloads.many_tag_corpus(0, 200, 500).splitlines()]
    assert len(rows) == 1000
    assert len({r[2] for r in rows}) == 500
    assert all(3 <= len(r[0]) <= 5 for r in rows)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One tiny augment-score repetition, checked clean."""
    plan = workloads.build("augment-score", 1, "tiny")
    d = tmp_path_factory.mktemp("rep") / "rep"
    rep = run.run_rep(plan, d, run.child_env(), d.parent / "stderr.log")
    assert rep["problems"] == []
    assert check.check(d, plan) == []
    return plan, d, rep["digests"]


def test_checker_rejects_one_flipped_byte(tiny_run, tmp_path):
    plan, d, seen = tiny_run
    copy = tmp_path / "rep"
    subprocess.run(["cp", "-r", str(d), str(copy)], check=True)
    pool = copy / "out/pool.jsonl"
    data = bytearray(pool.read_bytes())
    i = data.index(b'"lemma": "') + len(b'"lemma": "')
    data[i] ^= 1  # an ASCII letter stays an ASCII letter
    pool.write_bytes(bytes(data))
    assert check.digests(copy, plan.artifacts) != seen
    assert check.check(copy, plan) != []


def test_checker_rejects_wrong_selection_size(tiny_run, tmp_path):
    plan, d, _ = tiny_run
    copy = tmp_path / "rep"
    subprocess.run(["cp", "-r", str(d), str(copy)], check=True)
    path = copy / next(iter(plan.expect["selections"]))
    sel = json.loads(path.read_text())
    sel["selected_ids"].pop()
    path.write_text(json.dumps(sel))
    assert any("unique pool ids" in p for p in check.check(copy, plan))


def test_checker_reports_unreadable_artifacts(tiny_run, tmp_path):
    plan, d, _ = tiny_run
    copy = tmp_path / "rep"
    subprocess.run(["cp", "-r", str(d), str(copy)], check=True)
    (copy / "out/scores.tsv").write_bytes(b"\xff\xfe garbage")
    assert check.check(copy, plan) != []


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == tracer.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in [*e2e, *layers, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name), name


def _bench(workload, trace, seed=2):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload):
    result = _bench(workload, trace=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(tracer.metric_specs())
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert tracer.accounting_error(m) <= 1e-6 * max(m["trace.wall_s"], 1.0)


def test_traced_counts_repeat_exactly():
    first, second = (_bench("augment-score", trace=1, seed=5)["metrics"] for _ in range(2))
    counts = [k for k, (unit, _) in tracer.metric_specs().items()
              if unit != "s" and not k.endswith("peak_mib")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["alignment.levenshtein.calls"]["value"] > 0


def test_end_to_end_metrics_are_reported():
    result = _bench("milab", trace=0)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "bench" / "golden.json").write_text((BENCH / "golden.json").read_text())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "milab", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode not in (0, None)
    assert out.stdout == ""


def test_a_failing_command_fails_the_run(monkeypatch, tmp_path):
    plan = workloads.Plan(workload="milab", inputs={}, items=1, artifacts=["x.jsonl"],
                          commands=[["parse", "--in", "missing.tsv", "--out", "x.jsonl"]])
    monkeypatch.setattr(workloads, "build", lambda *a: plan)
    args = argparse.Namespace(workload="milab", seed=1, scale="tiny", seconds=0, trace=1)
    record = run.measure(args, tmp_path / "work")
    assert (record["attempted"], record["failed"], record["per_layer"]) == (1, 1, {})
    assert record["problems"] == ["`morphaug parse` exited 2"]
    assert run.report(record, trace=True)["correct"] is False
