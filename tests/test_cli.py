import errno
import json
import os
import re
import stat
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from morphaug.cli import main
from morphaug.util import atomic_write

GOLD = (
    "walked\twalkeds\tV;PST\n"
    "talked\ttalkeds\tV;PST\n"
    "jumped\tjumpeds\tV;PST\n"
    "dreamed\tdreameds\tV;PST\n"
    "climbed\tclimbeds\tV;PST\n"
    "painted\tpainteds\tV;PST\n"
    "planted\tplanteds\tV;PST\n"
    "shouted\tshouteds\tV;PST\n"
    "walking\twalkings\tV;PRS\n"
    "talking\ttalkings\tV;PRS\n"
    "jumping\tjumpings\tV;PRS\n"
    "dreaming\tdreamings\tV;PRS\n"
    "climbing\tclimbings\tV;PRS\n"
    "painting\tpaintings\tV;PRS\n"
    "planting\tplantings\tV;PRS\n"
    "shouting\tshoutings\tV;PRS\n"
    "walker\twalkers\tN;PL\n"
    "talker\ttalkers\tN;PL\n"
    "jumper\tjumpers\tN;PL\n"
    "dreamer\tdreamers\tN;PL\n"
)


@pytest.fixture
def gold_file(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text(GOLD)
    return str(path)


def test_usage_error_exit_code_1(capsys):
    assert main(["augment", "--gold"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["select", "--strategy", "nonsense"]) == 1
    assert main([]) == 1
    capsys.readouterr()
    # select has no --alpha: every strategy's alpha is fixed by its kind
    assert main(["select", "--pool", "p", "--strategy", "umt", "--k", "1", "--out", "o",
                 "--alpha", "0.5"]) == 1
    assert "--alpha" in capsys.readouterr().err


def test_missing_argument_dependencies_are_usage_errors(gold_file, tmp_path, capsys,
                                                       monkeypatch):
    from morphaug import cli

    pool = str(tmp_path / "pool.jsonl")
    assert main(["augment", "--gold", gold_file, "--n", "5", "--out", pool, "--quiet"]) == 0
    capsys.readouterr()
    scores = tmp_path / "scores.tsv"
    # score takes exactly one score source: neither, or both, is refused
    for sources in ([], ["--gold", gold_file, "--external", "ext.tsv"]):
        assert main(["score", "--pool", pool, *sources, "--out", str(scores), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--gold" in err and "Traceback" not in err
        assert "--external" in err
        assert not scores.exists()

    sel, merged = tmp_path / "sel.json", tmp_path / "merged.tsv"
    assert main(["select", "--pool", pool, "--strategy", "random", "--k", "2",
                 "--merged-out", str(merged), "--out", str(sel), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--merged-out" in err and "Traceback" not in err
    assert not sel.exists() and not merged.exists()

    # --gold is read only for --merged-out, so alone it is refused before any input is read
    monkeypatch.setattr(cli, "_read", _no_input)
    assert main(["select", "--pool", pool, "--strategy", "random", "--k", "2",
                 "--gold", gold_file, "--out", str(sel), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert "--gold" in err and "--merged-out" in err
    assert not sel.exists()


def test_missing_file_exit_code_2(tmp_path, capsys):
    out = str(tmp_path / "out.jsonl")
    assert main(["parse", "--in", str(tmp_path / "nope.tsv"), "--out", out]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_input_exit_code_2(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("only-one-column\n")
    assert main(["parse", "--in", str(bad), "--out", str(tmp_path / "o.jsonl")]) == 2


@pytest.mark.parametrize("text, line, detail", [
    pytest.param("walk\twalked\tV\n\nonly-one-column\n", 3,
                 "expected 3 tab-separated fields: got 1", id="fields"),
    pytest.param("walk\t\tV\n", 1, "empty form", id="empty-field"),
    pytest.param("a\tb\tV;;X\n", 1, "triple '1': bad msd token ''", id="msd-token"),
    pytest.param("walked\twalkeds\tV;PST\n\ufefftalked\ttalkeds\tV;PST\n", 2,
                 "triple '2': lemma and form must not hold U+FEFF", id="byte-order-mark"),
])
def test_gold_line_errors_name_the_line(tmp_path, capsys, text, line, detail):
    bad = tmp_path / "bad.tsv"
    bad.write_text(text, encoding="utf-8")
    # with U+FEFF in its lemma, a synthetic triple could start the --tsv-out file
    for argv in (["parse", "--in", str(bad), "--out", str(tmp_path / "o.jsonl")],
                 ["augment", "--gold", str(bad), "--n", "1", "--seed", "2", "--out",
                  str(tmp_path / "pool.jsonl"), "--tsv-out", str(tmp_path / "pool.tsv")]):
        _assert_line_error(capsys, tmp_path, argv, bad, line, detail)


def test_parse_writes_jsonl_and_sidecar(gold_file, tmp_path):
    out = tmp_path / "parsed.jsonl"
    assert main(["parse", "--in", gold_file, "--out", str(out), "--quiet"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 20
    assert json.loads(lines[0])["lemma"] == "walked"
    meta = json.loads((tmp_path / "parsed.jsonl.meta.json").read_text())
    assert meta["stage"] == "parse" and "config_hash" in meta


@pytest.mark.parametrize("mask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_artifacts_get_the_mode_open_gives_a_new_file(gold_file, tmp_path, mask):
    out = tmp_path / "parsed.jsonl"
    out.write_text("")
    out.chmod(0o600)  # an artifact written over takes the new mode, as a rename does
    old = os.umask(mask)
    try:
        assert main(["parse", "--in", gold_file, "--out", str(out), "--quiet"]) == 0
    finally:
        os.umask(old)
    for path in (out, tmp_path / "parsed.jsonl.meta.json"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~mask
    assert not list(tmp_path.glob(".tmp-*"))


def test_atomic_write_failure_leaves_no_temp_file_and_names_the_target(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        atomic_write(str(tmp_path / "out.txt"), "\ud800")
    assert list(tmp_path.iterdir()) == []
    missing = str(tmp_path / "missing" / "out.txt")
    with pytest.raises(FileNotFoundError) as e:
        atomic_write(missing, "x")
    assert e.value.filename == missing


def test_augment_score_select_split_chain(gold_file, tmp_path):
    pool = str(tmp_path / "pool.jsonl")
    scores = str(tmp_path / "scores.tsv")
    sel = str(tmp_path / "sel.json")
    merged = str(tmp_path / "merged.tsv")
    test_out = str(tmp_path / "test.tsv")

    assert main(["augment", "--gold", gold_file, "--n", "60",
                 "--theta", "0.5", "--out", pool, "--quiet", "--seed", "7"]) == 0
    assert main(["score", "--pool", pool, "--gold", gold_file,
                 "--out", scores, "--quiet"]) == 0
    assert main(["select", "--pool", pool, "--scores", scores,
                 "--strategy", "ume-loss", "--k", "10",
                 "--gold", gold_file, "--merged-out", merged,
                 "--out", sel, "--quiet", "--seed", "7"]) == 0
    assert main(["split", "--full", gold_file, "--train", merged,
                 "--out", test_out, "--quiet"]) == 0

    blob = json.loads(open(sel).read())
    assert len(blob["selected_ids"]) == 10
    assert blob["strategy"]["kind"] == "ume-loss"
    assert "provenance" in blob
    merged_lines = open(merged).read().splitlines()
    assert len(merged_lines) == 30  # 20 gold + 10 selected
    # merged training lemmas cover all of gold, so the split keeps nothing
    assert open(test_out).read() == ""


def test_external_scores_path(gold_file, tmp_path):
    pool = str(tmp_path / "pool.jsonl")
    ext = tmp_path / "ext.tsv"
    out = str(tmp_path / "scores.tsv")
    assert main(["augment", "--gold", gold_file, "--n", "5",
                 "--out", pool, "--quiet"]) == 0
    ids = [json.loads(l)["id"] for l in open(pool)]
    ext.write_text("".join(f"{i}\t{v}.5\n" for v, i in enumerate(ids)))
    assert main(["score", "--pool", pool, "--external", str(ext),
                 "--out", out, "--quiet"]) == 0
    assert len(open(out).read().splitlines()) == 5
    # an incomplete external file is a data error
    ext.write_text(f"{ids[0]}\t1.0\n")
    assert main(["score", "--pool", pool, "--external", str(ext),
                 "--out", out, "--quiet"]) == 2
    # and so is an empty path, which names no file
    assert main(["score", "--pool", pool, "--external", "",
                 "--out", out, "--quiet"]) == 2


def test_milab_writes_curve(tmp_path):
    out = tmp_path / "curve.json"
    assert main(["milab", "--stems", "10", "--msds", "3", "--gold", "100",
                 "--syn-sizes", "0,100", "--resamples", "20",
                 "--out", str(out), "--quiet"]) == 0
    blob = json.loads(out.read_text())
    assert len(blob["curve"]) == 2
    point = blob["curve"][0]
    assert point["syn_size"] == 0 and point["lambda"] == 1.0
    assert set(point["mixture"]) == {
        "y_stem/t", "y_stem/x_affix", "y_affix/y_stem", "y_affix/x_stem",
    }


def test_report_subcommand(gold_file, tmp_path):
    pool = str(tmp_path / "pool.jsonl")
    scores = str(tmp_path / "scores.tsv")
    sel = str(tmp_path / "sel.json")
    out = tmp_path / "report.json"
    vowels = tmp_path / "vowels.tsv"
    vowels.write_text("a\tback\no\tback\nu\tback\ne\tfront\ni\tfront\n")
    assert main(["augment", "--gold", gold_file, "--n", "100",
                 "--out", pool, "--quiet"]) == 0
    assert main(["score", "--pool", pool, "--gold", gold_file,
                 "--out", scores, "--quiet"]) == 0
    assert main(["select", "--pool", pool, "--scores", scores,
                 "--strategy", "random", "--k", "20", "--out", sel,
                 "--quiet"]) == 0
    assert main(["report", "--pool", pool, "--scores", scores,
                 "--gold", gold_file, "--selection", sel,
                 "--harmony", str(vowels), "--resamples", "200",
                 "--out", str(out), "--quiet"]) == 0
    blob = json.loads(out.read_text())
    assert {"correlations", "msd_mode", "harmony"} <= set(blob)
    assert blob["correlations"]["n"] == 100
    assert 0.0 <= blob["harmony"]["violation_rate"] <= 1.0


def test_pipeline_runs_and_validates_config(gold_file, tmp_path):
    cfg = {
        "gold": gold_file, "n_pool": 80, "theta": 0.5, "order": 3,
        "k_smooth": 0.1, "strategies": ["random", "highloss"], "seed": 3,
        "k": 16,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg_path),
                 "--out-dir", str(out_dir), "--quiet"]) == 0
    assert (out_dir / "pool.jsonl").exists()
    assert (out_dir / "scores.tsv").exists()
    for kind in ("random", "highloss"):
        blob = json.loads((out_dir / f"select-{kind}-16.json").read_text())
        assert len(blob["selected_ids"]) == 16

    del cfg["theta"]
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(cfg_path),
                 "--out-dir", str(out_dir), "--quiet"]) == 2


def test_pipeline_equals_the_chained_subcommands(tmp_path, monkeypatch):
    import test_golden as golden

    monkeypatch.chdir(tmp_path)
    (tmp_path / "gold.tsv").write_text(golden.GOLD, encoding="utf-8")
    (tmp_path / "full.tsv").write_text(golden.FULL, encoding="utf-8")
    cfg = golden.PIPELINE_CONFIG
    (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["pipeline", "--config", "cfg.json", "--out-dir", "run", "--quiet"]) == 0

    common = ["--seed", str(cfg["seed"]), "--quiet"]
    assert main(["augment", "--gold", "gold.tsv", "--n", str(cfg["n_pool"]),
                 "--theta", str(cfg["theta"]), "--out", "pool.jsonl", *common]) == 0
    assert main(["score", "--pool", "pool.jsonl", "--gold", "gold.tsv",
                 "--order", str(cfg["order"]), "--k-smooth", str(cfg["k_smooth"]),
                 "--out", "scores.tsv", *common]) == 0
    assert main(["split", "--full", "full.tsv", "--train", "gold.tsv",
                 "--out", "test.tsv", *common]) == 0
    for name in ("pool.jsonl", "scores.tsv", "test.tsv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "run" / name).read_bytes()
    # the seeded strategies differ only by the select seed label
    for kind in ("highloss", "lowloss"):
        name = f"select-{kind}-{cfg['k']}.json"
        assert main(["select", "--pool", "pool.jsonl", "--scores", "scores.tsv",
                     "--strategy", kind, "--k", str(cfg["k"]), "--out", name, *common]) == 0
        chained, piped = (json.loads(p.read_text(encoding="utf-8"))
                          for p in (tmp_path / name, tmp_path / "run" / name))
        del chained["provenance"], piped["provenance"]
        assert chained == piped


def _ported(change, needle, label, n):
    """The n-th case, named by a short label instead of its whole needle."""
    return pytest.param(change, needle, id=f"change{n}-{label}")


@pytest.mark.parametrize("change, needle", [
    _ported({"strategies": ["random", "bogus"]},
            'cfg.json: strategies must be a list of strategy names (random, umt, ume, '
            'highloss, lowloss, umt-loss, ume-loss), got ["random", "bogus"]', "'bogus'", 0),
    _ported({"strategies": "random"}, "cfg.json: strategies must be a list of strategy names",
            "'strategies' must be a list", 1),
    ({"k": 81}, "k=81"),
    ({"sweep": True}, "k=128"),
    _ported({"k": 2.5}, "cfg.json: k must be an integer >= 0, got 2.5",
            "'k' must be an integer", 4),
    ({"order": 0}, "order"),
    _ported({"k_smooth": 0}, "cfg.json: k_smooth must be a number > 0 and finite, got 0",
            "k must be > 0", 6),
    ({"theta": 1.5}, "theta"),
    ({"order": "3"}, "cfg.json"),
    _ported({"k_smooth": float("nan")},  # JSON NaN
            "cfg.json: k_smooth must be a number > 0 and finite, got NaN",
            "cfg.json: k must be > 0 and finite, got nan", 9),
    _ported({"k_smooth": float("inf")},
            "cfg.json: k_smooth must be a number > 0 and finite, got Infinity",
            "cfg.json: k must be > 0 and finite, got inf", 10),
    ({"order": 2.5}, "cfg.json: order must be an integer >= 1"),
    _ported({"n_pool": 0}, "cfg.json: n_pool must be an integer >= 1, got 0",
            "cfg.json: 'n_pool' must be an integer >= 1", 12),
    _ported({"n_pool": 2.5}, "cfg.json: n_pool must be an integer >= 1, got 2.5",
            "cfg.json: 'n_pool' must be an integer >= 1", 13),
    # a value of the wrong type, a bool included, is refused naming its key
    ({"gold": 0}, "cfg.json: gold must be a path, got 0"),
    ({"full": None}, "cfg.json: full must be a path, got null"),
    ({"seed": "x"}, 'cfg.json: seed must be an integer, got "x"'),
    ({"seed": True}, "cfg.json: seed must be an integer, got true"),
    ({"order": True}, "cfg.json: order must be an integer >= 1, got true"),
    ({"theta": True}, "cfg.json: theta must be a number in [0, 1], got true"),
    ({"theta": "x"}, "cfg.json: theta must be a number in [0, 1]"),
    ({"k_smooth": True}, "cfg.json: k_smooth must be a number > 0 and finite, got true"),
    ({"sweep": "no"}, 'cfg.json: sweep must be true or false, got "no"'),
    # a misspelt key is no silent default: "swep" would leave the sweep off
    ({"swep": True}, "cfg.json: unknown config key 'swep'"),
    ({"alpha": 0.5, "K": 16}, "cfg.json: unknown config key 'alpha', 'K'"),
    # a sweep does not use k, but k is still checked
    ({"sweep": True, "k": "x"}, 'cfg.json: k must be an integer >= 0, got "x"'),
])
def test_invalid_pipeline_config_writes_nothing(gold_file, tmp_path, capsys, monkeypatch,
                                                change, needle):
    from morphaug import cli

    monkeypatch.setattr(cli, "_parse", _no_input)  # every check comes before the corpora
    cfg = {"gold": gold_file, "full": gold_file, "n_pool": 80, "theta": 0.5, "order": 3,
           "k_smooth": 0.1, "strategies": ["random", "highloss"], "seed": 3, "k": 16}
    cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "run"
    cfg_path.write_text(json.dumps({**cfg, **change}))
    assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(out_dir),
                 "--quiet"]) == 2
    _assert_data_error(capsys, out_dir, needle)


def test_report_resamples_below_one_is_a_usage_error(tmp_path, capsys):
    # the inputs do not exist: the check comes before any of them is read
    missing, out = str(tmp_path / "missing"), tmp_path / "report.json"
    assert main(["report", "--pool", missing, "--gold", missing, "--harmony", missing,
                 "--resamples", "0", "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--resamples" in err and "Traceback" not in err
    assert not out.exists()


@pytest.fixture
def scored_pool(gold_file, tmp_path):
    pool = str(tmp_path / "pool.jsonl")
    scores = str(tmp_path / "scores.tsv")
    assert main(["augment", "--gold", gold_file, "--n", "60", "--out", pool, "--quiet"]) == 0
    assert main(["score", "--pool", pool, "--gold", gold_file, "--out", scores,
                 "--quiet"]) == 0
    return pool, scores


def _assert_data_error(capsys, out, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(n in err for n in needles), err
    assert not out.exists()


def _assert_line_error(capsys, tmp_path, argv, path, line, detail):
    """argv exits 2 with `error: <path>: line N: ...` holding detail, with no
    traceback and no new file."""
    files = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert main([*argv, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line {line}: ") and "Traceback" not in err, err
    assert detail in err, err
    assert sorted(os.listdir(tmp_path)) == files


def test_report_on_empty_selection_is_a_data_error(gold_file, scored_pool, tmp_path, capsys):
    pool, scores = scored_pool
    sel, out = str(tmp_path / "sel.json"), tmp_path / "report.json"
    assert main(["select", "--pool", pool, "--scores", scores, "--strategy", "umt",
                 "--k", "0", "--out", sel, "--quiet"]) == 0
    capsys.readouterr()
    assert main(["report", "--pool", pool, "--scores", scores, "--gold", gold_file,
                 "--selection", sel, "--out", str(out), "--quiet"]) == 2
    _assert_data_error(capsys, out, "selection is empty")


@pytest.mark.parametrize("config", [3, ["gold", "n_pool", "theta", "order", "k_smooth",
                                    "strategies", "seed"]])
def test_pipeline_config_that_is_not_an_object_is_a_data_error(tmp_path, capsys, config):
    cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "run"
    cfg_path.write_text(json.dumps(config))
    assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(out_dir),
                 "--quiet"]) == 2
    _assert_data_error(capsys, out_dir, f"{cfg_path}: expected a JSON object")


@pytest.mark.parametrize("count", ["x", -3, 0, 1.5, True, None])
def test_report_selection_counts_must_be_integers_of_at_least_one(tmp_path, capsys,
                                                                  monkeypatch, count):
    from morphaug import cli

    sel, out = tmp_path / "sel.json", tmp_path / "report.json"
    sel.write_text(json.dumps({"per_msd_counts": {"N;PL": 2, "N;SG": count}}))
    read = cli._read
    # only the selection may be read: its counts are checked before the pool
    monkeypatch.setattr(cli, "_read", lambda path: read(path) if path == str(sel)
                        else _no_input())
    assert main(["report", "--pool", str(tmp_path / "pool.jsonl"), "--gold",
                 str(tmp_path / "gold.tsv"), "--selection", str(sel), "--out", str(out),
                 "--quiet"]) == 2
    _assert_data_error(capsys, out, str(sel), "per_msd_counts['N;SG'] must be an integer >= 1",
                       f"got {json.dumps(count)}")


def test_report_mode_tie_goes_to_the_smallest_msd(gold_file, scored_pool, tmp_path):
    pool, scores = scored_pool
    sel, out = tmp_path / "sel.json", tmp_path / "report.json"
    sel.write_text(json.dumps({"per_msd_counts": {"V;PST": 3, "N;PL": 3, "N;SG": 1}}))
    assert main(["report", "--pool", pool, "--scores", scores, "--gold", gold_file,
                 "--selection", str(sel), "--out", str(out), "--quiet"]) == 0
    assert json.loads(out.read_text())["msd_mode"] == {"count": 3, "msd": "N;PL"}


@pytest.mark.parametrize("blob", [{"selected_ids": []}, [], {"per_msd_counts": 3}])
def test_report_selection_without_counts_is_a_data_error(gold_file, scored_pool, tmp_path,
                                                         capsys, blob):
    pool, scores = scored_pool
    sel, out = tmp_path / "sel.json", tmp_path / "report.json"
    sel.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["report", "--pool", pool, "--scores", scores, "--gold", gold_file,
                 "--selection", str(sel), "--out", str(out), "--quiet"]) == 2
    _assert_data_error(capsys, out, str(sel), "'per_msd_counts'")


@pytest.mark.parametrize("text", ["a\tback\ne back\n", "a\tback\n\ne\tfront\tx\n"])
def test_report_malformed_harmony_line_is_a_data_error(gold_file, scored_pool, tmp_path,
                                                        capsys, text):
    pool, scores = scored_pool
    vowels, out = tmp_path / "vowels.tsv", tmp_path / "report.json"
    vowels.write_text(text)
    capsys.readouterr()
    assert main(["report", "--pool", pool, "--scores", scores, "--gold", gold_file,
                 "--harmony", str(vowels), "--out", str(out), "--quiet"]) == 2
    line = len(text.splitlines())
    _assert_data_error(capsys, out, f"line {line}:", "char<TAB>class")


def test_report_with_another_gold_file_is_a_data_error(gold_file, scored_pool, tmp_path,
                                                      capsys):
    # the pool draws from 20 gold triples; this gold file has only the first 2
    pool, scores = scored_pool
    other, out = tmp_path / "other.tsv", tmp_path / "report.json"
    other.write_text("".join(GOLD.splitlines(keepends=True)[:2]))
    with open(pool, encoding="utf-8") as f:
        sources = [json.loads(line)["source_id"] for line in f]
    first_missing = next(sid for sid in sources if sid not in ("1", "2"))
    capsys.readouterr()
    assert main(["report", "--pool", pool, "--scores", scores, "--gold", str(other),
                 "--out", str(out), "--quiet"]) == 2
    _assert_data_error(capsys, out, f"source id {first_missing!r}")


def test_report_with_a_wrong_gold_of_the_same_size_is_a_data_error(tmp_path, capsys):
    # every source id of the pool is a line of the other gold file, but its
    # words are not the ones the pool was corrupted from
    gold, other = tmp_path / "gold.tsv", tmp_path / "other.tsv"
    gold.write_text("walk\twalked\tV;PST\ntalk\ttalked\tV;PST\n"
                    "jump\tjumped\tV;PST\ndream\tdreamed\tV;PST\n")
    other.write_text("oxoxo\toxoxos\tV;PST\nbat\tbats\tV;PST\n"
                     "catty\tcattys\tV;PST\ndog\tdogs\tV;PST\n")
    pool, scores = str(tmp_path / "pool.jsonl"), str(tmp_path / "scores.tsv")
    assert main(["augment", "--gold", str(gold), "--n", "40", "--out", pool, "--quiet"]) == 0
    assert main(["score", "--pool", pool, "--gold", str(gold), "--out", scores,
                 "--quiet"]) == 0
    out = tmp_path / "report.json"
    assert main(["report", "--pool", pool, "--scores", scores, "--gold", str(gold),
                 "--out", str(out), "--quiet"]) == 0
    out.unlink()
    capsys.readouterr()
    assert main(["report", "--pool", pool, "--scores", scores, "--gold", str(other),
                 "--out", str(out), "--quiet"]) == 2
    _assert_data_error(capsys, out, "pool example 'syn000000'", "--gold")


@pytest.mark.parametrize("bad", ['[1, 2]', '"syn000002"', '7', 'null'])
def test_pool_line_that_is_not_an_object_is_a_data_error(gold_file, tmp_path, capsys, bad):
    pool = tmp_path / "pool.jsonl"
    assert main(["augment", "--gold", gold_file, "--n", "5", "--out", str(pool),
                 "--quiet"]) == 0
    lines = pool.read_text().splitlines()
    lines[2] = bad
    pool.write_text("\n".join(lines) + "\n")
    out = tmp_path / "sel.json"
    capsys.readouterr()
    assert main(["select", "--pool", str(pool), "--strategy", "random", "--k", "2",
                 "--out", str(out), "--quiet"]) == 2
    _assert_data_error(capsys, out, "line 3:", "expected a JSON object")


@pytest.mark.parametrize("argv,flag", [
    (["--stems", "209"], "--stems"),
    (["--stems", "0"], "--stems"),
    (["--msds", "0"], "--msds"),
    (["--msds", "13"], "--msds"),
    (["--stems", "3", "--msds", "4"], "--stems"),
])
def test_milab_sizes_out_of_range_are_usage_errors(tmp_path, capsys, argv, flag):
    out = tmp_path / "curve.json"
    assert main(["milab", *argv, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and flag in err and "Traceback" not in err
    assert not out.exists()


def test_pool_line_missing_a_key_is_a_data_error(gold_file, tmp_path, capsys):
    pool = tmp_path / "pool.jsonl"
    assert main(["augment", "--gold", gold_file, "--n", "5", "--out", str(pool),
                 "--quiet"]) == 0
    lines = pool.read_text().splitlines()
    broken = json.loads(lines[2])
    del broken["source_id"]
    lines[2] = json.dumps(broken)
    pool.write_text("\n".join(lines) + "\n")
    out = tmp_path / "sel.json"
    capsys.readouterr()
    assert main(["select", "--pool", str(pool), "--strategy", "random", "--k", "2",
                 "--out", str(out), "--quiet"]) == 2
    _assert_data_error(capsys, out, "line 3:", "'source_id'")


@pytest.mark.parametrize("key, value, expected", [
    ("lemma", 5, "a string"),
    ("id", None, "a string"),
    ("source_id", ["1"], "a string"),
    ("form", True, "a string"),
    ("msd", 5, "a list of strings"),
    ("msd", ["V", 5], "a list of strings"),
    ("msd", "V;PST", "a list of strings"),
    ("substituted_lemma_positions", 5, "a list of integers"),
    ("substituted_form_positions", [True], "a list of integers"),
    ("substituted_form_positions", [1.0], "a list of integers"),
    ("lev_to_gold_target", "2", "an integer"),
    ("lev_to_gold_target", False, "an integer"),
    ("score", float("nan"), "finite number >= 0"),
    ("score", float("inf"), "finite number >= 0"),
    ("score", -0.5, "finite number >= 0"),
    ("score", "1.5", "finite number >= 0"),
    ("score", True, "finite number >= 0"),
    ("lev_to_gold_target", -1, "an integer >= 0"),
])
def test_pool_value_of_the_wrong_type_is_a_data_error(gold_file, tmp_path, capsys,
                                                      key, value, expected):
    pool = tmp_path / "pool.jsonl"
    assert main(["augment", "--gold", gold_file, "--n", "5", "--out", str(pool),
                 "--quiet"]) == 0
    lines = pool.read_text().splitlines()
    broken = json.loads(lines[2])
    broken[key] = value
    lines[2] = json.dumps(broken)  # NaN and Infinity as Python's json writes them
    pool.write_text("\n".join(lines) + "\n")
    out, merged = tmp_path / "sel.json", tmp_path / "train.tsv"
    capsys.readouterr()
    assert main(["select", "--pool", str(pool), "--strategy", "random", "--k", "2",
                 "--gold", gold_file, "--merged-out", str(merged), "--out", str(out),
                 "--quiet"]) == 2
    _assert_data_error(capsys, out, "line 3:", repr(key), expected)
    assert not merged.exists()


def test_truncated_pool_line_is_a_data_error_naming_the_line(gold_file, tmp_path, capsys):
    pool = tmp_path / "pool.jsonl"
    assert main(["augment", "--gold", gold_file, "--n", "5", "--out", str(pool),
                 "--quiet"]) == 0
    lines = pool.read_text().splitlines()
    lines[2] = lines[2][:40]
    pool.write_text("\n".join(lines) + "\n")
    out = tmp_path / "sel.json"
    capsys.readouterr()
    assert main(["select", "--pool", str(pool), "--strategy", "random", "--k", "2",
                 "--out", str(out), "--quiet"]) == 2
    _assert_data_error(capsys, out, "line 3:", "not valid JSON")


@pytest.mark.parametrize("sizes", ["0,-5", "-5", "0,5x", "500,", "1.5"])
def test_milab_bad_syn_sizes_are_usage_errors(tmp_path, capsys, sizes):
    out = tmp_path / "curve.json"
    assert main(["milab", "--syn-sizes", sizes, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--syn-sizes" in err and "Traceback" not in err
    assert not out.exists()


def test_milab_corrupts_each_synthetic_size_once(tmp_path, monkeypatch):
    from morphaug import milab

    calls = []
    real = milab.corrupt_toy

    def counted(gold, g, n, theta, seed=0):
        calls.append(n)
        return real(gold, g, n, theta, seed)

    monkeypatch.setattr(milab, "corrupt_toy", counted)
    out = tmp_path / "curve.json"
    assert main(["milab", "--stems", "10", "--msds", "3", "--gold", "100",
                 "--syn-sizes", "0,100,300", "--resamples", "5",
                 "--out", str(out), "--quiet"]) == 0
    assert calls == [100, 300]
    gaps = [p["factorization_gap"] for p in json.loads(out.read_text())["curve"]]
    assert all(0.0 <= gap["tv_distance"] <= 1.0 for gap in gaps)


def _probe(code: str, **env_changes) -> str:
    """The stdout of a fresh interpreter that runs code with src importable,
    in the environment changed by env_changes (a None value unsets a variable)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for key, value in env_changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    return result.stdout.strip()


def test_cli_import_does_not_load_numpy():
    assert _probe("import sys, morphaug.cli; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
def test_cli_import_defaults_to_one_blas_thread_and_keeps_a_set_value(given, expected):
    code = "import os, morphaug.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _probe(code, OPENBLAS_NUM_THREADS=given) == expected


@pytest.mark.parametrize("key, value, detail", [
    ("lemma", "", "lemma and form must be non-empty"),
    ("form", "", "lemma and form must be non-empty"),
    ("msd", [], "msd must have at least one feature"),
    ("msd", ["V;X"], "bad msd token 'V;X'"),
    ("msd", ["V", "P ST"], "bad msd token 'P ST'"),
])
def test_pool_line_with_an_invalid_triple_is_a_data_error_naming_the_line(
        gold_file, tmp_path, capsys, key, value, detail):
    pool = tmp_path / "pool.jsonl"
    assert main(["augment", "--gold", gold_file, "--n", "5", "--out", str(pool),
                 "--quiet"]) == 0
    lines = pool.read_text().splitlines()
    broken = json.loads(lines[2])
    broken[key] = value
    lines[2] = json.dumps(broken)
    pool.write_text("\n".join(lines) + "\n")
    out = tmp_path / "sel.json"
    capsys.readouterr()
    assert main(["select", "--pool", str(pool), "--strategy", "random", "--k", "2",
                 "--out", str(out), "--quiet"]) == 2
    _assert_data_error(capsys, out, "line 3:", detail)


def _no_work(*args, **kwargs):
    raise AssertionError("milab did work before its flags were checked")


@pytest.mark.parametrize("argv,flag", [
    (["--resamples", "-3"], "--resamples"),
    (["--theta", "1.5", "--syn-sizes", "0"], "--theta"),
    (["--theta", "1.5"], "--theta"),
    (["--theta", "-0.5"], "--theta"),
    (["--theta", "nan"], "--theta"),
    (["--gold", "0"], "--gold"),
    (["--gold", "-2"], "--gold"),
])
def test_milab_bad_flag_values_are_usage_errors_before_any_work(tmp_path, capsys, monkeypatch,
                                                                argv, flag):
    from morphaug import milab

    monkeypatch.setattr(milab, "make_toy_grammar", _no_work)
    monkeypatch.setattr(milab, "mi_decay_curve", _no_work)
    out = tmp_path / "curve.json"
    assert main(["milab", *argv, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and flag in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["augment", "--n", "0"], "--n"),
    (["augment", "--n", "5", "--theta", "2"], "--theta"),
    (["augment", "--n", "5", "--theta", "nan"], "--theta"),
    (["augment", "--n", "5", "--min-run", "0"], "--min-run"),
    (["score", "--order", "0"], "--order"),
    (["score", "--k-smooth", "0"], "--k-smooth"),
    (["score", "--k-smooth", "-1"], "--k-smooth"),
    (["score", "--k-smooth", "nan"], "--k-smooth"),
    (["score", "--k-smooth", "inf"], "--k-smooth"),
])
def test_augment_and_score_bad_flag_values_are_usage_errors(tmp_path, capsys, argv, flag):
    # the inputs do not exist: the flags are checked before any of them is read
    missing, out = str(tmp_path / "missing"), tmp_path / "out"
    inputs = {"augment": ["--gold", missing], "score": ["--pool", missing, "--gold", missing]}
    assert main([*argv, *inputs[argv[0]], "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and flag in err and "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_a_failed_write_names_only_the_target_and_leaves_no_temp_file(gold_file, tmp_path,
                                                                     capsys):
    adir = tmp_path / "adir"
    adir.mkdir()
    for out, code in ((adir, errno.EISDIR), (tmp_path / "missing" / "out.jsonl", errno.ENOENT)):
        assert main(["parse", "--in", gold_file, "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)}: '{out}'\n"
    assert sorted(os.listdir(tmp_path)) == ["adir", "gold.tsv"] and os.listdir(adir) == []


@pytest.mark.parametrize("where", ["a directory", "in a missing directory"])
def test_milab_out_is_checked_before_any_work(tmp_path, capsys, monkeypatch, where):
    from morphaug import milab

    monkeypatch.setattr(milab, "make_toy_grammar", _no_work)
    monkeypatch.setattr(milab, "mi_decay_curve", _no_work)
    adir = tmp_path / "adir"
    adir.mkdir()
    out = adir if where == "a directory" else tmp_path / "missing" / "curve.json"
    assert main(["milab", "--stems", "8", "--msds", "2", "--gold", "30",
                 "--syn-sizes", "0,3000", "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{out}'" in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["adir"] and os.listdir(adir) == []


@pytest.mark.parametrize("theta", ["0", "1"])
def test_milab_flag_bounds_are_accepted(tmp_path, theta):
    out = tmp_path / "curve.json"
    assert main(["milab", "--stems", "8", "--msds", "2", "--gold", "1", "--syn-sizes", "0,20",
                 "--theta", theta, "--resamples", "0", "--out", str(out), "--quiet"]) == 0
    curve = json.loads(out.read_text())["curve"]
    assert all(est["ci"] == [None, None] for p in curve for est in p["mixture"].values())


@pytest.mark.parametrize("case", ["parse --in", "parse --out", "parse --out/", "augment --gold",
                                  "augment --out", "augment --out/", "milab --out",
                                  "milab --out/"])
def test_directory_paths_are_data_errors(gold_file, tmp_path, capsys, case):
    adir = tmp_path / "adir"
    adir.mkdir()
    command, flag = case.split()
    out = str(tmp_path / "out.json")
    if flag == "--out":
        out = str(adir)
    elif flag == "--out/":
        out = str(tmp_path / "ro") + "/"
    inputs = {
        "parse": ["--in", str(adir) if flag == "--in" else gold_file],
        "augment": ["--gold", str(adir) if flag == "--gold" else gold_file, "--n", "5"],
        "milab": ["--stems", "8", "--msds", "2", "--gold", "20", "--syn-sizes", "0,20",
                  "--resamples", "2"],
    }[command]
    before = sorted(os.listdir(tmp_path))
    assert main([command, *inputs, "--out", out, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == before and os.listdir(adir) == []


def _no_input(*args, **kwargs):
    raise AssertionError("an input was read before the outputs were checked")


@pytest.mark.parametrize("argv, blocked", [
    (["parse", "--in", "in.tsv", "--out", "out.jsonl"], "out.jsonl"),
    (["augment", "--gold", "gold.tsv", "--n", "5", "--out", "pool.jsonl"], "pool.jsonl"),
    (["augment", "--gold", "gold.tsv", "--n", "5", "--out", "pool.jsonl",
      "--tsv-out", "pool.tsv"], "pool.tsv.meta.json"),
    (["score", "--pool", "pool.jsonl", "--gold", "gold.tsv", "--out", "scores.tsv"],
     "scores.tsv.meta.json"),
    (["select", "--pool", "pool.jsonl", "--strategy", "random", "--k", "2",
      "--out", "sel.json"], "sel.json"),
    (["select", "--pool", "pool.jsonl", "--strategy", "random", "--k", "2", "--gold",
      "gold.tsv", "--merged-out", "merged.tsv", "--out", "sel.json"], "merged.tsv"),
    (["split", "--full", "full.tsv", "--train", "gold.tsv", "--out", "test.tsv"], "test.tsv"),
    (["report", "--pool", "pool.jsonl", "--gold", "gold.tsv", "--out", "report.json"],
     "report.json"),
])
def test_outputs_are_checked_before_any_input_is_read(tmp_path, capsys, monkeypatch, argv,
                                                      blocked):
    from morphaug import cli

    monkeypatch.setattr(cli, "_read", _no_input)
    monkeypatch.chdir(tmp_path)
    (tmp_path / blocked).mkdir()
    assert main([*argv, "--quiet"]) == 2
    assert capsys.readouterr().err == \
        f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{blocked}'\n"
    assert os.listdir(tmp_path) == [blocked] and os.listdir(tmp_path / blocked) == []


def test_an_output_under_a_file_is_a_data_error_before_any_work(gold_file, tmp_path, capsys,
                                                                monkeypatch):
    from morphaug import cli

    monkeypatch.setattr(cli, "_read", _no_input)
    out = os.path.join(gold_file, "out.jsonl")
    assert main(["parse", "--in", gold_file, "--out", out, "--quiet"]) == 2
    assert capsys.readouterr().err == \
        f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{out}'\n"
    assert os.listdir(tmp_path) == ["gold.tsv"]


@pytest.mark.parametrize("blocked", ["pool.jsonl", "pool.jsonl.meta.json", "scores.tsv",
                                     "select-umt-4.json", "test.tsv.meta.json"])
def test_pipeline_checks_every_artifact_before_reading_the_corpora(gold_file, tmp_path, capsys,
                                                                   monkeypatch, blocked):
    from morphaug import cli

    monkeypatch.setattr(cli, "_parse", _no_input)
    cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "run"
    cfg_path.write_text(json.dumps({
        "gold": gold_file, "full": gold_file, "n_pool": 20, "theta": 0.5, "order": 2,
        "k_smooth": 0.1, "strategies": ["random", "umt"], "seed": 3, "k": 4}))
    (out_dir / blocked).mkdir(parents=True)
    assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(out_dir),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{out_dir / blocked}'" in err
    assert os.listdir(out_dir) == [blocked] and os.listdir(out_dir / blocked) == []


def test_a_strategy_listed_twice_writes_its_one_file_under_an_existing_out_dir(gold_file,
                                                                              tmp_path):
    cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "run"
    cfg_path.write_text(json.dumps({
        "gold": gold_file, "n_pool": 20, "theta": 0.5, "order": 2, "k_smooth": 0.1,
        "strategies": ["umt", "umt"], "seed": 3, "k": 4}))
    out_dir.mkdir()
    assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(out_dir),
                 "--quiet"]) == 0
    assert "select-umt-4.json" in os.listdir(out_dir)


# --------------------------------------------------------- the output transaction
# A command that fails adds no file or directory, and leaves the artifacts of
# an earlier run as they were.

def _snapshot(root) -> dict:
    """Every file and directory under root, a file with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def _pipeline_config(tmp_path, gold, seed=3) -> str:
    cfg = tmp_path / f"cfg{seed}.json"
    cfg.write_text(json.dumps({"gold": str(gold), "full": str(gold), "n_pool": 20,
                               "theta": 0.5, "order": 2, "k_smooth": 0.1,
                               "strategies": ["random", "umt"], "seed": seed, "k": 4}))
    return str(cfg)


@pytest.mark.parametrize("out_dir", ["run", "run/a/b"])
def test_a_pipeline_that_fails_makes_no_out_dir(tmp_path, capsys, monkeypatch, out_dir):
    monkeypatch.chdir(tmp_path)
    gold = tmp_path / "g.tsv"
    gold.write_text("go\twent\tV;PST\nbe\twas\tV;PST\n")
    cfg = _pipeline_config(tmp_path, "g.tsv")
    assert main(["pipeline", "--config", cfg, "--out-dir", out_dir, "--quiet"]) == 2
    assert capsys.readouterr().err == "error: no triple in 'g.tsv' has an alignable stem\n"
    assert sorted(os.listdir(tmp_path)) == ["cfg3.json", "g.tsv"]


@pytest.mark.parametrize("failure", [MemoryError, KeyboardInterrupt])
def test_a_failure_after_augment_adds_no_pipeline_artifact(gold_file, tmp_path, capsys,
                                                         monkeypatch, failure):
    from morphaug import cli

    run, cfg = tmp_path / "run", _pipeline_config(tmp_path, gold_file, seed=4)
    assert main(["pipeline", "--config", _pipeline_config(tmp_path, gold_file),
                 "--out-dir", str(run), "--quiet"]) == 0
    earlier = _snapshot(tmp_path)

    def fail(*args, **kwargs):
        raise failure("injected")

    monkeypatch.setattr(cli, "_select", fail)
    # a missing out-dir, and one that holds an earlier run's artifacts
    for out_dir in (tmp_path / "fresh" / "run", run):
        argv = ["pipeline", "--config", cfg, "--out-dir", str(out_dir), "--quiet"]
        if failure is MemoryError:
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: out of memory: injected\n"
        else:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        assert _snapshot(tmp_path) == earlier


@pytest.mark.parametrize("argv, failing_call, target", [
    (["augment", "--gold", "gold.tsv", "--n", "5", "--out", "pool.jsonl",
      "--tsv-out", "pool.tsv"], 3, "pool.tsv"),
    (["select", "--pool", "pool.jsonl", "--strategy", "random", "--k", "2", "--gold",
      "gold.tsv", "--merged-out", "merged.tsv", "--out", "sel.json"], 2, "merged.tsv"),
], ids=["augment --tsv-out", "select --merged-out"])
def test_a_failure_at_the_second_output_adds_no_file(gold_file, tmp_path, capsys, monkeypatch,
                                                     argv, failing_call, target):
    from morphaug import cli

    monkeypatch.chdir(tmp_path)
    assert main(["augment", "--gold", "gold.tsv", "--n", "5", "--out", "pool.jsonl",
                 "--quiet"]) == 0
    write, calls = cli.atomic_write, []

    def full_disk(path, text):
        calls.append(path)
        if len(calls) == failing_call:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
        write(path, text)

    monkeypatch.setattr(cli, "atomic_write", full_disk)
    for seed in ("1", "2"):  # the second run finds the first one's artifacts
        before = _snapshot(tmp_path)
        calls.clear()
        assert main([*argv, "--seed", seed, "--quiet"]) == 2
        assert capsys.readouterr().err == \
            f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{target}'\n"
        assert _snapshot(tmp_path) == before
        monkeypatch.setattr(cli, "atomic_write", write)
        assert main([*argv, "--seed", seed, "--quiet"]) == 0
        monkeypatch.setattr(cli, "atomic_write", full_disk)


def test_a_failed_rename_names_the_target_and_leaves_no_staged_file(gold_file, tmp_path,
                                                                    capsys, monkeypatch):
    replace, calls = os.replace, []

    def busy(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError(errno.EBUSY, os.strerror(errno.EBUSY), src, dst)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", busy)
    out = tmp_path / "parsed.jsonl"
    assert main(["parse", "--in", gold_file, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == \
        f"error: [Errno {errno.EBUSY}] {os.strerror(errno.EBUSY)}: '{out}.meta.json'\n"
    # a set of renames is not atomic as a whole: the first one has happened
    assert sorted(os.listdir(tmp_path)) == ["gold.tsv", "parsed.jsonl"]


# ------------------------------------------------- select and report inputs

def test_select_merged_out_reads_gold_before_writing(gold_file, tmp_path, capsys):
    pool, bad = str(tmp_path / "pool.jsonl"), tmp_path / "bad.tsv"
    assert main(["augment", "--gold", gold_file, "--n", "20", "--out", pool, "--quiet"]) == 0
    bad.write_text("walked\twalkeds\tV;PST\nonly-one-column\n")
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert main(["select", "--pool", pool, "--strategy", "random", "--k", "2",
                 "--gold", str(bad), "--merged-out", str(tmp_path / "m.tsv"),
                 "--out", str(tmp_path / "s.json"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == before


def test_select_merged_out_is_gold_then_the_selected_triples(gold_file, tmp_path):
    pool, sel, merged = (str(tmp_path / name) for name in ("pool.jsonl", "s.json", "m.tsv"))
    assert main(["augment", "--gold", gold_file, "--n", "40", "--out", pool, "--quiet"]) == 0
    assert main(["select", "--pool", pool, "--strategy", "ume", "--k", "7", "--gold", gold_file,
                 "--merged-out", merged, "--out", sel, "--quiet", "--seed", "3"]) == 0
    rows = {}
    with open(pool, encoding="utf-8") as f:
        for line in f:
            e = json.loads(line)
            rows[e["id"]] = f"{e['lemma']}\t{e['form']}\t{';'.join(e['msd'])}\n"
    ids = json.loads(open(sel).read())["selected_ids"]
    assert len(ids) == 7
    with open(merged, "rb") as f:
        assert f.read() == (GOLD + "".join(rows[i] for i in ids)).encode()


def test_select_negative_k_is_a_usage_error_before_any_input(tmp_path, capsys, monkeypatch):
    from morphaug import cli

    monkeypatch.setattr(cli, "_read", _no_input)
    out = tmp_path / "s.json"
    assert main(["select", "--pool", str(tmp_path / "p.jsonl"), "--strategy", "umt",
                 "--k", "-2", "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "--k" in err and "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_select_k_above_the_pool_size_stays_a_data_error(gold_file, tmp_path, capsys):
    pool, out = str(tmp_path / "pool.jsonl"), tmp_path / "s.json"
    assert main(["augment", "--gold", gold_file, "--n", "5", "--out", pool, "--quiet"]) == 0
    capsys.readouterr()
    assert main(["select", "--pool", pool, "--strategy", "random", "--k", "6",
                 "--out", str(out), "--quiet"]) == 2
    _assert_data_error(capsys, out, "k=6 exceeds pool size 5")


@pytest.mark.parametrize("text, line, needle", [
    ("a\tback\nab\tback\n", 2, "one character"),
    ("a\tback\ne\t\n", 2, "non-empty class"),
    ("\na\tback\na\tfront\n", 3, "'a' is listed twice"),
])
def test_report_harmony_lines_it_cannot_use_are_data_errors_before_the_pool(
        gold_file, tmp_path, capsys, text, line, needle):
    vowels, out = tmp_path / "vowels.tsv", tmp_path / "report.json"
    vowels.write_text(text)
    # the pool does not exist: the harmony file is checked before it is read
    _assert_line_error(capsys, tmp_path, ["report", "--pool", str(tmp_path / "missing.jsonl"),
                                          "--gold", gold_file, "--harmony", str(vowels),
                                          "--out", str(out)], vowels, line, needle)


BOM = "\ufeff"


def test_a_leading_bom_is_not_part_of_any_input(tmp_path, monkeypatch):
    import test_golden as golden

    # the same commands on the same inputs, once with a byte order mark
    # before each input file's text: every artifact has the same bytes
    cfg = {**golden.PIPELINE_CONFIG, "n_pool": 2000}
    inputs = {"gold.tsv": golden.GOLD, "full.tsv": golden.FULL, "cfg.json": json.dumps(cfg),
              "vowels.tsv": "a\tback\ne\tfront\n"}
    argvs = [["parse", "--in", "gold.tsv", "--out", "gold.jsonl"],
             ["augment", "--gold", "gold.tsv", "--n", "2000", "--out", "pool.jsonl"],
             ["pipeline", "--config", "cfg.json", "--out-dir", "run"],
             ["report", "--pool", "run/pool.jsonl", "--scores", "run/scores.tsv",
              "--gold", "gold.tsv", "--harmony", "vowels.tsv", "--resamples", "50",
              "--out", "report.json"]]
    outputs = {}
    for bom in ("", BOM):
        run = tmp_path / ("bom" if bom else "plain")
        run.mkdir()
        for name, text in inputs.items():
            (run / name).write_text(bom + text, encoding="utf-8")
        monkeypatch.chdir(run)
        for argv in argvs:
            assert main([*argv, "--quiet"]) == 0, argv
        outputs[bom] = {str(p.relative_to(run)): p.read_bytes()
                        for p in sorted(run.rglob("*")) if p.is_file() and p.name not in inputs}
    assert outputs[BOM] == outputs[""]
    assert not any(BOM.encode() in blob for blob in outputs[BOM].values())
    assert json.loads(outputs[BOM]["gold.jsonl"].splitlines()[0])["lemma"] == "walk"


def test_only_one_leading_bom_is_dropped(tmp_path, capsys):
    # the second is data, which no lemma may hold
    gold, out = tmp_path / "gold.tsv", tmp_path / "gold.jsonl"
    gold.write_text(BOM + BOM + "walk\twalked\tV;PST\n", encoding="utf-8")
    _assert_line_error(capsys, tmp_path, ["parse", "--in", str(gold), "--out", str(out)], gold,
                       1, "triple '1': lemma and form must not hold U+FEFF")


DEEP_JSON = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("command", ["pipeline", "score", "report"])
def test_deeply_nested_json_is_a_data_error_naming_the_file(gold_file, scored_pool, tmp_path,
                                                          capsys, command):
    pool, scores = scored_pool
    deep, out = tmp_path / "deep.json", tmp_path / "out"
    if command == "score":  # a pool whose second line is nested too deeply
        deep.write_text(open(pool).readline() + DEEP_JSON + "\n")
        argv = ["score", "--pool", str(deep), "--gold", gold_file, "--out", str(out)]
        needles = [f"{deep}: line 2:"]
    else:
        deep.write_text(DEEP_JSON)
        argv = (["pipeline", "--config", str(deep), "--out-dir", str(out)]
                if command == "pipeline" else
                ["report", "--pool", pool, "--scores", scores, "--gold", gold_file,
                 "--selection", str(deep), "--out", str(out)])
        needles = [f"{deep}:"]
    capsys.readouterr()
    assert main([*argv, "--quiet"]) == 2
    _assert_data_error(capsys, out, *needles, "not valid JSON")


@pytest.mark.parametrize("command", ["pipeline", "report"])
def test_invalid_utf8_in_a_json_input_names_the_file(gold_file, scored_pool, tmp_path, capsys,
                                                     command):
    pool, scores = scored_pool
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    bad.write_bytes(b"\xff{}")
    argv = (["pipeline", "--config", str(bad), "--out-dir", str(out)] if command == "pipeline"
            else ["report", "--pool", pool, "--scores", scores, "--gold", gold_file,
                  "--selection", str(bad), "--out", str(out)])
    capsys.readouterr()
    assert main([*argv, "--quiet"]) == 2
    _assert_data_error(capsys, out, f"error: {bad}: 'utf-8' codec can't decode byte 0xff in "
                       "position 0: invalid start byte\n")


@pytest.mark.parametrize("argv, first, second", [
    (["augment", "--gold", "gold.tsv", "--n", "5", "--out", "same.out", "--tsv-out",
      "same.out"], "same.out", "same.out"),
    (["augment", "--gold", "gold.tsv", "--n", "5", "--out", "x.jsonl", "--tsv-out",
      "./x.jsonl"], "x.jsonl", "./x.jsonl"),
    (["augment", "--gold", "gold.tsv", "--n", "5", "--out", "x.jsonl", "--tsv-out",
      "x.jsonl.meta.json"], "x.jsonl.meta.json", "x.jsonl.meta.json"),
    (["select", "--pool", "pool.jsonl", "--strategy", "random", "--k", "2", "--gold",
      "gold.tsv", "--merged-out", "sel.json", "--out", "sel.json"], "sel.json", "sel.json"),
])
def test_two_outputs_naming_one_file_are_a_usage_error_before_any_input(
        tmp_path, capsys, monkeypatch, argv, first, second):
    from morphaug import cli

    monkeypatch.setattr(cli, "_read", _no_input)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--quiet"]) == 1
    assert capsys.readouterr().err == \
        f"usage error: two outputs name one file: {first!r} and {second!r}\n"
    assert os.listdir(tmp_path) == []


# 8 PiB of float64 resample statistics: more than any 47-bit address space,
# so the allocation fails at once and touches no memory
TOO_MANY_RESAMPLES = str(2**50)


def test_milab_resamples_too_many_to_allocate_are_a_data_error(tmp_path, capsys):
    out = tmp_path / "curve.json"
    assert main(["milab", "--stems", "6", "--msds", "2", "--gold", "20", "--syn-sizes", "0,10",
                 "--resamples", TOO_MANY_RESAMPLES, "--out", str(out), "--quiet"]) == 2
    _assert_data_error(capsys, out, "error: out of memory: ")
    assert os.listdir(tmp_path) == []


def test_report_resamples_too_many_to_allocate_are_a_data_error(tmp_path, capsys):
    gold, pool, scores, vowels, out = (str(tmp_path / name) for name in (
        "gold.tsv", "pool.jsonl", "scores.tsv", "vowels.tsv", "report.json"))
    with open(gold, "w", encoding="utf-8") as f:  # kalap+ler breaks back/front harmony
        f.write("kalap\tkalapler\tN;PL\ndeniz\tdenizler\tN;PL\nokul\tokullar\tN;PL\n")
    with open(vowels, "w", encoding="utf-8") as f:
        f.write("a\tback\no\tback\nu\tback\ne\tfront\ni\tfront\n")
    assert main(["augment", "--gold", gold, "--n", "30", "--out", pool, "--quiet"]) == 0
    assert main(["score", "--pool", pool, "--gold", gold, "--out", scores, "--quiet"]) == 0
    argv = ["report", "--pool", pool, "--scores", scores, "--gold", gold,
            "--harmony", vowels, "--out", out, "--quiet"]
    out = tmp_path / "report.json"
    assert main([*argv, "--resamples", "10"]) == 0
    harmony = json.loads(out.read_text())["harmony"]
    assert harmony["n_violating"] and harmony["n_adhering"]  # so the bootstrap runs
    out.unlink()
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert main([*argv, "--resamples", TOO_MANY_RESAMPLES]) == 2
    _assert_data_error(capsys, out, "error: out of memory: ")
    assert sorted(os.listdir(tmp_path)) == before

def test_line_separators_in_the_gold_survive_augment_and_score(tmp_path, capsys):
    # json writes U+2028 and U+0085 unescaped; the pool reader splits at "\n" only
    gold, pool, scores = (str(tmp_path / name) for name in ("gold.tsv", "pool.jsonl",
                                                             "scores.tsv"))
    with open(gold, "w", encoding="utf-8") as f:
        f.write("wa\u2028lked\twa\u2028lkeds\tV;PST\n"
                "ta\x85lked\tta\x85lkeds\tV;PST\n"
                "jumped\tjumpeds\tV;PST\n")
    assert main(["augment", "--gold", gold, "--n", "50", "--theta", "0.5", "--out", pool,
                 "--quiet"]) == 0
    assert main(["score", "--pool", pool, "--gold", gold, "--out", scores, "--quiet"]) == 0
    with open(pool, encoding="utf-8") as f:
        lines = [json.loads(line) for line in f.read().split("\n") if line]
    assert sum("\u2028" in d["lemma"] for d in lines) > 0
    with open(scores, encoding="utf-8") as f:
        assert [line.split("\t")[0] for line in f.read().split("\n") if line] == \
            [d["id"] for d in lines]


def _pool_line(tid, lemma):
    return json.dumps({"id": tid, "source_id": "1", "lemma": lemma, "form": lemma + "ed",
                       "msd": ["V", "PST"], "substituted_lemma_positions": [],
                       "substituted_form_positions": [], "lev_to_gold_target": 0,
                       "score": 1.0}) + "\n"


def test_a_repeated_pool_id_is_a_data_error_naming_the_line(gold_file, tmp_path, capsys):
    pool = tmp_path / "pool.jsonl"
    pool.write_text(_pool_line("x", "walk") + _pool_line("x", "talk"))
    sel, merged = tmp_path / "sel.json", tmp_path / "merged.tsv"
    assert main(["select", "--pool", str(pool), "--strategy", "random", "--k", "2",
                 "--gold", gold_file, "--merged-out", str(merged), "--out", str(sel),
                 "--quiet"]) == 2
    _assert_data_error(capsys, sel, f"{pool}: line 2: duplicate id 'x'")
    assert not merged.exists()
    external, scores = tmp_path / "external.tsv", tmp_path / "scores.tsv"
    external.write_text("x\t0.5\n")
    assert main(["score", "--pool", str(pool), "--external", str(external),
                 "--out", str(scores), "--quiet"]) == 2
    _assert_data_error(capsys, scores, "line 2: duplicate id 'x'")


# ----------------------------------------------------------- the rule table

@pytest.mark.parametrize("argv, change", [
    (["augment", "--theta", "1.5"], {"theta": 1.5}),
    (["milab", "--theta", "abc"], {"theta": "abc"}),  # a text that is no number
    (["score", "--order", "0"], {"order": 0}),
    (["score", "--k-smooth", "inf"], {"k_smooth": float("inf")}),
    (["select", "--k", "-1"], {"k": -1}),
    (["augment", "--n", "x"], {"n_pool": 0}),
    (["milab", "--seed", "1.5"], {"seed": 1.5}),
])
def test_a_flag_and_its_config_key_break_their_rule_in_the_same_words(
        gold_file, tmp_path, capsys, monkeypatch, argv, change):
    from morphaug import cli

    read = cli._read
    monkeypatch.setattr(cli, "_read", _no_input)
    rest = {"augment": ["--gold", gold_file], "score": ["--pool", "p.jsonl", "--gold", gold_file],
            "select": ["--pool", "p.jsonl", "--strategy", "umt"], "milab": []}[argv[0]]
    argv = [*argv, *rest, "--out", str(tmp_path / "out")]
    with pytest.raises(cli.UsageError):  # refused by the parser, before any command runs
        cli.build_parser().parse_args(argv)
    assert main([*argv, "--quiet"]) == 1
    usage = capsys.readouterr().err
    assert usage.startswith(f"usage error: argument {argv[1]}: must be ")

    monkeypatch.setattr(cli, "_read", read)  # the config is read, the corpora are not
    monkeypatch.setattr(cli, "_parse", _no_input)
    cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "run"
    cfg_path.write_text(json.dumps({"gold": gold_file, "n_pool": 80, "theta": 0.5, "order": 3,
                                    "k_smooth": 0.1, "strategies": ["umt"], "seed": 3,
                                    **change}))
    assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(out_dir),
                 "--quiet"]) == 2
    data = capsys.readouterr().err
    assert data.startswith(f"error: {cfg_path}: {next(iter(change))} must be ")
    usage_words, data_words = (re.search(" must be (.+?), got ", err).group(1)
                               for err in (usage, data))
    assert usage_words == data_words
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "gold.tsv"]


def test_harmony_lines_end_at_newline_only(tmp_path):
    from morphaug import cli, milab

    vowels = tmp_path / "vowels.tsv"
    vowels.write_bytes("a\tback\u2028\ne\tfront\x85\r\n\ni\tneutral\r\n".encode())
    classes = cli._load(str(vowels), milab.read_harmony_tsv).vowel_classes
    assert classes == {"a": "back\u2028", "e": "front\x85", "i": "neutral"}


@pytest.mark.parametrize("command", ["score --external", "select --scores", "report --scores"])
def test_score_file_errors_name_the_file(gold_file, scored_pool, tmp_path, capsys, command):
    pool, _ = scored_pool
    bad, out = tmp_path / "bad.tsv", tmp_path / "out"
    bad.write_text("syn000000\tabc\n")
    argv = {"score --external": ["score", "--pool", pool, "--external", str(bad)],
            "select --scores": ["select", "--pool", pool, "--scores", str(bad),
                                "--strategy", "umt", "--k", "2"],
            "report --scores": ["report", "--pool", pool, "--scores", str(bad),
                                "--gold", gold_file]}[command]
    _assert_line_error(capsys, tmp_path, [*argv, "--out", str(out)], bad, 1,
                       "non-numeric score 'abc'")


@pytest.mark.parametrize("key", ["id", "source_id"])
@pytest.mark.parametrize("value", ["a\tb", "\ufeffa"])
def test_a_pool_id_a_scores_line_cannot_hold_is_a_data_error(gold_file, tmp_path, capsys,
                                                             key, value):
    pool, scores = tmp_path / "pool.jsonl", tmp_path / "scores.tsv"
    line = json.loads(_pool_line("y", "talk"))
    line[key] = value
    pool.write_text(_pool_line("x", "walk") + json.dumps(line) + "\n", encoding="utf-8")
    _assert_line_error(capsys, tmp_path, ["score", "--pool", str(pool), "--gold", gold_file,
                                          "--out", str(scores)], pool, 2,
                       f"'{key}' must be a string with no tab")


def test_an_nll_a_score_file_cannot_hold_names_the_line(scored_pool, tmp_path, capsys):
    pool, _ = scored_pool
    bad, out = tmp_path / "bad.tsv", tmp_path / "sel.json"
    bad.write_text("syn000001\t1.0\nsyn000000\tnan\n")
    capsys.readouterr()
    assert main(["select", "--pool", pool, "--scores", str(bad), "--strategy", "umt",
                 "--k", "2", "--out", str(out), "--quiet"]) == 2
    _assert_data_error(capsys, out, f"{bad}: line 2: nll must be finite and >= 0, got nan")


def _select_merged(gold, pool, tmp_path):
    sel, merged = tmp_path / "sel.json", tmp_path / "merged.tsv"
    code = main(["select", "--pool", str(pool), "--strategy", "random", "--k", "2",
                 "--gold", gold, "--merged-out", str(merged), "--out", str(sel), "--quiet"])
    return code, merged


@pytest.mark.parametrize("key", ["lemma", "form"])
@pytest.mark.parametrize("value", ["wa\tlk", "wa\nlk", "walk\r", "wa\ud800lk"])
def test_a_lemma_or_form_a_merged_tsv_cannot_hold_is_a_data_error(gold_file, tmp_path, capsys,
                                                                  key, value):
    pool = tmp_path / "pool.jsonl"
    line = json.loads(_pool_line("y", "talk"))
    line[key] = value
    pool.write_text(_pool_line("x", "walk") + json.dumps(line) + "\n", encoding="utf-8")
    code, merged = _select_merged(gold_file, pool, tmp_path)
    assert code == 2
    _assert_data_error(capsys, merged, f"{pool}: line 2: '{key}' must be ")
    assert not (tmp_path / "sel.json").exists()


ROUND_TRIP_GOLD = "walked\twalkeds\tV;PST\ntalked\ttalkeds\tV;PST\njumping\tjumpings\tV;PRS\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ids=st.lists(st.text(max_size=6), min_size=4, max_size=4, unique=True))
def test_any_pool_the_reader_accepts_scores_and_selects(tmp_path, ids):
    from morphaug import corruption
    from morphaug.errors import MorphaugError

    lines = [json.loads(_pool_line(f"s{i}", lemma))
             for i, lemma in enumerate(("walk", "talk", "jump", "dream"))]
    text = "".join(json.dumps({**d, "id": i}, ensure_ascii=False) + "\n"
                   for d, i in zip(lines, ids))
    try:
        corruption.read_pool_jsonl(text)
    except MorphaugError:
        assume(False)
    gold, pool, scores, sel = (str(tmp_path / name) for name in
                               ("gold.tsv", "pool.jsonl", "scores.tsv", "sel.json"))
    with open(gold, "w", encoding="utf-8") as f:
        f.write(ROUND_TRIP_GOLD)
    with open(pool, "w", encoding="utf-8") as f:
        f.write(text)
    assert main(["score", "--pool", pool, "--gold", gold, "--out", scores, "--quiet"]) == 0
    assert main(["select", "--pool", pool, "--scores", scores, "--strategy", "highloss",
                 "--k", "4", "--out", sel, "--quiet"]) == 0
    with open(sel, encoding="utf-8") as f:
        assert sorted(json.load(f)["selected_ids"]) == sorted(ids)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(words=st.lists(st.text(min_size=1, max_size=6), min_size=4, max_size=4))
def test_a_merged_tsv_of_any_pool_the_reader_accepts_parses_back(tmp_path, words):
    from morphaug import corruption
    from morphaug.errors import MorphaugError

    text = "".join(json.dumps({**json.loads(_pool_line(f"s{i}", "walk")), "lemma": lemma,
                               "form": form}, ensure_ascii=False) + "\n"
                   for i, (lemma, form) in enumerate(zip(words, words[1:] + words[:1])))
    try:
        corruption.read_pool_jsonl(text)
    except MorphaugError:
        assume(False)
    gold, pool, parsed = tmp_path / "gold.tsv", tmp_path / "pool.jsonl", tmp_path / "m.jsonl"
    gold.write_text(ROUND_TRIP_GOLD, encoding="utf-8")
    pool.write_text(text, encoding="utf-8")
    code, merged = _select_merged(str(gold), pool, tmp_path)
    assert code == 0
    assert main(["parse", "--in", str(merged), "--out", str(parsed), "--quiet"]) == 0
    with open(tmp_path / "sel.json", encoding="utf-8") as f:
        selected = [int(tid[1:]) for tid in json.load(f)["selected_ids"]]
    with open(parsed, encoding="utf-8") as f:
        triples = [json.loads(line) for line in f]
    assert [(t["lemma"], t["form"]) for t in triples] == [
        *(tuple(line.split("\t")[:2]) for line in ROUND_TRIP_GOLD.splitlines()),
        *((words[i], (words[1:] + words[:1])[i]) for i in selected)]
