"""Byte pin of the CLI artifacts: sha256 of every file written by a small
fixed `pipeline` run (with a `full` corpus for the split), a small
`milab --harmony on` run, an `augment --allow-original-char` run and a
`report --selection --harmony` run on a pipeline run of its own gold.

A change to any digest is a change of the program's output. Update the
digests only on purpose, and say why where the change is recorded."""

import hashlib
import json

import pytest

from morphaug.cli import main

_STEMS = ("walk", "talk", "sing", "drom", "plant", "shout", "kaber", "ntupa",
          "zelig", "mo\u0301rov", "vrast", "glimp")
# suffixes and a circumfix; the acute accents are NFD combining marks
_PARADIGM = (("", "N;SG"), ("ed", "V;PST"), ("ing", "V;PRS"), ("e\u0301s", "N;PL"),
             ("ge#en", "V;PTCP"))


def _inflect(stem, pattern):
    if "#" in pattern:
        pre, suf = pattern.split("#")
        return pre + stem + suf
    return stem + pattern


def _gold_rows(stems):
    rows = []
    for s in stems:
        for pattern, msd in _PARADIGM:
            rows.append(f"{s}\t{_inflect(s, pattern)}\t{msd}\n")
    rows.append("go\twent\tV;PST\n")  # suppletive: no stem run, skipped
    return rows


GOLD = "".join(_gold_rows(_STEMS[:9]))
FULL = GOLD + "".join(_gold_rows(_STEMS[9:]))
# a stem of two runs, kald and rmon: kaldurmons cuts to ("kaldrmon", "us")
REPORT_GOLD = GOLD + "kaldermon\tkaldurmons\tN;PL\n"
HARMONY = "a\tback\no\tback\nu\tback\ne\tfront\ni\tfront\n"

PIPELINE_CONFIG = {
    "gold": "gold.tsv", "full": "full.tsv", "n_pool": 400, "theta": 0.5,
    "order": 3, "k_smooth": 0.1,
    "strategies": ["random", "umt", "ume", "highloss", "lowloss", "umt-loss", "ume-loss"],
    "seed": 5, "k": 24,
}
REPORT_CONFIG = {
    "gold": "report-gold.tsv", "n_pool": 400, "theta": 0.5, "order": 3, "k_smooth": 0.1,
    "strategies": ["random"], "seed": 5, "k": 24,
}

GOLDEN = {
    "augment-allow-original": {
        "pool.jsonl":
            "b81b2c4db6c846b667d05818587fb7d84af22eff8ea08a59effc3a15e47f3f23",
        "pool.jsonl.meta.json":
            "c3012b48f6bfa509c20106f40f794d489c82ca9f1556658006759b5515bad4d3",
        "pool.tsv":
            "3bd950fd5b9e7bb72e850bebbeb93b0d7f60d125bb491af3412e4ee96e90310c",
        "pool.tsv.meta.json":
            "c3012b48f6bfa509c20106f40f794d489c82ca9f1556658006759b5515bad4d3",
    },
    "milab": {
        "curve.json":
            "b2b2b86c0bfc974e7608009b4389d2e67f2908c8b0911e3cb59d4f5430cc293a",
    },
    "pipeline": {
        "run/pool.jsonl":
            "5ef0ec55254df6bac0b2978cc30b3dac999079133e5185a3b0858c2aa5652f60",
        "run/pool.jsonl.meta.json":
            "17436d7564ce0ae7d671fea18353b86cbc82a6ab02461a6d3cc4b684d419b780",
        "run/scores.tsv":
            "8cbbf3837265aeb3337cbc47b0b305992231deae920648fb4b81ca8e97f16f4f",
        "run/scores.tsv.meta.json":
            "a8144f2222d4f9df40695a57cebf218e73bfbd919a96e6ad302c8b9132d045b7",
        "run/select-highloss-24.json":
            "b78895622c1ed072cf2a60dd173e11ff9cb50f350b68191b42dc387ec7c7d89d",
        "run/select-lowloss-24.json":
            "83be510cff2184cc5d5a34c6a89ab2f834a942b830b663f872aee219de531774",
        "run/select-random-24.json":
            "8cb56974e22f93531662ef681b8f6b17a5fc6cfdbd28ad45f6025e904c0e3fe5",
        "run/select-ume-24.json":
            "48b87c2265bc90a3ec90bdfdce0649153c96a88993b8073f686e4d602fcb8656",
        "run/select-ume-loss-24.json":
            "cb67fb1b314ec0c4ce6eb386fb1457e64a451d41aa11c05ec5201c6255215ae0",
        "run/select-umt-24.json":
            "2ef3858ac4a3be09e7ce66a463845fe80bdacde41ed077b77bd880f7d213587a",
        "run/select-umt-loss-24.json":
            "3259f98c3ed0d92499b4eb96737a179f51eca20d14a37222cf4dcc3824d343d5",
        "run/test.tsv":
            "99e675ba56bc58bffce37410334c8391570d82306efaf1eac8eb79799b635e8a",
        "run/test.tsv.meta.json":
            "1d4853eacca7a5dbd1ee10144ffb296861ebfd45b009164d118b2af9cca44d00",
    },
    "report": {
        "report.json":
            "55a8cd18c5f627dec3e1797cb5850511881f44ef073d816d5402391a40f4ea6b",
        "run/pool.jsonl":
            "a9b3b4119403d048119f20ee395aa35fc0df2276b14230d5abaff136629f2e93",
        "run/pool.jsonl.meta.json":
            "b8b175292503be80bd72b4b62dff9b0c23aa995a247e68950508c4cccfcd695d",
        "run/scores.tsv":
            "c38443bb3f0c28bc4373b0ab83957c47d53cf407f79653d3c6f5c1c4a359c5cb",
        "run/scores.tsv.meta.json":
            "10cd75996200d28c09d34b16609f200cbdb13e660638d67f97fc02ee036794af",
        "run/select-random-24.json":
            "1d45cf09aa4aa3c0e53e40bb972d7f2afa6bbe028063230c2a2e5ec8a6a57796",
    },
}


def _run(case):
    if case == "pipeline":
        assert main(["pipeline", "--config", "cfg.json", "--out-dir", "run", "--quiet"]) == 0
    elif case == "report":
        assert main(["pipeline", "--config", "report-cfg.json", "--out-dir", "run",
                     "--quiet"]) == 0
        assert main(["report", "--pool", "run/pool.jsonl", "--scores", "run/scores.tsv",
                     "--gold", "report-gold.tsv", "--selection", "run/select-random-24.json",
                     "--harmony", "harmony.tsv", "--resamples", "500", "--seed", "2",
                     "--out", "report.json", "--quiet"]) == 0
    elif case == "milab":
        assert main(["milab", "--stems", "12", "--msds", "3", "--gold", "120",
                     "--syn-sizes", "0,100,400", "--harmony", "on", "--resamples", "20",
                     "--seed", "3", "--out", "curve.json", "--quiet"]) == 0
    else:
        assert main(["augment", "--gold", "gold.tsv", "--n", "300", "--theta", "0.7",
                     "--min-run", "2", "--allow-original-char", "--seed", "11",
                     "--out", "pool.jsonl", "--tsv-out", "pool.tsv", "--quiet"]) == 0


def _digests(root):
    inputs = {"gold.tsv", "full.tsv", "cfg.json", "report-gold.tsv", "report-cfg.json",
              "harmony.tsv"}
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in inputs
    }


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_artifact_digests(case, tmp_path, monkeypatch):
    # provenance embeds the paths it was given, so run on relative ones
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gold.tsv").write_text(GOLD, encoding="utf-8")
    (tmp_path / "full.tsv").write_text(FULL, encoding="utf-8")
    (tmp_path / "cfg.json").write_text(json.dumps(PIPELINE_CONFIG), encoding="utf-8")
    (tmp_path / "report-gold.tsv").write_text(REPORT_GOLD, encoding="utf-8")
    (tmp_path / "report-cfg.json").write_text(json.dumps(REPORT_CONFIG), encoding="utf-8")
    (tmp_path / "harmony.tsv").write_text(HARMONY, encoding="utf-8")
    _run(case)
    assert _digests(tmp_path) == GOLDEN[case]
