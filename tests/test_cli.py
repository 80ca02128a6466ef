import json
from pathlib import Path

import pytest

from lexlink.cli import main


def split_mentions(data_dir: Path, train_count: int):
    lines = (data_dir / "mentions.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    (data_dir / "train.jsonl").write_text("".join(lines[:train_count]), encoding="utf-8")
    (data_dir / "eval.jsonl").write_text("".join(lines[train_count:]), encoding="utf-8")


def workflow_flags(root: Path):
    return [
        "--kb", str(root / "data" / "kb.jsonl"),
        "--aliases", str(root / "data" / "aliases.jsonl"),
        "--train-mentions", str(root / "data" / "train.jsonl"),
        "--eval-mentions", str(root / "data" / "eval.jsonl"),
        "--at-index", str(root / "artifacts" / "at_index.json"),
        "--kb-index", str(root / "artifacts" / "kb_index.json"),
        "--model", str(root / "artifacts" / "model.lxc"),
        "--store", str(root / "artifacts" / "entities.lxc"),
        "--predictions", str(root / "artifacts" / "predictions.jsonl"),
        "--report-dir", str(root / "artifacts" / "reports"),
        "--dim", "16", "--hash-buckets", "2048", "--max-len", "64",
        "--epochs", "1", "--seed", "11",
    ]


def run_workflow(root: Path, mentions=60, train=30):
    data = root / "data"
    assert main([
        "synth", "--seed", "5", "--entities", "25", "--aliases", "40",
        "--mentions", str(mentions), "--ambiguity", "0.3", "--tail", "0.3",
        "--out", str(data),
    ]) == 0
    split_mentions(data, train)
    flags = workflow_flags(root)
    for command in ("build-index", "train", "embed-entities", "predict", "evaluate", "ablate"):
        assert main([command, *flags]) == 0, command
    return root / "artifacts"


def test_full_workflow_produces_artifacts(tmp_path):
    artifacts = run_workflow(tmp_path)
    for name in (
        "at_index.json", "kb_index.json", "model.lxc", "entities.lxc", "predictions.jsonl",
    ):
        assert (artifacts / name).exists(), name
    reports = artifacts / "reports"
    for name in ("recall.txt", "recall.json", "accuracy.txt", "accuracy.json", "ablation.txt", "ablation.json"):
        assert (reports / name).exists(), name
    table = (reports / "ablation.txt").read_text(encoding="utf-8")
    assert len(table.strip().splitlines()) == 1 + 5  # header + full + 4 ablations


def test_prediction_lines_have_the_documented_schema(tmp_path):
    artifacts = run_workflow(tmp_path)
    lines = (artifacts / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 30
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"doc_id", "pred_id", "decided_by", "cand1", "cand2", "votes"}
        assert set(obj["votes"]) == {"at", "kb", "desc", "reranker"}
        assert set(obj["cand2"]) <= set(obj["cand1"])


def test_recall_json_is_monotone(tmp_path):
    artifacts = run_workflow(tmp_path)
    objects = json.loads((artifacts / "reports" / "recall.json").read_text(encoding="utf-8"))
    by_stage = {}
    for obj in objects:
        by_stage.setdefault(obj["system"], {})[obj["metric"]] = obj["value"]
    for values in by_stage.values():
        assert values["r@1"] <= values["r@5"] <= values["r@10"]


def test_two_runs_are_byte_identical(tmp_path):
    first = run_workflow(tmp_path / "one")
    second = run_workflow(tmp_path / "two")
    for relative in (
        "model.lxc", "entities.lxc", "predictions.jsonl",
        "reports/recall.json", "reports/accuracy.json", "reports/ablation.json",
        "reports/recall.txt", "reports/accuracy.txt", "reports/ablation.txt",
    ):
        assert (first / relative).read_bytes() == (second / relative).read_bytes(), relative


def test_commands_do_not_mutate_inputs(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--seed", "5", "--entities", "25", "--aliases", "40", "--mentions", "60", "--out", str(data)])
    split_mentions(data, 30)
    before = {p.name: p.read_bytes() for p in data.iterdir()}
    flags = workflow_flags(tmp_path)
    for command in ("build-index", "train", "embed-entities", "predict", "evaluate", "ablate"):
        assert main([command, *flags]) == 0
    after = {p.name: p.read_bytes() for p in data.iterdir()}
    assert before == after


def test_missing_kb_file_exits_1(tmp_path, capsys):
    code = main(["build-index", "--kb", str(tmp_path / "nope.jsonl"), "--aliases", str(tmp_path / "a.jsonl")])
    assert code == 1
    assert "nope.jsonl" in capsys.readouterr().err


def test_duplicate_entity_id_exits_2(tmp_path, capsys):
    kb = tmp_path / "kb.jsonl"
    kb.write_text(
        '{"id": "Q1", "name": "a", "desc": ""}\n{"id": "Q1", "name": "b", "desc": ""}\n',
        encoding="utf-8",
    )
    aliases = tmp_path / "aliases.jsonl"
    aliases.write_text("", encoding="utf-8")
    code = main(["build-index", "--kb", str(kb), "--aliases", str(aliases)])
    assert code == 2
    assert "Q1" in capsys.readouterr().err


def test_alias_miss_exits_2(tmp_path):
    (tmp_path / "kb.jsonl").write_text('{"id": "Q1", "name": "a", "desc": ""}\n', encoding="utf-8")
    (tmp_path / "aliases.jsonl").write_text('{"alias": "x", "entity_id": "Q9", "prior": 0.5}\n', encoding="utf-8")
    code = main([
        "build-index", "--kb", str(tmp_path / "kb.jsonl"), "--aliases", str(tmp_path / "aliases.jsonl"),
        "--at-index", str(tmp_path / "at.json"), "--kb-index", str(tmp_path / "kb.json"),
    ])
    assert code == 2


def test_train_with_unresolvable_gold_exits_2(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--seed", "5", "--entities", "10", "--aliases", "15", "--mentions", "10", "--out", str(data)])
    split_mentions(data, 5)
    bad = {
        "doc_id": "bad", "text": "some text", "start": 0, "end": 4,
        "mention": "some", "gold_id": "MISSING",
    }
    with open(data / "train.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(bad) + "\n")
    flags = workflow_flags(tmp_path)
    assert main(["build-index", *flags]) == 0
    assert main(["train", *flags]) == 2


def test_stale_store_exits_2(tmp_path, capsys):
    run_workflow(tmp_path)
    kb_path = tmp_path / "data" / "kb.jsonl"
    with open(kb_path, "a", encoding="utf-8") as fh:
        fh.write('{"id": "Qnew", "name": "brand new", "desc": "added later"}\n')
    code = main(["predict", *workflow_flags(tmp_path)])
    assert code == 2
    assert "stale" in capsys.readouterr().err.lower()


def test_index_older_than_the_kb_exits_2_naming_the_entity(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--seed", "5", "--entities", "50", "--mentions", "20", "--out", str(data)]) == 0
    split_mentions(data, 10)
    flags = workflow_flags(tmp_path)
    for command in ("build-index", "train", "embed-entities"):
        assert main([command, *flags]) == 0, command
    mention = (data / "eval.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)[0]
    gold = json.loads(mention)["gold_id"]
    kb_path = data / "kb.jsonl"
    lines = kb_path.read_text(encoding="utf-8").splitlines(keepends=True)
    kb_path.write_text("".join(line for line in lines if json.loads(line)["id"] != gold), encoding="utf-8")
    assert main(["embed-entities", *flags]) == 0
    single = tmp_path / "single.jsonl"
    single.write_text(mention, encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", *flags, "--mentions", str(single)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert repr(gold) in err and "index no longer matches" in err


def test_predict_on_empty_mentions_writes_empty_file(tmp_path):
    run_workflow(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    flags = workflow_flags(tmp_path)
    assert main(["predict", *flags, "--mentions", str(empty)]) == 0
    assert (tmp_path / "artifacts" / "predictions.jsonl").read_text(encoding="utf-8") == ""


def test_unambiguous_fixture_predictions_match_golds(tmp_path):
    data = tmp_path / "data"
    assert main([
        "synth", "--seed", "3", "--entities", "20", "--aliases", "20", "--mentions", "30",
        "--ambiguity", "0.0", "--tail", "0.0", "--out", str(data),
    ]) == 0
    split_mentions(data, 10)
    flags = workflow_flags(tmp_path)
    for command in ("build-index", "train", "embed-entities", "predict"):
        assert main([command, *flags]) == 0
    golds = [
        json.loads(line)["gold_id"]
        for line in (data / "eval.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    preds = [
        json.loads(line)["pred_id"]
        for line in (tmp_path / "artifacts" / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert preds == golds


def test_infeasible_synth_exits_2(tmp_path):
    assert main([
        "synth", "--entities", "1", "--aliases", "1", "--mentions", "1", "--ambiguity", "1.0",
        "--out", str(tmp_path / "d"),
    ]) == 2


def test_config_file_and_flag_override(tmp_path, monkeypatch):
    data = tmp_path / "data"
    main(["synth", "--seed", "5", "--entities", "20", "--aliases", "30", "--mentions", "20", "--out", str(data)])
    split_mentions(data, 10)
    config = tmp_path / "lexlink.cfg"
    config.write_text(
        "\n".join([
            "# workflow paths",
            f"kb = {data / 'kb.jsonl'}",
            f"aliases = {data / 'aliases.jsonl'}",
            f"at_index = {tmp_path / 'at.json'}",
            f"kb_index = {tmp_path / 'kb.json'}",
            "k_kb = 3",
        ]) + "\n",
        encoding="utf-8",
    )
    assert main(["build-index", "--config", str(config)]) == 0
    assert (tmp_path / "at.json").exists()

    # Env var supplies the config path; a flag overrides a file value.
    monkeypatch.setenv("LEXLINK_CONFIG", str(config))
    assert main(["build-index", "--at-index", str(tmp_path / "at2.json")]) == 0
    assert (tmp_path / "at2.json").exists()


def test_unknown_config_key_exits_2(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("definitely_not_a_key = 1\n", encoding="utf-8")
    assert main(["build-index", "--config", str(config)]) == 2


def test_unknown_ablation_toggle_exits_2(tmp_path):
    run_workflow(tmp_path)
    assert main(["ablate", *workflow_flags(tmp_path), "--toggles", "bogus"]) == 2


@pytest.fixture(scope="module")
def trained_workflow(tmp_path_factory):
    root = tmp_path_factory.mktemp("workflow")
    data = root / "data"
    assert main(["synth", "--seed", "5", "--entities", "15", "--mentions", "20", "--out", str(data)]) == 0
    split_mentions(data, 10)
    for command in ("build-index", "train", "embed-entities"):
        assert main([command, *workflow_flags(root)]) == 0, command
    return root


RETRIEVER_VALUES = [("--k-at", "0"), ("--k-desc", "0"), ("--alias-expansion", "bogus"), ("--bm25-b", "2")]
MODEL_VALUES = [("--epochs", "0"), ("--dim", "0"), ("--ngram-orders", "x")]


@pytest.mark.parametrize(
    "command,flag,value",
    [("train", flag, value) for flag, value in RETRIEVER_VALUES + MODEL_VALUES]
    + [(command, flag, value) for command in ("build-index", "ablate") for flag, value in RETRIEVER_VALUES],
)
def test_out_of_range_config_value_exits_2(trained_workflow, capsys, command, flag, value):
    capsys.readouterr()
    assert main([command, *workflow_flags(trained_workflow), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
