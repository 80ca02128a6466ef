import contextlib
import io
import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lexlink.cli import _resolve_config, build_parser, main
from lexlink.config import ENV_CONFIG_VAR, PipelineConfig


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
    assert main(["build-index", *workflow_flags(tmp_path)]) == 0
    code = main(["predict", *workflow_flags(tmp_path)])
    assert code == 2
    assert "stale" in capsys.readouterr().err.lower()


def test_a_store_embedded_by_another_model_exits_2_until_embed_entities_reruns(tmp_path, capsys):
    run_workflow(tmp_path)
    flags = workflow_flags(tmp_path)
    assert main(["train", *flags, "--seed", "12", "--epochs", "3", "--learning-rate", "0.5"]) == 0
    capsys.readouterr()
    artifacts = tmp_path / "artifacts"
    assert main(["predict", *flags]) == 2
    assert capsys.readouterr().err == (
        f"error: {artifacts / 'entities.lxc'}: stale entity store: embedded by another model than"
        f" {artifacts / 'model.lxc'}; rerun embed-entities\n"
    )
    assert main(["embed-entities", *flags]) == 0
    assert main(["predict", *flags]) == 0


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


def test_a_renamed_entity_is_a_stale_kb_index_until_build_index_reruns(tmp_path, capsys):
    run_workflow(tmp_path)
    flags = workflow_flags(tmp_path)
    kb_path = tmp_path / "data" / "kb.jsonl"
    lines = kb_path.read_text(encoding="utf-8").splitlines(keepends=True)
    entity = json.loads(lines[3])
    lines[3] = json.dumps({**entity, "name": "renamed entity"}) + "\n"
    kb_path.write_text("".join(lines), encoding="utf-8")
    assert main(["embed-entities", *flags]) == 0
    capsys.readouterr()
    assert main(["predict", *flags]) == 2
    err = capsys.readouterr().err
    kb_index = tmp_path / "artifacts" / "kb_index.json"
    assert err.startswith(f"error: {kb_index}: ") and repr(entity["id"]) in err and "rerun build-index" in err
    assert main(["build-index", *flags]) == 0
    assert main(["predict", *flags]) == 0


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


def test_the_alias_expansion_key_is_refused_as_a_flag_and_as_a_config_line(tmp_path, capsys):
    # AT expansion has one rule, every entity of a hit alias: a key that once
    # chose another exits 2 rather than being ignored.
    with pytest.raises(SystemExit) as info:
        main(["build-index", "--alias-expansion", "best"])
    assert info.value.code == 2
    config = tmp_path / "lexlink.cfg"
    config.write_text("alias_expansion = all\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["build-index", "--config", str(config)]) == 2
    assert "unknown config key 'alias_expansion'" in capsys.readouterr().err


def test_a_negative_synth_seed_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["synth", "--seed", "-1", "--entities", "5", "--aliases", "5", "--mentions", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be >= 0") and "Traceback" not in err
    assert not out.exists()


def test_the_toggles_flag_is_refused_as_an_unknown_flag(capsys):
    # The ablation is always the full row plus one row per toggle: a flag
    # that once picked a subset of rows exits 2 rather than being ignored.
    with pytest.raises(SystemExit) as info:
        main(["ablate", "--toggles", "ensemble"])
    assert info.value.code == 2
    assert "unrecognized arguments: --toggles ensemble" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_workflow(tmp_path_factory):
    root = tmp_path_factory.mktemp("workflow")
    data = root / "data"
    assert main(["synth", "--seed", "5", "--entities", "15", "--mentions", "20", "--out", str(data)]) == 0
    split_mentions(data, 10)
    for command in ("build-index", "train", "embed-entities"):
        assert main([command, *workflow_flags(root)]) == 0, command
    return root


RETRIEVER_VALUES = [("--k-at", "0"), ("--k-desc", "0"), ("--bm25-b", "2")]
MODEL_VALUES = [
    ("--epochs", "0"), ("--dim", "0"), ("--ngram-orders", "x"), ("--hash-buckets", str(10**15)), ("--seed", "-1"),
]


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


# -- config keys ---------------------------------------------------------------


VALUES = {int: ("3", 3), float: ("0.5", 0.5), str: ("some/value", "some/value")}


@pytest.mark.parametrize("name", [f.name for f in fields(PipelineConfig)])
def test_every_config_field_is_a_flag_and_a_config_file_key(tmp_path, monkeypatch, name):
    monkeypatch.delenv(ENV_CONFIG_VAR, raising=False)
    defaults = asdict(PipelineConfig())
    kind = type(defaults[name])
    text, value = VALUES[kind]
    flag = f"--{name.replace('_', '-')}"
    config = tmp_path / "lexlink.cfg"
    config.write_text(f"{name} = {text}\n", encoding="utf-8")
    for argv in (["predict", flag, text], ["predict", "--config", str(config)]):
        resolved = asdict(_resolve_config(build_parser().parse_args(argv)))
        assert type(resolved[name]) is kind
        assert resolved == {**defaults, name: value}
    if kind is not str:
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["predict", flag, "x"])
        assert info.value.code == 2


# -- malformed artifacts -------------------------------------------------------


def artifact_flags(root: Path) -> dict[str, Path]:
    flags = workflow_flags(root)
    paths = dict(zip(flags[::2], flags[1::2]))
    return {flag: Path(paths[flag]) for flag in ("--at-index", "--kb-index", "--model", "--store")}


def predict_with(root: Path, flag: str, content: bytes) -> tuple[int, str]:
    """Run ``predict`` with the artifact behind ``flag`` replaced by
    ``content``; return the exit code and stderr."""
    mutant = root / "mutant" / artifact_flags(root)[flag].name
    mutant.parent.mkdir(exist_ok=True)
    mutant.write_bytes(content)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "predict", *workflow_flags(root), flag, str(mutant),
            "--predictions", str(mutant.parent / "predictions.jsonl"),
        ])
    return code, err.getvalue()


def split_header(path: Path) -> tuple[object, bytes]:
    head, _, payload = path.read_bytes().partition(b"\n")
    return json.loads(head), payload


def with_header(header, payload: bytes) -> bytes:
    """``header`` and ``payload`` as the writer lays them out: the header line
    padded with spaces to a multiple of 64 bytes when arrays follow it."""
    line = json.dumps(header).encode("utf-8")
    if payload:
        line += b" " * (-(len(line) + 1) % 64)
    return line + b"\n" + payload


def lookup(value, keys):
    for key in keys:
        value = value[key]
    return value


def setting(keys, value):
    def edit(header):
        lookup(header, keys[:-1])[keys[-1]] = value
        return header

    return edit


def removing(keys):
    def edit(header):
        del lookup(header, keys[:-1])[keys[-1]]
        return header

    return edit


def previous_index_layout(header):
    """The ``lexlink.at-index/2`` layout: postings and document lengths beside
    the alias entries (here of empty documents)."""
    index = {"doc_lengths": [0] * len(header["meta"]["entries"]), "postings": {}}
    return {**header, "format": "lexlink.at-index/2", "meta": {"index": index, **header["meta"]}}


@pytest.mark.parametrize(
    "flag,edit",
    [
        pytest.param("--at-index", lambda header: [header], id="at-index-is-a-list"),
        pytest.param("--at-index", lambda header: {"format": header["format"]}, id="at-index-tag-only"),
        pytest.param("--at-index", setting(("meta", "entries", 0, "prior"), "high"), id="non-numeric-prior"),
        pytest.param("--at-index", setting(("meta", "entries", 0, "prior"), -5.0), id="negative-prior"),
        pytest.param("--at-index", setting(("meta", "entries", 0, "prior"), 1.5), id="prior-above-1"),
        pytest.param("--at-index", setting(("meta", "entries", 0, "prior"), True), id="boolean-prior"),
        pytest.param("--at-index", setting(("meta", "entries", 0, "prior"), "0.5"), id="numeric-string-prior"),
        pytest.param("--at-index", setting(("meta", "entries", 0, "prior"), math.nan), id="nan-prior"),
        pytest.param("--at-index", previous_index_layout, id="previous-layout-2"),
        pytest.param("--kb-index", setting(("meta", "entities", 0), ["Q1", "a", "b"]), id="kb-row-not-a-pair"),
        pytest.param("--model", removing(("arrays",)), id="model-without-arrays"),
        pytest.param("--model", lambda header: [header], id="model-header-is-a-list"),
        pytest.param("--model", setting(("meta", "encoder_config", "dim"), 0), id="dim-0"),
        pytest.param("--model", setting(("meta", "encoder_config", "ngram_orders"), [1.5, 2, 3]), id="float-ngram-order"),
        pytest.param("--model", removing(("meta", "encoder_config", "ngram_orders")), id="config-without-ngram-orders"),
        pytest.param("--model", setting(("arrays", 0, "shape"), [-2048, 16]), id="negative-shape"),
        pytest.param("--model", setting(("meta", "encoder_config", "hash_buckets"), 4096), id="more-buckets-than-rows"),
        pytest.param("--model", removing(("meta", "entity_encoder_digest")), id="model-without-entity-digest"),
        pytest.param("--model", setting(("meta", "entity_encoder_digest"), 7), id="model-entity-digest-retyped"),
        pytest.param("--store", setting(("arrays", 0, "name"), "vectors"), id="store-array-renamed"),
        pytest.param("--store", removing(("meta", "encoder_digest")), id="store-without-encoder-digest"),
        pytest.param("--store", setting(("meta", "encoder_digest"), 7), id="store-encoder-digest-retyped"),
    ],
)
def test_malformed_artifact_exits_2_naming_it(trained_workflow, flag, edit):
    header, payload = split_header(artifact_flags(trained_workflow)[flag])
    code, err = predict_with(trained_workflow, flag, with_header(edit(header), payload))
    assert code == 2
    mutant = trained_workflow / "mutant" / artifact_flags(trained_workflow)[flag].name
    assert err.startswith(f"error: {mutant}: ") and "Traceback" not in err
    assert "align" not in err


@pytest.mark.parametrize("flag", ["--model", "--store"])
def test_a_header_misaligned_by_one_byte_exits_2_naming_it(trained_workflow, flag):
    head, _, payload = artifact_flags(trained_workflow)[flag].read_bytes().partition(b"\n")
    code, err = predict_with(trained_workflow, flag, head + b" \n" + payload)
    assert code == 2
    mutant = trained_workflow / "mutant" / artifact_flags(trained_workflow)[flag].name
    assert err == f"error: {mutant}: header line of {len(head) + 2} bytes leaves the arrays unaligned to 64 bytes\n"


def previous_model_layout(header):
    """The ``lexlink.dual-encoder/1`` header: no entity digest, not padded."""
    del header["meta"]["entity_encoder_digest"]
    return {**header, "format": "lexlink.dual-encoder/1"}


@pytest.mark.parametrize(
    "flag,edit,expected,command",
    [
        ("--model", previous_model_layout, "lexlink.dual-encoder/2", "train"),
        ("--store", setting(("format",), "lexlink.entity-store/2"), "lexlink.entity-store/3", "embed-entities"),
        ("--at-index", setting(("format",), "lexlink.at-index/2"), "lexlink.at-index/3", "build-index"),
        ("--kb-index", setting(("format",), "lexlink.kb-index/2"), "lexlink.kb-index/3", "build-index"),
    ],
)
def test_an_artifact_of_the_previous_layout_exits_2_naming_the_command_to_rerun(
    trained_workflow, flag, edit, expected, command
):
    header, payload = split_header(artifact_flags(trained_workflow)[flag])
    old = edit(header)
    code, err = predict_with(trained_workflow, flag, json.dumps(old).encode("utf-8") + b"\n" + payload)
    assert code == 2
    mutant = trained_workflow / "mutant" / artifact_flags(trained_workflow)[flag].name
    assert err == f"error: {mutant}: expected format {expected!r}, got {old['format']!r}; rerun {command}\n"


def test_embed_entities_refuses_a_model_whose_entity_arrays_differ_from_its_digest(trained_workflow, capsys):
    model = artifact_flags(trained_workflow)["--model"]
    header, payload = split_header(model)
    entity_start = sum(8 * math.prod(entry["shape"]) for entry in header["arrays"][:3])
    assert header["arrays"][3]["name"] == "entity.embedding"
    flipped = bytearray(payload)
    flipped[entity_start] ^= 0x01
    mutant = trained_workflow / "mutant" / "flipped.lxc"
    mutant.parent.mkdir(exist_ok=True)
    mutant.write_bytes(with_header(header, bytes(flipped)))
    store = trained_workflow / "mutant" / "flipped-entities.lxc"
    capsys.readouterr()
    assert main(["embed-entities", *workflow_flags(trained_workflow), "--model", str(mutant), "--store", str(store)]) == 2
    assert capsys.readouterr().err == (
        f"error: {mutant}: entity encoder arrays do not match the digest in its header; rerun train\n"
    )
    assert not store.exists()


@pytest.mark.parametrize(
    "command,flag",
    [
        ("train", "--model"), ("embed-entities", "--store"), ("build-index", "--at-index"),
        ("build-index", "--kb-index"), ("predict", "--predictions"),
    ],
)
def test_a_directory_output_path_exits_1_before_any_work(trained_workflow, capsys, monkeypatch, command, flag):
    directory = trained_workflow / "mutant" / "a-directory"
    directory.mkdir(parents=True, exist_ok=True)

    def work_begun(path):
        raise AssertionError(f"{command} read {path} before refusing its output path")

    monkeypatch.setattr("lexlink.cli.load_knowledge_base", work_begun)
    capsys.readouterr()
    assert main([command, *workflow_flags(trained_workflow), flag, str(directory)]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: [Errno 21] Is a directory: '{directory}'\n"
    assert out == ""
    assert list(directory.iterdir()) == []


@pytest.mark.parametrize(
    "command,flag",
    [
        ("train", "--model"), ("embed-entities", "--store"), ("build-index", "--at-index"),
        ("build-index", "--kb-index"), ("predict", "--predictions"),
    ],
)
def test_an_empty_output_path_exits_1_before_any_work(trained_workflow, capsys, monkeypatch, command, flag):
    def work_begun(path):
        raise AssertionError(f"{command} read {path} before refusing its output path")

    monkeypatch.setattr("lexlink.cli.load_knowledge_base", work_begun)
    capsys.readouterr()
    assert main([command, *workflow_flags(trained_workflow), flag, ""]) == 1
    out, err = capsys.readouterr()
    assert err == "error: [Errno 2] No such file or directory: ''\n"
    assert out == ""


@pytest.mark.parametrize("command", ["evaluate", "ablate"])
def test_a_report_dir_that_is_a_file_exits_1_before_any_work(trained_workflow, capsys, monkeypatch, command):
    report_dir = trained_workflow / "mutant" / "a-file"
    report_dir.parent.mkdir(exist_ok=True)
    report_dir.write_text("kept\n", encoding="utf-8")
    monkeypatch.setattr("lexlink.cli.load_knowledge_base", lambda path: pytest.fail(f"{command} read {path}"))
    capsys.readouterr()
    assert main([command, *workflow_flags(trained_workflow), "--report-dir", str(report_dir)]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: [Errno 17] File exists: '{report_dir}'\n"
    assert out == ""
    assert report_dir.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("below", ["out", "deeper/out"])
@pytest.mark.parametrize(
    "command,flag",
    [
        ("train", "--model"), ("embed-entities", "--store"), ("build-index", "--at-index"),
        ("build-index", "--kb-index"), ("predict", "--predictions"), ("evaluate", "--report-dir"),
        ("ablate", "--report-dir"),
    ],
)
def test_an_output_path_under_a_file_exits_1_before_any_work(trained_workflow, capsys, monkeypatch, command, flag, below):
    a_file = trained_workflow / "mutant" / "a-file-above"
    a_file.parent.mkdir(exist_ok=True)
    a_file.write_text("kept\n", encoding="utf-8")
    path = a_file / below
    # The error the command met once its work was done: making the report
    # directory, or the output file's parent.
    with pytest.raises(OSError) as late:
        (path if flag == "--report-dir" else path.parent).mkdir(parents=True, exist_ok=True)
    monkeypatch.setattr("lexlink.cli.load_knowledge_base", lambda kb: pytest.fail(f"{command} read {kb}"))
    capsys.readouterr()
    assert main([command, *workflow_flags(trained_workflow), flag, str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {late.value}\n"
    assert out == ""
    assert a_file.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("command,report", [("evaluate", "accuracy.json"), ("ablate", "ablation.json")])
def test_a_report_path_that_is_a_directory_exits_1_before_any_report_is_written(
    trained_workflow, capsys, monkeypatch, command, report
):
    report_dir = trained_workflow / "mutant" / f"{command}-reports"
    (report_dir / report).mkdir(parents=True, exist_ok=True)
    monkeypatch.setattr("lexlink.cli.load_knowledge_base", lambda path: pytest.fail(f"{command} read {path}"))
    capsys.readouterr()
    assert main([command, *workflow_flags(trained_workflow), "--report-dir", str(report_dir)]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: [Errno 21] Is a directory: '{report_dir / report}'\n"
    assert out == ""
    assert [path.name for path in report_dir.iterdir()] == [report]


@pytest.mark.parametrize(
    "command,names",
    [("predict", ["predictions.jsonl"]), ("evaluate", ["recall.txt", "recall.json", "accuracy.txt", "accuracy.json"])],
    ids=["predict", "evaluate"],
)
def test_a_run_that_fails_after_preparing_its_outputs_keeps_the_old_files_and_the_new_directory(
    trained_workflow, capsys, command, names
):
    root = trained_workflow / "mutant" / f"{command}-prepared"
    old, new = root / "old", root / "new" / "deeper"
    old.mkdir(parents=True, exist_ok=True)
    kept = {old / name: f"old {name}\n".encode() for name in names}
    for path, content in kept.items():
        path.write_bytes(content)
    bad_mentions = root / "bad.jsonl"
    bad_mentions.write_text('{"doc_id": "d1"}\n', encoding="utf-8")
    for out in (old, new):
        output = ["--predictions", str(out / names[0])] if command == "predict" else ["--report-dir", str(out)]
        capsys.readouterr()
        assert main([command, *workflow_flags(trained_workflow), "--eval-mentions", str(bad_mentions), *output]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad_mentions}:1: malformed line")
    assert {path: path.read_bytes() for path in old.iterdir()} == kept
    assert list(new.iterdir()) == []


def ids_as_lists(header):
    meta = header["meta"]
    for entry in meta.get("entries", []):
        entry["entity_id"] = [entry["entity_id"]]
    if "entities" in meta:
        meta["entities"] = [[[entity_id], name] for entity_id, name in meta["entities"]]
    return header


@pytest.mark.parametrize("flag", ["--at-index", "--kb-index"])
def test_an_entity_id_of_another_type_is_a_stale_index(trained_workflow, flag):
    header, payload = split_header(artifact_flags(trained_workflow)[flag])
    code, err = predict_with(trained_workflow, flag, with_header(ids_as_lists(header), payload))
    assert code == 2
    paths = artifact_flags(trained_workflow)
    paths[flag] = trained_workflow / "mutant" / paths[flag].name
    assert err.startswith(f"error: {paths['--at-index']} does not match {paths['--kb-index']}: alias table references")


def test_an_alias_id_missing_from_the_kb_index_exits_2(trained_workflow):
    flags = artifact_flags(trained_workflow)
    header, payload = split_header(flags["--at-index"])
    header["meta"]["entries"][0]["entity_id"] = "Qmissing"
    code, err = predict_with(trained_workflow, "--at-index", with_header(header, payload))
    assert code == 2
    mutant = trained_workflow / "mutant" / flags["--at-index"].name
    assert err == (
        f"error: {mutant} does not match {flags['--kb-index']}: alias table references unknown entities:"
        " ['Qmissing']; rerun build-index\n"
    )


def json_type(value) -> str:
    return {bool: "boolean", int: "number", float: "number", str: "string", list: "array", dict: "object"}.get(
        type(value), "null"
    )


def locations(value, keys=()):
    """The key path of every value nested in ``value``, its own first."""
    yield keys
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from locations(child, (*keys, key))


@settings(max_examples=150, deadline=None)
@given(flag=st.sampled_from(["--at-index", "--kb-index", "--model", "--store"]), data=st.data())
def test_a_mutated_artifact_exits_0_1_or_2_without_a_traceback(trained_workflow, flag, data):
    raw = artifact_flags(trained_workflow)[flag].read_bytes()
    header, payload = split_header(artifact_flags(trained_workflow)[flag])
    mutation = data.draw(st.sampled_from(["truncate", "delete", "retype", "out-of-range"]))
    if mutation == "truncate":
        content = raw[: data.draw(st.integers(0, len(raw) - 1))]
    else:
        if mutation == "delete":
            keys = data.draw(st.sampled_from([(key,) for key in header] + [("meta", key) for key in header["meta"]]))
            removing(keys)(header)
        elif mutation == "retype":
            keys = data.draw(st.sampled_from(list(locations(header))[1:]))
            old = json_type(lookup(header, keys))
            value = data.draw(st.sampled_from([v for v in (None, True, 7, "x", [], {}) if json_type(v) != old]))
            setting(keys, value)(header)
        else:
            numbers = [k for k in locations(header) if type(lookup(header, k)) in (int, float)]
            assume(numbers)
            keys = data.draw(st.sampled_from(numbers))
            old = lookup(header, keys)
            setting(keys, data.draw(st.sampled_from([-(2**64), -1, 0, old - 1, old + 1, 2**64])))(header)
        content = with_header(header, payload)
    code, err = predict_with(trained_workflow, flag, content)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# -- malformed input files -----------------------------------------------------

# The command that reads each input file, and the base config file: every key
# that the workflow flags leave to it.
INPUT_COMMANDS = {"--kb": "build-index", "--aliases": "build-index", "--mentions": "predict", "--config": "predict"}
BASE_CONFIG = {
    "k_at": 10, "k_kb": 10, "k_desc": 10, "bm25_k1": 1.5, "bm25_b": 0.75,
    "ngram_orders": "1,2,3", "learning_rate": 0.05, "batch_size": 64, "negatives": 7, "seed": 42,
}
INVALID_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]
DEEP = b"[" * 100_000


def input_file(root: Path, flag: str) -> bytes:
    if flag == "--config":
        return "".join(f"{key} = {value}\n" for key, value in BASE_CONFIG.items()).encode("utf-8")
    name = {"--kb": "kb.jsonl", "--aliases": "aliases.jsonl", "--mentions": "eval.jsonl"}[flag]
    return (root / "data" / name).read_bytes()


def mutated_json_line(data, line: bytes, mutation: str) -> bytes:
    obj = json.loads(line)
    if mutation == "retype":
        keys = data.draw(st.sampled_from(list(locations(obj))[1:]))
        old = json_type(lookup(obj, keys))
        value = data.draw(st.sampled_from([v for v in (None, True, 7, "x", [], {}) if json_type(v) != old]))
    else:
        numbers = [k for k in locations(obj) if type(lookup(obj, k)) in (int, float)]
        assume(numbers)
        keys = data.draw(st.sampled_from(numbers))
        old = lookup(obj, keys)
        value = data.draw(st.sampled_from([-(2**64), -1, 0, old - 1, old + 1, 2**64]))
    setting(keys, value)(obj)
    return json.dumps(obj, ensure_ascii=False).encode("utf-8") + b"\n"


def mutated_config_line(data, line: bytes, mutation: str) -> bytes:
    key = line.decode("utf-8").partition(" =")[0]
    if mutation == "retype":
        value = data.draw(st.sampled_from(["x", "", "[]", "1.5", "true", "1,,2"]))
    else:
        value = data.draw(st.sampled_from(["0", "-1", "-0.5", "2", str(2**64), str(-(2**64)), "1e999", "nan"]))
    return f"{key} = {value}\n".encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(flag=st.sampled_from(list(INPUT_COMMANDS)), data=st.data())
def test_a_mutated_input_file_exits_0_1_or_2_without_a_traceback(trained_workflow, flag, data):
    raw = input_file(trained_workflow, flag)
    mutation = data.draw(st.sampled_from(["truncate", "invalid-utf8", "deep", "retype", "out-of-range"]))
    if mutation == "truncate":
        content = raw[: data.draw(st.integers(0, len(raw) - 1))]
    elif mutation == "invalid-utf8":
        at = data.draw(st.integers(0, len(raw)))
        content = raw[:at] + data.draw(st.sampled_from(INVALID_UTF8)) + raw[at:]
    else:
        lines = raw.splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        if mutation == "deep":
            lines[i] = DEEP + b"\n" if flag != "--config" else lines[i].rstrip(b"\n") + DEEP + b"\n"
        elif flag == "--config":
            lines[i] = mutated_config_line(data, lines[i], mutation)
        else:
            lines[i] = mutated_json_line(data, lines[i], mutation)
        content = b"".join(lines)
    out = trained_workflow / "mutant-input"
    out.mkdir(exist_ok=True)
    mutant = out / flag.lstrip("-")
    mutant.write_bytes(content)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([
            INPUT_COMMANDS[flag], *workflow_flags(trained_workflow), flag, str(mutant),
            "--at-index", str(out / "at_index.json"), "--kb-index", str(out / "kb_index.json"),
            "--predictions", str(out / "predictions.jsonl"),
        ])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
