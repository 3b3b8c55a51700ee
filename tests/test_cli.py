import json
import warnings

import pytest

from labelrnn import cli, models
from labelrnn.cli import _resolve_config, build_parser, main
from labelrnn.corpus import (Sentence, Vocabulary, decode_labels, encode, load_column_file,
                             write_column_file)
from labelrnn.pretrain import load_external_embeddings
from labelrnn.models import (DECODE_GROUP, decode_groups, load_model, save_model, tag_batch,
                             tag_bidirectional, tag_greedy)
from labelrnn.training import TrainConfig
import numpy as np

SMALL_TRAIN_OVERRIDES = [
    "--set", "embed_size=8", "--set", "hidden_size=12", "--set", "first_level_size=8",
    "--set", "d_w=1", "--set", "d_l=2", "--set", "epochs_fwd_bwd=2",
    "--set", "epochs_bidir=1", "--set", "lr0=0.1", "--set", "momentum=0.5",
    "--set", "lambda_l2=0.0001", "--set", "lambda_l2_bidir=0.0001",
    "--set", "dropout_embed=0.1", "--set", "dropout_hidden=0.1",
]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["generate", "--out-dir", str(out), "--size", "30", "--seed", "2"]) == 0
    return out


@pytest.fixture(scope="module")
def trained_model(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "fwd.bin"
    rc = main(["train", "--variant", "irnn", "--direction", "fwd",
               "--train", str(corpus_dir / "train.txt"),
               "--dev", str(corpus_dir / "dev.txt"),
               "--seed", "4", "--out", str(out)] + SMALL_TRAIN_OVERRIDES)
    assert rc == 0
    return out


# -- generate -----------------------------------------------------------------

def test_generate_size_zero_fails_cleanly(tmp_path, capsys):
    rc = main(["generate", "--out-dir", str(tmp_path), "--size", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_generate_negative_seed_fails_before_it_writes(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc = main(["generate", "--out-dir", str(out), "--size", "5", "--seed", "-1"])
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == ["error: seed must be >= 0, got -1"]
    assert not out.exists()


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["generate", "--out-dir", str(out), "--size", "20", "--seed", "5"]) == 0
    for name in ("train.txt", "dev.txt", "test.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("content,problem", [
    (b"\xff{}", ":1: byte 0xff is not UTF-8 text"),
    (b'{"slots": {', ": not JSON: "),
    (b"[" * 100000, ": not JSON: "),
    (b'{"slots": 5, "templates": ["hi"]}', ': a grammar is {"slots": '),
    (b'{"slots": {}}', ': a grammar is {"slots": '),
    (b'{"slots": {"x": {"pool": ["a"], "colour": "red"}}, "templates": ["{x}"]}',
     ': a grammar is {"slots": '),
    (b'{"slots": {"x": {"pool": "abc"}}, "templates": ["{x}"]}', ": slot x needs "),
    (b'{"slots": {"x": {"pool": ["a b"]}}, "templates": ["{x}"]}', ": slot x needs "),
    (b'{"slots": {"x": {"class_name": "a\\tb", "pool": ["a"]}}, "templates": ["{x}"]}',
     ": slot x needs "),
    (b'{"slots": {"x": {"phrases": ["a"], "min_len": 2}}, "templates": ["{x}"]}',
     ": slot x needs "),
    (b'{"slots": {"x": {"pool": ["a"], "max_len": 100000000000000000000}}, "templates": ["{x}"]}',
     ": slot x needs "),
    (b'{"slots": {"x": {"phrases": ["a"]}}, "templates": [3]}', ": templates must be "),
    (b'{"slots": {"x": {"phrases": ["a"]}}, "templates": ["{y}"]}', ": templates must be "),
], ids=["non-utf8", "bad-json", "deep-json", "slots-not-object", "no-templates", "unknown-key",
        "pool-not-list", "pool-not-token", "class-not-token", "bad-lengths", "huge-max-len",
        "template-not-string", "unknown-slot"])
def test_generate_rejects_bad_grammar(tmp_path, capsys, content, problem):
    grammar = tmp_path / "g.json"
    grammar.write_bytes(content)
    rc = main(["generate", "--out-dir", str(tmp_path / "out"), "--size", "3",
               "--grammar", str(grammar)])
    assert rc == 1
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and lines[0].startswith(f"error: {grammar}{problem}")


def test_generate_with_a_grammar_file(tmp_path):
    grammar = tmp_path / "g.json"
    grammar.write_text(json.dumps({
        "slots": {"city": {"class_name": "city", "phrases": ["new york", "boston"]},
                  "code": {"pool": ["alpha", "bravo"], "min_len": 2, "max_len": 3}},
        "templates": ["fly to {city} now", "code {code}"]}))
    assert main(["generate", "--out-dir", str(tmp_path / "out"), "--size", "20",
                 "--grammar", str(grammar)]) == 0
    labels = {l for s in load_column_file(tmp_path / "out" / "train.txt") for l in s.labels}
    assert labels <= {"O", "city-B", "city-I", "code-B", "code-I"}
    assert {"city-B", "code-B", "code-I"} <= labels


def test_generated_files_parse(corpus_dir):
    for name in ("train.txt", "dev.txt", "test.txt"):
        assert len(load_column_file(corpus_dir / name)) > 0


# -- pretrain -----------------------------------------------------------------

def test_pretrain_words_default_epochs(corpus_dir, tmp_path, capsys):
    out = tmp_path / "w.emb"
    rc = main(["pretrain", "--train", str(corpus_dir / "train.txt"),
               "--target", "words", "--out", str(out),
               "--embed-size", "8", "--hidden-size", "8", "--seed", "1"])
    assert rc == 0
    assert "30 epochs" in capsys.readouterr().err
    table = np.zeros((1, 8))
    assert load_external_embeddings(out, {"flight": 0}, table) == 1


def test_pretrain_labels_default_epochs(corpus_dir, tmp_path, capsys):
    out = tmp_path / "l.emb"
    rc = main(["pretrain", "--train", str(corpus_dir / "train.txt"),
               "--target", "labels", "--out", str(out),
               "--embed-size", "8", "--hidden-size", "8", "--seed", "1"])
    assert rc == 0
    assert "20 epochs" in capsys.readouterr().err
    tokens = [line.split()[0] for line in out.read_text().splitlines()]
    assert "O" in tokens  # label column, not words
    assert "flight" not in tokens


def _main_without_warnings(argv):
    """main(argv), checking that it issued no warning: outside pytest, which
    collects them, each would be one more stderr line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    assert [str(w.message) for w in caught] == []
    return rc


def test_pretrain_divergence_fails_cleanly(corpus_dir, tmp_path, capsys):
    out = tmp_path / "w.emb"
    rc = _main_without_warnings(["pretrain", "--train", str(corpus_dir / "train.txt"),
                                 "--target", "words", "--out", str(out), "--embed-size", "8",
                                 "--hidden-size", "8", "--lr0", "1e6"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: training loss is nan in epoch 0; training diverged"]
    assert not out.exists()


def test_pretrain_zero_epochs_fails_cleanly(corpus_dir, tmp_path, capsys):
    rc = main(["pretrain", "--train", str(corpus_dir / "train.txt"), "--target", "words",
               "--out", str(tmp_path / "w.emb"), "--epochs", "0"])
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [
        "error: NNLM training needs at least one epoch, got 0"]


def test_pretrain_negative_seed_fails_before_it_writes(corpus_dir, tmp_path, capsys):
    rc = main(["pretrain", "--train", str(corpus_dir / "train.txt"), "--target", "words",
               "--out", str(tmp_path / "w.emb"), "--seed", "-1"])
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == ["error: seed must be >= 0, got -1"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags,problem", [
    (["--lr0", "0"], "lr0 must be positive and finite, got 0.0"),
    (["--lr0", "nan"], "lr0 must be positive and finite, got nan"),
    (["--lr0", "inf"], "lr0 must be positive and finite, got inf"),
    (["--embed-size", "0"], "embed_size must be >= 1, got 0"),
    (["--hidden-size", "-1"], "hidden_size must be >= 1, got -1"),
    (["--context", "0"], "NNLM context length must be >= 1, got 0"),
    (["--target", "labels", "--epochs", "0"], "NNLM training needs at least one epoch, got 0"),
])
def test_pretrain_rejects_a_bad_flag_before_it_writes(corpus_dir, tmp_path, capsys, flags,
                                                      problem):
    rc = main(["pretrain", "--train", str(corpus_dir / "train.txt"), "--target", "words",
               "--out", str(tmp_path / "w.emb")] + flags)
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [f"error: {problem}"]
    assert list(tmp_path.iterdir()) == []


def test_pretrain_checks_its_flags_before_it_reads_the_corpus(tmp_path, capsys):
    rc = main(["pretrain", "--train", str(tmp_path / "nope.txt"), "--target", "words",
               "--out", str(tmp_path / "w.emb"), "--lr0", "0"])
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [
        "error: lr0 must be positive and finite, got 0.0"]


def test_pretrain_missing_file_fails(tmp_path, capsys):
    rc = main(["pretrain", "--train", str(tmp_path / "nope.txt"),
               "--target", "words", "--out", str(tmp_path / "o.emb")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# -- train ---------------------------------------------------------------------

def test_train_writes_artifacts(trained_model):
    for suffix in ("", ".vocab", ".log", ".summary", ".manifest.json"):
        assert (trained_model.parent / (trained_model.name + suffix)).exists()
    log_lines = (trained_model.parent / (trained_model.name + ".log")).read_text().splitlines()
    assert log_lines[0] == "epoch\tlr\ttrain_loss\tdev_acc\tdev_f1"
    assert len(log_lines) == 1 + 2  # header + one line per epoch


def test_summary_best_epoch_follows_the_dev_metric(corpus_dir, tmp_path):
    # With this seed the dev F1 peaks first at epoch 3 and again at epoch 5,
    # where dev accuracy peaks: the first epoch with the highest F1 is kept.
    out = tmp_path / "m.bin"
    rc = main(["train", "--variant", "irnn", "--train", str(corpus_dir / "train.txt"),
               "--dev", str(corpus_dir / "dev.txt"), "--seed", "7", "--out", str(out)]
              + SMALL_TRAIN_OVERRIDES + ["--set", "epochs_fwd_bwd=6", "--set", "lr0=0.5",
                                         "--set", "dev_metric=f1"])
    assert rc == 0
    rows = [line.split("\t") for line in (tmp_path / "m.bin.log").read_text().splitlines()[1:]]
    f1 = [float(row[4]) for row in rows]
    summary = dict(line.split("=") for line in (tmp_path / "m.bin.summary").read_text().split())
    assert int(summary["best_epoch"]) == f1.index(max(f1))


def test_manifest_contents_and_digest_stability(corpus_dir, tmp_path):
    outs = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        rc = main(["train", "--variant", "irnn", "--train", str(corpus_dir / "train.txt"),
                   "--seed", "7", "--out", str(out)] + SMALL_TRAIN_OVERRIDES
                  + ["--set", "epochs_fwd_bwd=1"])
        assert rc == 0
        outs.append(json.loads((tmp_path / (name + ".manifest.json")).read_text()))
    assert outs[0]["run_digest"] == outs[1]["run_digest"]
    assert outs[0]["seed"] == 7
    assert "train" in outs[0]["inputs"]


def test_train_set_overrides_and_config_file(corpus_dir, tmp_path):
    config_path = tmp_path / "cfg.txt"
    config_path.write_text("embed_size=8\nhidden_size=12\nfirst_level_size=8\n"
                           "d_w=1\nd_l=2\nepochs_fwd_bwd=1\nlr0=0.1\nmomentum=0.5\n"
                           "dropout_embed=0.1\ndropout_hidden=0.1\n")
    out = tmp_path / "m.bin"
    rc = main(["train", "--variant", "irnn", "--train", str(corpus_dir / "train.txt"),
               "--config", str(config_path), "--set", "epochs_fwd_bwd=2",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "m.bin.manifest.json").read_text())
    assert manifest["config"]["epochs_fwd_bwd"] == "2"  # flag overrides file
    assert manifest["config"]["embed_size"] == "8"


def test_train_bad_set_syntax(corpus_dir, tmp_path, capsys):
    rc = main(["train", "--train", str(corpus_dir / "train.txt"),
               "--set", "oops", "--out", str(tmp_path / "m.bin")])
    assert rc == 1
    assert "key=value" in capsys.readouterr().err


@pytest.mark.parametrize("setting,problem", [
    ("chunk_mode=bogus", "unknown chunk mode 'bogus'"),
    ("use_chars=ture", "--set use_chars=ture: bad value for use_chars: 'ture'"),
    ("seed=-5", "seed must be >= 0, got -5"),
    ("hidden_size=-1", "hidden_size must be >= 1, got -1"),
    ("embed_size=0", "embed_size must be >= 1, got 0"),
    ("lambda_l2=nan", "lambda_l2 must be finite and >= 0, got nan"),
    ("lambda_l2=inf", "lambda_l2 must be finite and >= 0, got inf"),
    ("lambda_l2=-0.1", "lambda_l2 must be finite and >= 0, got -0.1"),
    ("lambda_l2_bidir=nan", "lambda_l2_bidir must be finite and >= 0, got nan"),
    ("max_grad_norm=nan", "max_grad_norm must be finite and >= 0, got nan"),
    ("max_grad_norm=-1", "max_grad_norm must be finite and >= 0, got -1.0"),
])
def test_train_rejects_a_bad_setting_before_it_writes(corpus_dir, tmp_path, capsys, setting,
                                                      problem):
    rc = main(["train", "--variant", "irnn", "--train", str(corpus_dir / "train.txt"),
               "--dev", str(corpus_dir / "dev.txt"), "--out", str(tmp_path / "m.bin")]
              + SMALL_TRAIN_OVERRIDES + ["--set", setting])
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [f"error: {problem}"]
    assert list(tmp_path.iterdir()) == []  # no manifest, model or log


@pytest.mark.parametrize("flags,problem", [
    (["--direction", "bidir", "--fwd-model", "F", "--bwd-model", "B", "--word-emb", "E"],
     "--direction bidir does not read --word-emb"),
    (["--direction", "bidir", "--fwd-model", "F", "--bwd-model", "B", "--label-emb", "E"],
     "--direction bidir does not read --label-emb"),
    (["--direction", "fwd", "--fwd-model", "F", "--bwd-model", "B"],
     "--direction fwd does not read --fwd-model or --bwd-model"),
    (["--direction", "bwd", "--bwd-model", "B"], "--direction bwd does not read --bwd-model"),
    (["--direction", "bidir", "--fwd-model", "B", "--bwd-model", "F"],
     "--fwd-model {B} holds a bwd model, not a fwd one"),
])
def test_train_rejects_an_input_file_it_cannot_use_before_it_writes(
        trained_model, trained_bwd_model, corpus_dir, tmp_path, capsys, flags, problem):
    # A real pair, so that only the flags named can fail; the embeddings are missing.
    paths = {"F": trained_model, "B": trained_bwd_model, "E": corpus_dir / "missing.emb"}
    rc = main(["train", "--train", str(corpus_dir / "train.txt"),
               "--dev", str(corpus_dir / "dev.txt"), "--out", str(tmp_path / "m.bin"),
               *(str(paths.get(flag, flag)) for flag in flags)] + SMALL_TRAIN_OVERRIDES)
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [f"error: {problem.format(**paths)}"]
    assert list(tmp_path.iterdir()) == []  # no manifest, model or log


@pytest.mark.parametrize("direction", ["fwd", "bidir"])
def test_train_rejects_an_empty_dev_set_before_it_writes(trained_model, trained_bwd_model,
                                                         corpus_dir, tmp_path, capsys, direction):
    dev = tmp_path / "in" / "empty.txt"
    dev.parent.mkdir()
    dev.write_text("")
    out = tmp_path / "out"
    out.mkdir()
    pair = (["--fwd-model", str(trained_model), "--bwd-model", str(trained_bwd_model)]
            if direction == "bidir" else [])
    rc = main(["train", "--direction", direction, "--train", str(corpus_dir / "train.txt"),
               "--dev", str(dev), "--out", str(out / "m.bin"), *pair] + SMALL_TRAIN_OVERRIDES)
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == ["error: dev set is empty"]
    assert list(out.iterdir()) == []  # no manifest, model or log


def test_train_non_finite_loss_fails_cleanly(corpus_dir, tmp_path, capsys):
    train_file = corpus_dir / "train.txt"
    word = load_column_file(train_file)[0].words[0].lower()
    emb = tmp_path / "huge.emb"  # finite, so it loads, but overflows in the first epoch
    emb.write_text(word + " 1e308" * 8 + "\n")
    rc = _main_without_warnings(["train", "--variant", "irnn", "--train", str(train_file),
                                 "--word-emb", str(emb), "--seed", "1",
                                 "--out", str(tmp_path / "m.bin")] + SMALL_TRAIN_OVERRIDES)
    err = capsys.readouterr().err
    assert rc == 1
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: training loss is nan in epoch 0; training diverged"]
    assert "Traceback" not in err


@pytest.mark.parametrize("epochs", [1, 3])
def test_train_whose_dev_distributions_diverge_fails_cleanly(tmp_path, capsys, epochs):
    train_file = tmp_path / "t.txt"
    train_file.write_text("a\tX-B\nb\tO\nc\tX-B\n\n")
    out = tmp_path / "m.bin"
    rc = _main_without_warnings(["train", "--variant", "irnn", "--direction", "fwd",
                                 "--train", str(train_file), "--out", str(out),
                                 "--set", "lr0=1e300", "--set", f"epochs_fwd_bwd={epochs}"])
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [
        "error: a dev distribution is not finite after epoch 0; training diverged"]
    assert not out.exists()


def _error_lines(err):
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("value,problem", [("nan", "not finite"), ("-inf", "not finite"),
                                           ("abc", "not a number")])
def test_train_rejects_bad_embedding_values(corpus_dir, tmp_path, capsys, value, problem):
    train_file = corpus_dir / "train.txt"
    word = load_column_file(train_file)[0].words[0].lower()
    emb = tmp_path / "bad.emb"
    emb.write_text("unseen" + " 0.5" * 8 + "\n" + word + " 0.5" * 7 + f" {value}\n")
    rc = main(["train", "--variant", "irnn", "--train", str(train_file),
               "--word-emb", str(emb), "--out", str(tmp_path / "m.bin")] + SMALL_TRAIN_OVERRIDES)
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [
        f"error: {emb}:2: embedding value is {problem}"]


def test_config_file_layers_over_the_preset(tmp_path):
    config_path = tmp_path / "f.cfg"
    config_path.write_text("embed_size=8\n")
    args = build_parser().parse_args(["train", "--train", "t", "--out", "o",
                                      "--preset", "media-like", "--config", str(config_path),
                                      "--set", "hidden_size=9", "--seed", "4"])
    config, _ = _resolve_config(args)
    assert (config.d_w, config.conv_size, config.dropout_embed) == (3, 80, 0.15)
    assert (config.embed_size, config.hidden_size, config.seed) == (8, 9, 4)


def test_config_comes_only_from_flags(corpus_dir, tmp_path, monkeypatch):
    # LABELRNN_CONFIG was once read as a second --config; it must change nothing.
    env_config = tmp_path / "env.cfg"
    env_config.write_text("min_count=2\nlr0=0.3\n")
    monkeypatch.setenv("LABELRNN_CONFIG", str(env_config))
    out = tmp_path / "m.bin"
    rc = main(["train", "--variant", "irnn", "--train", str(corpus_dir / "train.txt"),
               "--seed", "7", "--out", str(out)] + SMALL_TRAIN_OVERRIDES
              + ["--set", "epochs_fwd_bwd=1"])
    assert rc == 0
    config = json.loads((tmp_path / "m.bin.manifest.json").read_text())["config"]
    assert (config["min_count"], config["lr0"]) == ("1", "0.1")


def test_pretrain_defaults_come_from_train_config():
    args = build_parser().parse_args(["pretrain", "--train", "t", "--target", "words",
                                      "--out", "o"])
    config = TrainConfig()
    assert (args.context, args.embed_size, args.hidden_size, args.lr0) == (
        config.nnlm_context, config.embed_size, config.hidden_size, config.lr0)


def test_bidir_requires_component_models(corpus_dir, tmp_path, capsys):
    rc = main(["train", "--direction", "bidir",
               "--train", str(corpus_dir / "train.txt"),
               "--out", str(tmp_path / "bi.bin")])
    assert rc == 1
    assert "fwd-model" in capsys.readouterr().err


def test_bidir_pipeline(corpus_dir, tmp_path):
    fwd = tmp_path / "fwd.bin"
    bwd = tmp_path / "bwd.bin"
    for direction, out in (("fwd", fwd), ("bwd", bwd)):
        rc = main(["train", "--variant", "irnn", "--direction", direction,
                   "--train", str(corpus_dir / "train.txt"),
                   "--seed", "4", "--out", str(out)] + SMALL_TRAIN_OVERRIDES)
        assert rc == 0
    bi = tmp_path / "bi"
    rc = main(["train", "--direction", "bidir",
               "--train", str(corpus_dir / "train.txt"),
               "--fwd-model", str(fwd), "--bwd-model", str(bwd),
               "--seed", "4", "--out", str(bi)] + SMALL_TRAIN_OVERRIDES)
    assert rc == 0
    assert (tmp_path / "bi.fwd").exists() and (tmp_path / "bi.bwd").exists()
    tagged = tmp_path / "tagged.txt"
    rc = main(["tag", "--fwd-model", str(tmp_path / "bi.fwd"),
               "--bwd-model", str(tmp_path / "bi.bwd"),
               "--vocab", str(tmp_path / "bi.vocab"),
               "--input", str(corpus_dir / "test.txt"), "--output", str(tagged)])
    assert rc == 0


def _pair_flags(fwd, bwd):
    return ["--direction", "bidir", "--fwd-model", str(fwd), "--bwd-model", str(bwd)]


@pytest.mark.parametrize("flags,problem", [
    (["--variant", "irnn-gru"], "--variant irnn-gru disagrees with the fwd model of the pair, "
                                "which is irnn"),
    (["--variant", "irnn"], "--variant irnn disagrees with the bwd model of the pair, "
                            "which is irnn-gru"),
    (["--use-classes"], "use_classes=True disagrees with the fwd model of the pair, "
                        "which has use_classes=False"),
    (["--use-chars"], "use_chars=True disagrees with the fwd model of the pair, "
                      "which has use_chars=False"),
    (["--set", "d_w=2"], "d_w=2 disagrees with the fwd model of the pair, which has d_w=1"),
    (["--set", "hidden_size=13"], "hidden_size=13 disagrees with the fwd model of the pair, "
                                  "which has hidden_size=12"),
    (["--config", "{cfg}"], "d_c=2 disagrees with the fwd model of the pair, which has d_c=0"),
])
def test_bidir_rejects_a_structure_the_pair_does_not_have_before_it_writes(
        trained_model, trained_bwd_model, corpus_dir, tmp_path, capsys, flags, problem):
    cfg = tmp_path / "in" / "structure.cfg"
    cfg.parent.mkdir()
    cfg.write_text("d_c=2\n")
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["train", "--train", str(corpus_dir / "train.txt"), "--out", str(out / "bi"),
               *_pair_flags(trained_model, trained_bwd_model)] + SMALL_TRAIN_OVERRIDES
              + [flag.format(cfg=cfg) for flag in flags])
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [f"error: {problem}"]
    assert list(out.iterdir()) == []  # no manifest, model or log


def test_bidir_manifest_records_the_pair_structure(trained_model, trained_bwd_model,
                                                   corpus_dir, tmp_path):
    """The media-like preset and the defaults hold other sizes than the pair;
    the manifest records the pair's."""
    rc = main(["train", "--train", str(corpus_dir / "train.txt"), "--out", str(tmp_path / "bi"),
               "--preset", "media-like", "--set", "epochs_bidir=1", "--set", "use_chars=0",
               *_pair_flags(trained_model, trained_bwd_model)])
    assert rc == 0
    config = json.loads((tmp_path / "bi.manifest.json").read_text())["config"]
    assert {key: config[key] for key in ("embed_size", "hidden_size", "first_level_size", "d_w",
                                         "d_l", "conv_size", "use_chars", "epochs_bidir")} == {
        "embed_size": "8", "hidden_size": "12", "first_level_size": "8", "d_w": "1", "d_l": "2",
        "conv_size": "50", "use_chars": "False", "epochs_bidir": "1"}


def test_bidir_accepts_settings_it_never_reads_and_leaves_them_out_of_its_manifest(
        trained_model, trained_bwd_model, corpus_dir, tmp_path):
    """min_count and lowercase shape a vocabulary that fine-tuning loads
    instead, and predicted_label_prob applies to tagger training only: one
    --set list can serve fwd, bwd and bidir alike."""
    unread = ["--set", "min_count=5", "--set", "lowercase=0",
              "--set", "predicted_label_prob=0.5"]
    for name, extra in (("plain", []), ("unread", unread)):
        rc = main(["train", "--train", str(corpus_dir / "train.txt"),
                   "--out", str(tmp_path / name), "--seed", "4",
                   *_pair_flags(trained_model, trained_bwd_model)] + SMALL_TRAIN_OVERRIDES + extra)
        assert rc == 0
    config = json.loads((tmp_path / "unread.manifest.json").read_text())["config"]
    assert not {"min_count", "lowercase", "predicted_label_prob"} & config.keys()
    assert "epochs_bidir" in config
    for suffix in (".fwd", ".bwd", ".log"):
        assert ((tmp_path / f"unread{suffix}").read_bytes()
                == (tmp_path / f"plain{suffix}").read_bytes()), suffix


def test_pair_structure_names_both_values_where_the_models_differ(small_model_factory):
    args = build_parser().parse_args(["train", "--train", "t", "--out", "o"])
    pair = (small_model_factory("irnn", use_classes=True, d_w=1),
            small_model_factory("irnn-gru", "bwd", d_w=1))
    structure = cli._pair_structure(args, {"d_w": 1}, pair)
    assert (structure["use_classes"], structure["d_w"]) == ("True/False", "1")


# -- tag / eval -------------------------------------------------------------------

def test_tag_preserves_word_and_class_columns(trained_model, corpus_dir, tmp_path):
    tagged = tmp_path / "tagged.txt"
    rc = main(["tag", "--model", str(trained_model),
               "--input", str(corpus_dir / "test.txt"), "--output", str(tagged)])
    assert rc == 0
    original = load_column_file(corpus_dir / "test.txt")
    output = load_column_file(tagged)
    assert len(output) == len(original)
    for a, b in zip(original, output):
        assert a.words == b.words
        assert a.classes == b.classes


def test_tag_labels_a_words_only_file_as_the_file_with_labels(trained_model, corpus_dir,
                                                              tmp_path):
    sentences = load_column_file(corpus_dir / "test.txt")
    words_only = tmp_path / "words.txt"
    words_only.write_text("".join("".join(w + "\n" for w in s.words) + "\n" for s in sentences))
    for source, tagged in ((corpus_dir / "test.txt", tmp_path / "full.tagged"),
                           (words_only, tmp_path / "words.tagged")):
        assert main(["tag", "--model", str(trained_model), "--input", str(source),
                     "--output", str(tagged)]) == 0
    full, words = (load_column_file(tmp_path / f"{name}.tagged") for name in ("full", "words"))
    assert [s.words for s in words] == [s.words for s in sentences]
    assert all(s.classes is None for s in words)
    assert [s.labels for s in words] == [s.labels for s in full]


@pytest.mark.parametrize("pair", [["--fwd-model", "F", "--bwd-model", "B"], ["--fwd-model", "F"],
                                  ["--bwd-model", "B"]])
def test_tag_rejects_model_with_a_pair_flag_before_it_writes(trained_model, corpus_dir, tmp_path,
                                                             capsys, pair):
    output = tmp_path / "t.txt"
    pair = [str(tmp_path / "missing" / flag) if flag in "FB" else flag for flag in pair]
    rc = main(["tag", "--model", str(trained_model), *pair,
               "--input", str(corpus_dir / "test.txt"), "--output", str(output)])
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [
        "error: tag takes --model, or --fwd-model plus --bwd-model, not both"]
    assert not output.exists()


def test_tag_with_a_swapped_pair_keeps_the_existing_output(trained_model, trained_bwd_model,
                                                           corpus_dir, tmp_path, capsys):
    output = tmp_path / "t.txt"
    output.write_bytes(b"earlier output\n")
    rc = main(["tag", "--fwd-model", str(trained_bwd_model), "--bwd-model", str(trained_model),
               "--vocab", str(trained_model) + ".vocab",
               "--input", str(corpus_dir / "test.txt"), "--output", str(output)])
    assert rc == 1
    assert output.read_bytes() == b"earlier output\n"
    assert _error_lines(capsys.readouterr().err) == [
        f"error: --fwd-model {trained_bwd_model} holds a bwd model, not a fwd one"]


def test_tag_vocab_hash_mismatch(trained_model, corpus_dir, tmp_path, capsys):
    other = tmp_path / "other"
    rc = main(["generate", "--out-dir", str(other), "--size", "10", "--seed", "99"])
    assert rc == 0
    rc = main(["train", "--variant", "irnn", "--train", str(other / "train.txt"),
               "--seed", "1", "--out", str(tmp_path / "o.bin")]
              + SMALL_TRAIN_OVERRIDES + ["--set", "epochs_fwd_bwd=1",
                                         "--set", "min_count=2"])
    assert rc == 0
    rc = main(["tag", "--model", str(trained_model),
               "--vocab", str(tmp_path / "o.bin.vocab"),
               "--input", str(corpus_dir / "test.txt"),
               "--output", str(tmp_path / "t.txt")])
    assert rc == 1
    assert "hash" in capsys.readouterr().err


def test_tag_labels_equal_library_tag_greedy(trained_model, corpus_dir, tmp_path):
    tagged = tmp_path / "tagged.txt"
    rc = main(["tag", "--model", str(trained_model),
               "--input", str(corpus_dir / "test.txt"), "--output", str(tagged)])
    assert rc == 0
    model = load_model(trained_model)
    vocab = Vocabulary.load(str(trained_model) + ".vocab")
    for sent, out in zip(load_column_file(corpus_dir / "test.txt"), load_column_file(tagged)):
        seq = encode(sent, vocab, with_labels=False)
        assert decode_labels(tag_greedy(model, seq).labels, vocab) == out.labels


@pytest.fixture(scope="module")
def trained_bwd_model(corpus_dir, trained_model):
    out = trained_model.parent / "bwd.bin"
    rc = main(["train", "--variant", "irnn-gru", "--direction", "bwd",
               "--train", str(corpus_dir / "train.txt"), "--dev", str(corpus_dir / "dev.txt"),
               "--seed", "5", "--out", str(out)] + SMALL_TRAIN_OVERRIDES)
    assert rc == 0
    return out


@pytest.mark.parametrize("bidir", [False, True])
def test_tag_over_several_groups_writes_input_order(trained_model, trained_bwd_model,
                                                    corpus_dir, tmp_path, bidir):
    sentences = load_column_file(corpus_dir / "train.txt")
    sentences = sentences + sentences[::-1] + sentences[:9]
    lengths = [len(s) for s in sentences]
    assert len(sentences) > DECODE_GROUP and lengths != sorted(lengths, reverse=True)
    source, tagged = tmp_path / "in.txt", tmp_path / "tagged.txt"
    write_column_file(sentences, source)
    models = (["--fwd-model", str(trained_model), "--bwd-model", str(trained_bwd_model)]
              if bidir else ["--model", str(trained_model)])
    rc = main(["tag", *models, "--vocab", f"{trained_model}.vocab",
               "--input", str(source), "--output", str(tagged)])
    assert rc == 0
    fwd, bwd = load_model(trained_model), load_model(trained_bwd_model)
    vocab = Vocabulary.load(f"{trained_model}.vocab")
    written = load_column_file(tagged)
    assert [(s.words, s.classes) for s in written] == [(s.words, s.classes) for s in sentences]
    for sent, out in zip(sentences, written):
        seq = encode(sent, vocab, with_labels=False)
        expected = tag_bidirectional(fwd, bwd, seq) if bidir else tag_greedy(fwd, seq)
        assert decode_labels(expected.labels, vocab) == out.labels


def test_tag_decodes_in_the_groups_of_decode_groups(trained_model, corpus_dir, tmp_path,
                                                    monkeypatch):
    monkeypatch.setattr(models, "DECODE_GROUP", 4)
    calls = []

    def recording(models, seqs):
        calls.append([len(seq) for seq in seqs])
        return tag_batch(models, seqs)

    monkeypatch.setattr(cli, "tag_batch", recording)
    rc = main(["tag", "--model", str(trained_model), "--input", str(corpus_dir / "train.txt"),
               "--output", str(tmp_path / "tagged.txt")])
    assert rc == 0
    sentences = load_column_file(corpus_dir / "train.txt")
    assert calls == [[len(sentences[i]) for i in group] for group in decode_groups(sentences)]
    assert len(calls) > 1 and max(map(len, calls)) == 4


def test_tag_rejects_truncated_vocab(trained_model, corpus_dir, tmp_path, capsys):
    vocab = tmp_path / "cut.vocab"
    text = (trained_model.parent / (trained_model.name + ".vocab")).read_text()
    vocab.write_text(text[: len(text) // 2])
    rc = main(["tag", "--model", str(trained_model), "--vocab", str(vocab),
               "--input", str(corpus_dir / "test.txt"), "--output", str(tmp_path / "t.txt")])
    assert rc == 1
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and str(vocab) in lines[0]


def test_tag_rejects_non_utf8_input(trained_model, tmp_path, capsys):
    column_file = tmp_path / "latin1.txt"
    column_file.write_bytes("show\tO\nz\u00fcrich\tO\n".encode("latin-1"))
    rc = main(["tag", "--model", str(trained_model),
               "--input", str(column_file), "--output", str(tmp_path / "t.txt")])
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [
        f"error: {column_file}:2: byte 0xfc is not UTF-8 text"]


@pytest.mark.parametrize("edit,problem", [
    (lambda p: p.pop("b_h"), "tensor b_h is missing, the header implies (12,)"),
    (lambda p: p.update(extra=np.zeros(3)), "tensor extra is (3,), the header implies no such tensor"),
    (lambda p: p.update(H=p["H"][:, :-1]), "tensor H is (12, 39), the header implies (12, 40)"),
], ids=["dropped", "extra", "wrong-shape"])
def test_tag_rejects_model_with_wrong_tensors(trained_model, corpus_dir, tmp_path, capsys,
                                              edit, problem):
    model = load_model(trained_model)
    edit(model.params)
    bad = tmp_path / "bad.bin"
    save_model(model, bad)
    rc = main(["tag", "--model", str(bad), "--vocab", str(trained_model) + ".vocab",
               "--input", str(corpus_dir / "test.txt"), "--output", str(tmp_path / "t.txt")])
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [f"error: {bad}: {problem}"]


class _Unchecked(TrainConfig):
    """A config that build_model takes as it is, as it did before it validated."""

    def validate(self):
        pass


@pytest.mark.parametrize("variant", ["irnn", "irnn-gru"])
def test_tag_rejects_a_model_that_training_never_writes(trained_model, corpus_dir, tmp_path,
                                                        capsys, variant):
    vocab = Vocabulary.load(str(trained_model) + ".vocab")
    config = _Unchecked(d_l=0, embed_size=4, hidden_size=5)
    bad, output = tmp_path / "no-context.bin", tmp_path / "t.txt"
    save_model(models.build_model(variant, "fwd", vocab, np.random.default_rng(0), config), bad)
    rc = main(["tag", "--model", str(bad), "--vocab", str(trained_model) + ".vocab",
               "--input", str(corpus_dir / "test.txt"), "--output", str(output)])
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [
        f"error: {bad}: a structure that training never writes: window sizes must satisfy "
        "d_w >= 0, d_c >= 0, d_l >= 1"]
    assert not output.exists()


@pytest.mark.parametrize("command", ["tag", "bidir"])
def test_model_with_a_non_finite_weight_rejected(trained_model, corpus_dir, tmp_path, capsys,
                                                 command):
    model, bad = load_model(trained_model), tmp_path / "nan.bin"
    model.params["H"][0, 0] = np.nan
    save_model(model, bad)
    if command == "tag":
        argv = ["tag", "--model", str(bad), "--vocab", str(trained_model) + ".vocab",
                "--input", str(corpus_dir / "test.txt"), "--output", str(tmp_path / "t.txt")]
    else:
        argv = ["train", "--direction", "bidir", "--train", str(corpus_dir / "train.txt"),
                "--fwd-model", str(bad), "--bwd-model", str(trained_model),
                "--out", str(tmp_path / "bi")]
    rc = main(argv)
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [
        f"error: {bad}: tensor H holds a non-finite value"]


def _without_classes(path, out):
    write_column_file([Sentence(words=s.words, labels=s.labels) for s in load_column_file(path)],
                      out)
    return out


def test_train_with_classes_rejects_a_file_without_the_class_column(corpus_dir, tmp_path,
                                                                    capsys):
    two_columns = _without_classes(corpus_dir / "dev.txt", tmp_path / "dev2.txt")
    for train, dev in ((two_columns, corpus_dir / "dev.txt"), (corpus_dir / "train.txt", two_columns)):
        rc = main(["train", "--variant", "irnn", "--train", str(train), "--dev", str(dev),
                   "--set", "use_classes=true", "--out", str(tmp_path / "m.bin")]
                  + SMALL_TRAIN_OVERRIDES)
        assert rc == 1
        assert _error_lines(capsys.readouterr().err) == [
            f"error: {two_columns}: the model reads word classes, but a sentence has no "
            "class column (expected word, class, label)"]


def test_tag_with_a_classes_model_rejects_input_without_the_class_column(corpus_dir, tmp_path,
                                                                         capsys):
    model = tmp_path / "classes.bin"
    rc = main(["train", "--variant", "irnn", "--train", str(corpus_dir / "train.txt"),
               "--use-classes", "--seed", "4", "--out", str(model)]
              + SMALL_TRAIN_OVERRIDES + ["--set", "epochs_fwd_bwd=1"])
    assert rc == 0
    two_columns = _without_classes(corpus_dir / "test.txt", tmp_path / "test2.txt")
    rc = main(["tag", "--model", str(model), "--input", str(two_columns),
               "--output", str(tmp_path / "t.txt")])
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [
        f"error: {two_columns}: the model reads word classes, but a sentence has no "
        "class column (expected word, class, label)"]


def test_tag_output_in_a_missing_directory_fails_before_decoding(trained_model, corpus_dir,
                                                                  tmp_path, capsys, monkeypatch):
    def decoder(*args):
        raise AssertionError("decoded before the output was opened")

    monkeypatch.setattr("labelrnn.cli.tag_batch", decoder)
    output = tmp_path / "missing" / "t.txt"
    rc = main(["tag", "--model", str(trained_model), "--input", str(corpus_dir / "test.txt"),
               "--output", str(output)])
    assert rc == 1
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and str(output) in lines[0]


@pytest.mark.parametrize("flag", ["eval --gold", "tag --input", "tag --model", "tag --output"])
def test_a_directory_path_fails_cleanly(trained_model, corpus_dir, tmp_path, capsys, flag):
    command, option = flag.split()
    paths = {"eval": {"--gold": corpus_dir / "test.txt", "--pred": corpus_dir / "test.txt"},
             "tag": {"--model": trained_model, "--vocab": str(trained_model) + ".vocab",
                     "--input": corpus_dir / "test.txt", "--output": tmp_path / "t.txt"}}[command]
    paths[option] = tmp_path
    rc = main([command] + [str(x) for item in paths.items() for x in item])
    assert rc == 1
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and "Is a directory" in lines[0] and str(tmp_path) in lines[0]


def test_eval_gold_as_prediction(corpus_dir, tmp_path, capsys):
    out = tmp_path / "report.kv"
    rc = main(["eval", "--gold", str(corpus_dir / "test.txt"),
               "--pred", str(corpus_dir / "test.txt"), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "F1:        100.00%" in printed
    kv = dict(line.split("=") for line in out.read_text().strip().splitlines())
    assert float(kv["f1"]) == 100.0
    assert float(kv["cer"]) == 0.0


def _over_a_longer_file(path):
    """path, holding more bytes than any output written over it here."""
    path.write_text("a longer file than the output\tO\n" * 2000)
    return path


def test_eval_out_over_a_longer_file_writes_the_report_alone(corpus_dir, tmp_path):
    gold = corpus_dir / "test.txt"
    args = ["eval", "--gold", str(gold), "--pred", str(gold), "--out"]
    assert main(args + [str(tmp_path / "fresh.kv")]) == 0
    assert main(args + [str(_over_a_longer_file(tmp_path / "old.kv"))]) == 0
    assert (tmp_path / "old.kv").read_bytes() == (tmp_path / "fresh.kv").read_bytes()


def test_tag_output_over_a_longer_file_writes_the_labels_alone(trained_model, corpus_dir,
                                                               tmp_path):
    args = ["tag", "--model", str(trained_model), "--input", str(corpus_dir / "test.txt"),
            "--output"]
    assert main(args + [str(tmp_path / "fresh.txt")]) == 0
    assert main(args + [str(_over_a_longer_file(tmp_path / "old.txt"))]) == 0
    assert (tmp_path / "old.txt").read_bytes() == (tmp_path / "fresh.txt").read_bytes()


def test_eval_unequal_sentence_counts(corpus_dir, tmp_path, capsys):
    rc = main(["eval", "--gold", str(corpus_dir / "test.txt"),
               "--pred", str(corpus_dir / "train.txt")])
    assert rc == 1
    assert "mismatch" in capsys.readouterr().err


def test_eval_rejects_a_prediction_whose_words_differ_from_gold(tmp_path, capsys):
    gold, pred = tmp_path / "gold.txt", tmp_path / "pred.txt"
    gold.write_text("a\tO\nb\tx-B\n\nc\tO\nd\tO\n")
    pred.write_text("a\tO\nb\tx-B\n\nc\tO\nzz\tO\n")
    rc = main(["eval", "--gold", str(gold), "--pred", str(pred)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _error_lines(captured.err) == [
        f"error: {pred}: sentence 1, token 1: word mismatch, 'zz' where gold has 'd'"]


def test_saved_model_loads(trained_model):
    model = load_model(trained_model)
    assert model.variant == "irnn" and model.direction == "fwd"


# -- the parser of the chosen subcommand -----------------------------------------------

_PARSER_CASES = [
    ["--help"], [], ["bogus"],
    *[[cmd, "--help"] for cmd in ("generate", "pretrain", "train", "tag", "eval")],
    # a required flag missing, per subcommand
    ["generate", "--size", "3"], ["pretrain", "--train", "t", "--out", "o"],
    ["train", "--train", "t"], ["tag", "--input", "i"], ["eval", "--gold", "g"],
    # a bad choice or value, per subcommand
    ["generate", "--out-dir", "d", "--size", "x"],
    ["pretrain", "--train", "t", "--target", "tokens", "--out", "o"],
    ["train", "--variant", "lstm", "--train", "t", "--out", "o"],
    ["tag", "--input", "i", "--output", "o", "--bogus"],
    ["eval", "--gold", "g", "--pred", "p", "--chunk-mode", "iob"],
    ["--bogus", "tag", "--input", "i", "--output", "o"],
]


def _exit_and_output(run, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", _PARSER_CASES, ids=" ".join)
def test_main_parses_as_the_full_parser(argv, capsys):
    """main builds the options of the chosen subcommand only; help, usage
    and every argparse error read byte for byte as the full parser's. Help
    exits 0; an error prints one error: line to stderr and exits 1."""
    got = _exit_and_output(main, argv, capsys)
    assert got == _exit_and_output(build_parser().parse_args, argv, capsys)
    assert got[0] in (0, 1) and got[1] + got[2]
    if "--help" not in argv:
        code, out, err = got
        assert code == 1 and not out and err.startswith("error: ") and err.count("\n") == 1, got
        assert err.endswith("\n")
    if argv == ["--help"]:
        for cmd in ("generate", "pretrain", "train", "tag", "eval"):
            assert cmd in got[1]
        assert "label a column file with a trained model" in got[1]
