import json
import warnings

import pytest

from labelrnn.cli import _resolve_config, build_parser, main
from labelrnn.corpus import (Sentence, Vocabulary, decode_labels, encode, load_column_file,
                             write_column_file)
from labelrnn.pretrain import load_external_embeddings
from labelrnn.models import load_model, save_model, tag_greedy
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
    config = _resolve_config(args)
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

    monkeypatch.setattr("labelrnn.cli.tag_greedy_batch", decoder)
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


def test_eval_unequal_sentence_counts(corpus_dir, tmp_path, capsys):
    rc = main(["eval", "--gold", str(corpus_dir / "test.txt"),
               "--pred", str(corpus_dir / "train.txt")])
    assert rc == 1
    assert "mismatch" in capsys.readouterr().err


def test_saved_model_loads(trained_model):
    model = load_model(trained_model)
    assert model.variant == "irnn" and model.direction == "fwd"
