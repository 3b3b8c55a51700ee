"""Property: for any bytes, every reader of an input file either parses them
or raises a LabelRnnError, which the CLI reports as one error: line.

Besides arbitrary bytes, each reader gets edits of a valid file (bytes
replaced, inserted or deleted, then a cut), which reach past the first
header check."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from labelrnn.corpus import Sentence, Vocabulary, build_vocabulary, load_column_file, write_column_file
from labelrnn.errors import LabelRnnError
from labelrnn.mathcore import new_rng
from labelrnn.models import build_model, load_model, save_model
from labelrnn.pretrain import load_external_embeddings, save_embeddings
from labelrnn.synthetic import Grammar, default_grammar, generate_corpus
from labelrnn.training import TrainConfig

HOSTILE = settings(max_examples=200, deadline=None)


def hostile(valid: bytes):
    """Arbitrary bytes, or valid with a few spliced edits and an optional cut."""
    edit = st.tuples(st.integers(0, len(valid)), st.integers(0, 4), st.binary(max_size=4))

    def apply(edits, cut):
        data = bytearray(valid)
        for pos, drop, insert in edits:
            data[pos : pos + drop] = insert
        return bytes(data[:cut])

    edited = st.builds(apply, st.lists(edit, max_size=4), st.none() | st.integers(0, len(valid)))
    return st.binary(max_size=300) | edited


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file per reader, as bytes, and a scratch path to write to."""
    d = tmp_path_factory.mktemp("hostile")
    train, _, _ = generate_corpus(4, seed=1)
    write_column_file(train, d / "corpus.txt")
    vocab = build_vocabulary(train)
    config = TrainConfig(d_w=1, d_l=2, d_c=1, embed_size=2, hidden_size=3,
                         hidden_size_all_inputs=3, first_level_size=2, char_embed_size=2,
                         conv_size=2, use_classes=True, use_chars=True)
    model = build_model("irnn-deep", "fwd", vocab, new_rng(0), config)
    save_model(model, d / "model.bin")
    save_embeddings(np.arange(6.0).reshape(3, 2) / 7, {0: "a", 1: "b", 2: "c"}, d / "emb.txt")
    grammar = default_grammar()
    (d / "grammar.json").write_text(json.dumps(
        {"slots": {n: asdict(s) for n, s in grammar.slots.items()}, "templates": grammar.templates}))
    files = {name: (d / name).read_bytes()
             for name in ("corpus.txt", "model.bin", "emb.txt", "grammar.json")}
    files["vocab"] = vocab.serialize().encode("utf-8")
    return files, d / "input"


READERS = {
    "corpus.txt": load_column_file,
    "vocab": Vocabulary.load,
    "model.bin": load_model,
    "emb.txt": lambda path: load_external_embeddings(path, {"a": 0, "c": 2}, np.zeros((3, 2))),
    "grammar.json": Grammar.from_json,
}


def test_valid_seed_files_parse(valid):
    files, path = valid
    for name, read in READERS.items():
        path.write_bytes(files[name])
        read(path)


@pytest.mark.parametrize("name", list(READERS))
@HOSTILE
@given(data=st.data())
def test_any_bytes_parse_or_raise_a_labelrnn_error(valid, name, data):
    files, path = valid
    path.unlink(missing_ok=True)  # a new file: truncating one can stall on ext4
    path.write_bytes(data.draw(hostile(files[name])))
    try:
        READERS[name](path)
    except LabelRnnError:
        pass


@HOSTILE
@given(st.text(max_size=200))
@example("labelrnn-vocab v1\nlowercase\t1\nsection\twords\t\u00b2\n")  # a digit int() rejects
def test_any_text_deserializes_or_raises_a_labelrnn_error(text):
    try:
        Vocabulary.deserialize(text)
    except LabelRnnError:
        pass


@HOSTILE
@given(st.lists(st.text(st.characters(blacklist_characters="\n\r"), min_size=1, max_size=6),
                min_size=1, max_size=8))
def test_vocabulary_round_trips_any_tokens(words):
    vocab = build_vocabulary([Sentence(words=words, labels=words)], lowercase=False)
    again = Vocabulary.deserialize(vocab.serialize())
    for section in ("words", "labels", "classes", "chars"):
        assert getattr(again, section) == getattr(vocab, section)
