import ast
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import labelrnn
from labelrnn.corpus import (
    BOL,
    Sentence,
    Vocabulary,
    WORD_UNK_ID,
    build_vocabulary,
    chunk_spans,
    decode_labels,
    encode,
    encode_all,
    load_column_file,
    open_output,
    write_column_file,
)
from labelrnn.errors import DataError, ParseError
from labelrnn.metrics import evaluate
from labelrnn.training import TrainConfig

from reference import reference_load_column_file


# -- column files ---------------------------------------------------------

def test_three_column_rows_parse(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("Delta\tairline\tairline-name\nBoston\tcity\tfromloc.city\n")
    sentences = load_column_file(path)
    assert len(sentences) == 1
    sent = sentences[0]
    assert sent.words == ["Delta", "Boston"]
    assert sent.classes == ["airline", "city"]
    assert sent.labels == ["airline-name", "fromloc.city"]


def test_two_column_files_have_no_classes(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("hello\tO\nworld\tO\n\nbye\tO\n")
    sentences = load_column_file(path)
    assert len(sentences) == 2
    assert sentences[0].classes is None


def test_one_column_files_have_words_only_where_accepted(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("Show\nflights\n\nbye\n")
    assert load_column_file(path, fields=(1, 2, 3)) == [
        Sentence(words=["Show", "flights"]), Sentence(words=["bye"])]
    with pytest.raises(ParseError, match=r":1: expected 2 or 3 fields, got 1$"):
        load_column_file(path)


def test_empty_file_gives_empty_corpus(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert load_column_file(path) == []


def test_bad_field_count_reports_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a\tO\nb\tx\ty\tz\n")
    with pytest.raises(ParseError) as err:
        load_column_file(path)
    assert ":2:" in str(err.value)


def test_inconsistent_field_count_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a\tO\nb\tcity\tO\n")
    with pytest.raises(ParseError) as err:
        load_column_file(path)
    assert ":2:" in str(err.value)


def test_write_then_load_round_trip(tmp_path):
    sentences = [
        Sentence(words=["a", "b"], classes=["-", "city"], labels=["O", "x-B"]),
        Sentence(words=["c"], classes=["-"], labels=["O"]),
    ]
    path = tmp_path / "rt.txt"
    write_column_file(sentences, path)
    assert load_column_file(path) == sentences


def test_words_only_files_round_trip(tmp_path):
    sentences = [Sentence(words=["Show", "flights"]), Sentence(words=["bye"])]
    path = tmp_path / "rt.txt"
    write_column_file(sentences, path)
    assert path.read_text() == "Show\nflights\n\nbye\n\n"
    assert load_column_file(path, (1, 2, 3)) == sentences


def test_classes_without_labels_are_not_written(tmp_path):
    with pytest.raises(DataError, match="classes but no labels"):
        write_column_file([Sentence(words=["a"], classes=["city"])], tmp_path / "c.txt")


# Field characters, whitespace that str.strip removes but that breaks no line,
# and the line breaks that reading translates.
FIELD_CHARS = ["a", "\u00e9", "-", " ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028"]
LINE_BREAKS = ["\r", "\r\n", "\n"]


def _column_texts():
    """Free text over every piece, or lines of tab-joined fields; each with
    or without a final line break."""
    free = st.lists(st.sampled_from(FIELD_CHARS + ["\t"] + LINE_BREAKS), max_size=40)
    field = st.lists(st.sampled_from(FIELD_CHARS), max_size=3).map("".join)
    line = st.tuples(st.lists(field, min_size=1, max_size=4).map("\t".join),
                     st.sampled_from(LINE_BREAKS))
    text = free.map("".join) | st.lists(line, max_size=12).map(
        lambda lines: "".join(fields + brk for fields, brk in lines))
    return st.tuples(text, st.booleans()).map(
        lambda t: t[0] + "\n" if t[1] else t[0].rstrip("\r\n"))


def _load_or_message(load, path, fields):
    try:
        return load(path, fields)
    except ParseError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def column_path(tmp_path_factory):
    return tmp_path_factory.mktemp("columns") / "c.txt"


@settings(max_examples=500, deadline=None)
@given(_column_texts(), st.sampled_from([(2, 3), (1, 2, 3)]))
def test_load_column_file_agrees_with_the_line_by_line_reader(column_path, text, fields):
    column_path.unlink(missing_ok=True)  # a new file: truncating one can stall on ext4
    column_path.write_bytes(text.encode("utf-8"))
    assert (_load_or_message(load_column_file, column_path, fields)
            == _load_or_message(reference_load_column_file, column_path, fields))


def _sentences(n_columns):
    """Non-empty sentences whose fields hold no tab or line break; a word
    that is not all whitespace keeps each row from reading as blank. A word
    is built around one such char, as most of FIELD_CHARS are whitespace and
    filtering for it discards enough draws to fail Hypothesis's health check."""
    field = st.text(st.sampled_from(FIELD_CHARS), max_size=3)
    word = st.tuples(field, st.sampled_from([c for c in FIELD_CHARS if c.strip()]),
                     field).map("".join)
    row = st.tuples(word, *[field] * (n_columns - 1))

    def sentence(rows):
        columns = [list(col) for col in zip(*rows)]
        if n_columns == 1:
            return Sentence(words=columns[0])
        if n_columns == 2:
            return Sentence(words=columns[0], labels=columns[1])
        return Sentence(words=columns[0], classes=columns[1], labels=columns[2])

    return st.lists(st.lists(row, min_size=1, max_size=5).map(sentence), max_size=5)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 3]).flatmap(_sentences))
def test_write_then_load_round_trips_any_fields(column_path, sentences):
    write_column_file(sentences, column_path)
    assert load_column_file(column_path, (1, 2, 3)) == sentences


# -- output files ---------------------------------------------------------

@pytest.mark.parametrize("binary", [False, True])
def test_open_output_leaves_exactly_the_new_bytes(tmp_path, binary):
    path = tmp_path / "out"
    path.write_text("a much longer old file\n" * 10)
    with open_output(path, binary=binary) as fh:
        fh.write(b"new\n" if binary else "n\u00e9w\n")
    assert path.read_bytes() == (b"new\n" if binary else "n\u00e9w\n".encode("utf-8"))


def test_open_output_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("old contents\n")
    link.symlink_to(target)
    with open_output(link) as fh:
        fh.write("new\n")
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text() == "new\n"


def test_open_output_is_seen_through_a_hard_link(tmp_path):
    path, other = tmp_path / "out", tmp_path / "other"
    path.write_text("old contents\n")
    os.link(path, other)
    with open_output(path) as fh:
        fh.write("new\n")
    assert other.read_text() == "new\n"
    assert path.stat().st_ino == other.stat().st_ino


def test_open_output_keeps_a_mode_and_gives_a_new_file_open_s_mode(tmp_path):
    path = tmp_path / "out"
    path.write_text("old contents\n")
    path.chmod(0o640)
    with open_output(path) as fh:
        fh.write("new\n")
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    with open(tmp_path / "by-open", "w"):
        pass
    with open_output(tmp_path / "new") as fh:
        fh.write("new\n")
    assert (tmp_path / "new").stat().st_mode == (tmp_path / "by-open").stat().st_mode


def test_open_output_writes_a_device_without_a_cut():
    with open_output(os.devnull) as fh:
        fh.write("discarded\n")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_open_output_keeps_what_was_written_before_an_exception(tmp_path):
    path = tmp_path / "out"
    path.write_text("a much longer old file\n")
    with pytest.raises(DataError):
        with open_output(path) as fh:
            fh.write("partial\n")
            raise DataError("stop")
    assert path.read_text() == "partial\n"


def _writes_outside_open_output(source):
    """(line, call) of each call in source that opens a file for writing,
    appending or creating, or calls write_text or write_bytes, outside the
    function open_output. A mode or flags that are not literal count as
    writing."""
    found = []

    def visit(node, inside):
        inside = inside or isinstance(node, ast.FunctionDef) and node.name == "open_output"
        if isinstance(node, ast.Call) and not inside:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("write_text", "write_bytes"):
                found.append((node.lineno, name))
            elif name == "open" and ast.unparse(func) == "os.open":
                if {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"} & {
                        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}:
                    found.append((node.lineno, ast.unparse(node)))
            elif name in ("open", "fdopen"):
                # open(file, mode), io.open and os.fdopen alike; Path.open(mode).
                at = 1 if ast.unparse(func) in ("open", "io.open", "os.fdopen") else 0
                mode = node.args[at] if len(node.args) > at else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
                if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                    found.append((node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize("source", [
    "open(p, 'w')", "open(p, mode='a')", "open(p, 'xb')", "open(p, 'r+')", "open(p, m)",
    "io.open(p, 'wb')", "os.fdopen(fd, 'w')", "Path(p).open('w')", "p.write_text('x')",
    "p.write_bytes(b'x')", "os.open(p, os.O_WRONLY | os.O_CREAT)",
    "def f():\n    with open(p, 'w'): pass",
])
def test_the_writer_scan_finds_each_kind_of_writer(source):
    assert len(_writes_outside_open_output(source)) == 1


def test_the_writer_scan_passes_readers_and_open_output():
    assert _writes_outside_open_output(
        "open(p)\nopen(p, 'rb')\nopen(p, encoding='utf-8')\nos.open(p, os.O_RDONLY)\n"
        "Path(p).open()\nPath(p).open('rb')\n"
        "def open_output(p):\n    fd = os.open(p, os.O_WRONLY)\n    open(fd, 'w')\n") == []


def test_every_output_file_is_written_by_open_output():
    """A writer that truncates on open brings back the stall open_output
    avoids; every module of the package writes through open_output."""
    sources = sorted(Path(labelrnn.__file__).parent.glob("*.py"))
    assert sources
    found = {path.name: _writes_outside_open_output(path.read_text(encoding="utf-8"))
             for path in sources}
    assert {name: calls for name, calls in found.items() if calls} == {}


# -- vocabulary -----------------------------------------------------------

def test_vocabulary_sizes_with_reserved_entries():
    sents = [Sentence(words=["aa", "bb", "cc"], labels=["O", "O", "O"])]
    vocab = build_vocabulary(sents)
    assert vocab.n_words == 3 + 3  # three types plus BOS/EOS/UNK
    assert vocab.n_labels == 1 + 1  # O plus BOL
    assert BOL in vocab.labels and vocab.labels[BOL] == 0


def test_min_count_filters_rare_words():
    sents = [Sentence(words=["aa", "aa", "bb"], labels=["O", "O", "O"])]
    vocab = build_vocabulary(sents, min_count=2)
    assert "aa" in vocab.words and "bb" not in vocab.words
    assert vocab.word_id("bb") == WORD_UNK_ID


def test_encode_all_equals_per_sentence_encode_and_the_per_token_lookups():
    vocab = build_vocabulary([
        Sentence(words=["Show", "Flights", "to", "BOSTON"], classes=["-", "-", "-", "city"],
                 labels=["O", "O", "O", "toloc-B"]),
        Sentence(words=["from", "Denver"], classes=["-", "city"], labels=["O", "fromloc-B"])])
    sentences = [
        Sentence(words=["SHOW", "flights", "to", "Zürich", "boston"],
                 classes=["-", "-", "-", "airport", "city"]),
        Sentence(words=["x"], classes=["city"]),
        Sentence(words=["From", "denVER", ""], classes=["-", "city", "-"]),
    ]
    unk_class, unk_char = vocab.classes["<unk>"], vocab.chars["<unk>"]
    for readers in ((), (TrainConfig(),), (TrainConfig(use_classes=True, use_chars=True),)):
        encoded = encode_all(sentences, vocab, *readers, with_labels=False)
        assert len(encoded) == len(sentences)
        for sentence, seq in zip(sentences, encoded):
            one = encode(sentence, vocab, *readers, with_labels=False)
            assert seq.words.dtype == np.int64
            assert seq.words.tolist() == one.words.tolist() == [
                vocab.word_id(w) for w in sentence.words]
            reads = not readers or readers[0].use_classes
            assert (seq.classes is None) == (one.classes is None) == (not reads)
            if reads:
                assert seq.classes.tolist() == one.classes.tolist() == [
                    vocab.classes.get(c, unk_class) for c in sentence.classes]
            assert (seq.chars is None) == (one.chars is None) == (not reads)
            if reads:
                assert [c.tolist() for c in seq.chars] == [c.tolist() for c in one.chars] == [
                    [vocab.chars.get(c, unk_char) for c in w] for w in sentence.words]
            assert seq.labels is None and one.labels is None
    assert encode_all([], vocab) == []


def test_lowercasing_words_but_not_chars():
    sents = [Sentence(words=["Boston"], labels=["O"])]
    vocab = build_vocabulary(sents, lowercase=True)
    assert "boston" in vocab.words and "Boston" not in vocab.words
    assert "B" in vocab.chars  # original casing preserved for characters
    assert vocab.word_id("BOSTON") == vocab.word_id("boston")


def test_empty_training_set_rejected():
    with pytest.raises(DataError):
        build_vocabulary([])


def test_encode_round_trip_and_oov(tiny_vocab):
    sent = Sentence(
        words=["show", "flights", "from", "zanzibar"],
        classes=["-", "-", "-", "city"],
        labels=["O", "O", "O", "from-city-B"],
    )
    seq = encode(sent, tiny_vocab)
    assert [tiny_vocab.id_to_word[i] for i in seq.words[:3]] == ["show", "flights", "from"]
    assert seq.words[3] == WORD_UNK_ID
    assert decode_labels(seq.labels, tiny_vocab) == sent.labels
    assert [len(c) for c in seq.chars] == [len(w) for w in sent.words]


def test_encode_leaves_out_the_fields_no_reader_uses(tiny_vocab, small_model_factory):
    sent = Sentence(words=["Show", "flights", "from", "zanzibar"],
                    classes=["-", "-", "-", "city"], labels=["O", "O", "O", "O"])
    full = encode(sent, tiny_vocab)
    assert full.classes is not None and full.chars is not None
    words_only = small_model_factory("irnn")
    for readers in [(words_only,), (TrainConfig(),), (words_only, TrainConfig())]:
        seq = encode(sent, tiny_vocab, *readers)
        assert (seq.classes, seq.chars) == (None, None)
        assert np.array_equal(seq.words, full.words)
        assert np.array_equal(seq.labels, full.labels)
    seq = encode(sent, tiny_vocab, words_only, small_model_factory("irnn", use_classes=True))
    assert np.array_equal(seq.classes, full.classes) and seq.chars is None
    seq = encode(sent, tiny_vocab, TrainConfig(use_chars=True), with_labels=False)
    assert seq.classes is None and seq.labels is None
    assert [c.tolist() for c in seq.chars] == [c.tolist() for c in full.chars]


def test_unknown_gold_label_raises(tiny_vocab):
    sent = Sentence(words=["show"], labels=["nonexistent-B"])
    with pytest.raises(DataError) as err:
        encode(sent, tiny_vocab)
    assert "nonexistent-B" in str(err.value)
    # without labels the same sentence encodes fine
    assert encode(sent, tiny_vocab, with_labels=False).labels is None


def test_vocabulary_serialization_round_trip(tiny_vocab, tmp_path):
    path = tmp_path / "v.vocab"
    tiny_vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.words == tiny_vocab.words
    assert loaded.labels == tiny_vocab.labels
    assert loaded.classes == tiny_vocab.classes
    assert loaded.chars == tiny_vocab.chars
    assert loaded.hash() == tiny_vocab.hash()


def test_vocabulary_bad_header(tmp_path):
    path = tmp_path / "v.vocab"
    path.write_text("not a vocab\n")
    with pytest.raises(ParseError):
        Vocabulary.load(path)


def test_vocabulary_truncated_anywhere_is_a_parse_error_or_loads(tiny_vocab):
    text = tiny_vocab.serialize()
    for cut in range(len(text)):
        try:
            Vocabulary.deserialize(text[:cut])
        except ParseError:
            pass


@pytest.mark.parametrize("edit", [
    lambda t: t.replace("section\tclasses", "section\tklasses"),    # unknown section
    lambda t: t[: t.index("section\tchars")],                        # missing section
    lambda t: t.replace("\n1\t</s>\n", "\n1</s>\n", 1),           # no tab
    lambda t: t.replace("\n1\t</s>\n", "\nx\t</s>\n", 1),        # bad index
    lambda t: t.replace("section\twords\t", "section\twords\t9"),   # wrong count
    lambda t: t.replace("lowercase\t1", "lowercase\tyes"),
    lambda t: t.replace("\n0\t<s>\n", "\n0\t<x>\n", 1),          # reserved entry lost
])
def test_vocabulary_malformed_sections_rejected(tiny_vocab, edit):
    text = edit(tiny_vocab.serialize())
    assert text != tiny_vocab.serialize()
    with pytest.raises(ParseError):
        Vocabulary.deserialize(text)


def test_non_utf8_files_name_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"a\tO\n\nb\tO\n\xff\tO\n")
    with pytest.raises(ParseError, match=r"bad.txt:4: byte 0xff is not UTF-8"):
        load_column_file(path)
    path.write_bytes(b"labelrnn-vocab v1\n\xe9\n")
    with pytest.raises(ParseError, match=r"bad.txt:2: byte 0xe9 is not UTF-8"):
        Vocabulary.load(path)


# -- BIO chunking -----------------------------------------------------------

def test_chunks_suffix_example():
    labels = ["Answer-B", "BDObject-B", "BDObject-I"]
    assert chunk_spans(labels, "bio-suffix") == [("Answer", 0, 0), ("BDObject", 1, 2)]


def test_all_o_gives_no_chunks():
    assert chunk_spans(["O", "O", "O"], "bio-suffix") == []


def test_repair_rule_continuation_without_begin():
    assert chunk_spans(["X-I", "X-I"], "bio-suffix") == [("X", 0, 1)]


def test_adjacent_begins_split_chunks():
    labels = ["X-B", "X-B", "X-I", "O", "Y-I"]
    assert chunk_spans(labels, "bio-suffix") == [("X", 0, 0), ("X", 1, 2), ("Y", 4, 4)]


def test_prefix_mode():
    labels = ["B-city", "I-city", "O", "B-date"]
    assert chunk_spans(labels, "bio-prefix") == [("city", 0, 1), ("date", 3, 3)]


def test_plain_mode_groups_runs():
    labels = ["city", "city", "O", "date", "city"]
    assert chunk_spans(labels, "plain") == [("city", 0, 1), ("date", 3, 3), ("city", 4, 4)]


def test_malformed_label_raises():
    with pytest.raises(DataError):
        chunk_spans(["notbio"], "bio-suffix")
    for labels in (["X-B"], ["O", "O"], []):
        with pytest.raises(DataError, match="unknown BIO mode 'no-such-mode'"):
            chunk_spans(labels, mode="no-such-mode")


def test_chunks_partition_non_o_positions():
    rng = np.random.Generator(np.random.PCG64(11))
    alphabet = ["O", "X-B", "X-I", "Y-B", "Y-I"]
    for _ in range(200):
        labels = [alphabet[i] for i in rng.integers(len(alphabet), size=12)]
        covered = []
        for _, start, end in chunk_spans(labels, "bio-suffix"):
            assert start <= end
            covered.extend(range(start, end + 1))
        assert sorted(covered) == [t for t, l in enumerate(labels) if l != "O"]
        assert len(covered) == len(set(covered))  # no overlaps


def _invalid_rate(labels, mode="bio-suffix"):
    """evaluate's invalid-continuation rate of one predicted sentence."""
    return evaluate([labels], [labels], mode).invalid_rate


def test_invalid_continuations_counts():
    assert _invalid_rate(["X-B", "X-I", "O"]) == 0.0
    assert _invalid_rate(["O", "X-I", "Y-I", "Y-I"]) == 50.0  # 2 of 4 tokens
    assert _invalid_rate(["X-B", "Y-I"]) == 50.0  # 1 of 2 tokens


def test_invalid_continuations_plain_mode_has_none():
    assert _invalid_rate(["A", "O"], "plain") == 0.0
    assert _invalid_rate(["X-I", "Y-I"], "plain") == 0.0


def test_invalid_continuations_rejects_an_unknown_mode():
    with pytest.raises(DataError, match="unknown BIO mode 'bogus'"):
        _invalid_rate(["O", "O"], "bogus")
    with pytest.raises(DataError, match="unknown BIO mode 'bogus'"):
        _invalid_rate([], "bogus")
