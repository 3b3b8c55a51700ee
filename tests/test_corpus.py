import numpy as np
import pytest

from labelrnn.corpus import (
    BOL,
    Chunk,
    Sentence,
    Vocabulary,
    WORD_UNK_ID,
    build_vocabulary,
    chunks_from_labels,
    decode_labels,
    decode_words,
    encode,
    invalid_continuations,
    load_column_file,
    write_column_file,
)
from labelrnn.errors import DataError, ParseError


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
    assert decode_words(seq, tiny_vocab)[:3] == ["show", "flights", "from"]
    assert seq.words[3] == WORD_UNK_ID
    assert decode_labels(seq.labels, tiny_vocab) == sent.labels
    assert [len(c) for c in seq.chars] == [len(w) for w in sent.words]


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
    assert chunks_from_labels(labels) == [Chunk("Answer", 0, 0), Chunk("BDObject", 1, 2)]


def test_all_o_gives_no_chunks():
    assert chunks_from_labels(["O", "O", "O"]) == []


def test_repair_rule_continuation_without_begin():
    assert chunks_from_labels(["X-I", "X-I"]) == [Chunk("X", 0, 1)]


def test_adjacent_begins_split_chunks():
    labels = ["X-B", "X-B", "X-I", "O", "Y-I"]
    assert chunks_from_labels(labels) == [
        Chunk("X", 0, 0), Chunk("X", 1, 2), Chunk("Y", 4, 4),
    ]


def test_prefix_mode():
    labels = ["B-city", "I-city", "O", "B-date"]
    assert chunks_from_labels(labels, "bio-prefix") == [
        Chunk("city", 0, 1), Chunk("date", 3, 3),
    ]


def test_plain_mode_groups_runs():
    labels = ["city", "city", "O", "date", "city"]
    assert chunks_from_labels(labels, "plain") == [
        Chunk("city", 0, 1), Chunk("date", 3, 3), Chunk("city", 4, 4),
    ]


def test_malformed_label_raises():
    with pytest.raises(DataError):
        chunks_from_labels(["notbio"])
    with pytest.raises(DataError):
        chunks_from_labels(["X-B"], mode="no-such-mode")


def test_chunks_partition_non_o_positions():
    rng = np.random.Generator(np.random.PCG64(11))
    alphabet = ["O", "X-B", "X-I", "Y-B", "Y-I"]
    for _ in range(200):
        labels = [alphabet[i] for i in rng.integers(len(alphabet), size=12)]
        covered = []
        for chunk in chunks_from_labels(labels):
            assert chunk.start <= chunk.end
            covered.extend(range(chunk.start, chunk.end + 1))
        assert sorted(covered) == [t for t, l in enumerate(labels) if l != "O"]
        assert len(covered) == len(set(covered))  # no overlaps


def test_invalid_continuations_counts():
    assert invalid_continuations(["X-B", "X-I", "O"]) == 0
    assert invalid_continuations(["O", "X-I", "Y-I", "Y-I"]) == 2
    assert invalid_continuations(["X-B", "Y-I"]) == 1
