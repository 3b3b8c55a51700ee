"""Corpus handling: column files, vocabularies, BIO chunk semantics, encoding.

The on-disk format is the classic tab-separated column file: one token per
line with 2 fields (word, label) or 3 fields (word, class, label), blank
lines separating sentences, "-" in the class column meaning "no class".
"""

import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DataError, ParseError
from .mathcore import fnv1a64

# Reserved vocabulary entries. Words get sentence-boundary padding tokens and
# an unknown token; labels get the begin-of-labels context token; characters
# get a word-boundary padding character.
BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
BOL = "<bol>"
CHAR_PAD = "<cpad>"
NO_CLASS = "-"

VOCAB_FORMAT_HEADER = "labelrnn-vocab v1"
VOCAB_SECTIONS = ("words", "labels", "classes", "chars")  # in file order

# Reserved indices are fixed by Vocabulary construction and stable across
# save/load; window padding and label context rely on them directly.
WORD_BOS_ID = 0
WORD_EOS_ID = 1
WORD_UNK_ID = 2
LABEL_BOL_ID = 0
CLASS_BOS_ID = 0
CLASS_EOS_ID = 1
CHAR_PAD_ID = 0


@dataclass
class Sentence:
    """One raw sentence: parallel token columns, labels optional."""

    words: list
    classes: Optional[list] = None
    labels: Optional[list] = None

    def __len__(self):
        return len(self.words)


@dataclass
class EncodedSequence:
    """One sentence as parallel index arrays over a fixed vocabulary."""

    words: np.ndarray
    classes: Optional[np.ndarray]
    chars: list  # one int array per word, original casing
    labels: Optional[np.ndarray]

    def __len__(self):
        return len(self.words)


@dataclass(frozen=True)
class Chunk:
    """A labeled span; start/end are inclusive token positions."""

    label: str
    start: int
    end: int


class Vocabulary:
    """Bijective token<->index maps for words, labels, classes and chars.

    Reserved entries occupy fixed low indices so they survive save/load:
    words/classes [BOS, EOS, UNK], labels [BOL], chars [CHAR_PAD, UNK].
    """

    def __init__(self, lowercase: bool = True):
        self.lowercase = lowercase
        self.words = {BOS: 0, EOS: 1, UNK: 2}
        self.labels = {BOL: 0}
        self.classes = {BOS: 0, EOS: 1, UNK: 2, NO_CLASS: 3}
        self.chars = {CHAR_PAD: 0, UNK: 1}
        self._rebuild_inverse()

    def _rebuild_inverse(self):
        self.id_to_word = {i: w for w, i in self.words.items()}
        self.id_to_label = {i: l for l, i in self.labels.items()}
        self.id_to_class = {i: c for c, i in self.classes.items()}
        self.id_to_char = {i: c for c, i in self.chars.items()}

    # -- sizes ---------------------------------------------------------
    @property
    def n_words(self):
        return len(self.words)

    @property
    def n_labels(self):
        return len(self.labels)

    @property
    def n_classes(self):
        return len(self.classes)

    @property
    def n_chars(self):
        return len(self.chars)

    # -- lookups -------------------------------------------------------
    def word_id(self, token: str) -> int:
        if self.lowercase:
            token = token.lower()
        return self.words.get(token, self.words[UNK])

    def class_id(self, token: str) -> int:
        return self.classes.get(token, self.classes[UNK])

    def label_id(self, token: str) -> int:
        try:
            return self.labels[token]
        except KeyError:
            raise DataError(f"unknown gold label {token!r}") from None

    def char_ids(self, word: str) -> np.ndarray:
        unk = self.chars[UNK]
        return np.array([self.chars.get(c, unk) for c in word], dtype=np.int64)

    # -- serialization -------------------------------------------------
    def serialize(self) -> str:
        lines = [VOCAB_FORMAT_HEADER, f"lowercase\t{int(self.lowercase)}"]
        for name in VOCAB_SECTIONS:
            mapping = getattr(self, name)
            lines.append(f"section\t{name}\t{len(mapping)}")
            for token, idx in sorted(mapping.items(), key=lambda kv: kv[1]):
                lines.append(f"{idx}\t{token}")
        return "\n".join(lines) + "\n"

    def hash(self) -> int:
        return fnv1a64(self.serialize().encode("utf-8"))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.serialize())

    @classmethod
    def load(cls, path) -> "Vocabulary":
        text = "".join(read_lines(path))
        try:
            return cls.deserialize(text)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None

    @classmethod
    def deserialize(cls, text: str) -> "Vocabulary":
        """Inverse of serialize. Each section must list its entries by index
        0..count-1, starting with the reserved entries; anything else raises
        ParseError."""
        lines = text.rstrip("\n").split("\n")  # tokens may hold other line breaks
        if lines[0] != VOCAB_FORMAT_HEADER:
            raise ParseError("not a vocabulary file (bad header)")
        vocab = cls()
        if len(lines) < 2 or lines[1] not in ("lowercase\t0", "lowercase\t1"):
            raise ParseError("vocabulary file missing lowercase flag")
        vocab.lowercase = lines[1] == "lowercase\t1"
        i = 2
        sections = {}
        while i < len(lines):
            header = lines[i].split("\t")
            if len(header) != 3 or header[0] != "section" or not header[2].isdecimal():
                raise ParseError(f"line {i + 1}: expected a section header")
            name, count = header[1], int(header[2])
            if name not in VOCAB_SECTIONS or name in sections:
                raise ParseError(f"line {i + 1}: unexpected section {name!r}")
            rows = lines[i + 1 : i + 1 + count]
            if len(rows) != count:
                raise ParseError(f"section {name}: expected {count} entries, found {len(rows)}")
            mapping = {}
            for k, row in enumerate(rows):
                idx, tab, token = row.partition("\t")
                if not tab or idx != str(k) or token in mapping:
                    raise ParseError(f"line {i + 2 + k}: malformed {name} entry {row!r}")
                mapping[token] = k
            reserved = list(getattr(vocab, name))
            if list(mapping)[: len(reserved)] != reserved:
                raise ParseError(f"section {name} does not start with {reserved}")
            sections[name] = mapping
            i += 1 + count
        for name in VOCAB_SECTIONS:
            if name not in sections:
                raise ParseError(f"vocabulary file has no {name} section")
            setattr(vocab, name, sections[name])
        vocab._rebuild_inverse()
        return vocab


def load_column_file(path) -> list:
    """Parse a tab-separated column file into Sentence records.

    Every non-blank line must have the same field count (2 or 3) across the
    whole file; violations raise ParseError with the line number.
    """
    sentences = []
    rows = []
    n_fields = None
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            if rows:
                sentences.append(_sentence_from_rows(rows))
                rows = []
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise ParseError(f"{path}:{lineno}: expected 2 or 3 fields, got {len(fields)}")
        if n_fields is None:
            n_fields = len(fields)
        elif len(fields) != n_fields:
            raise ParseError(
                f"{path}:{lineno}: inconsistent field count {len(fields)} (file uses {n_fields})"
            )
        rows.append(fields)
    if rows:
        sentences.append(_sentence_from_rows(rows))
    return sentences


def read_lines(path):
    """Yield the lines of a UTF-8 text file. A byte that is not UTF-8
    raises ParseError naming its line."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
            where = ""
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            where = f":{line}: byte 0x{data[exc.start]:02x} is"
        raise ParseError(f"{path}{where} not UTF-8 text") from None


def _sentence_from_rows(rows):
    if len(rows[0]) == 2:
        return Sentence(words=[r[0] for r in rows], labels=[r[1] for r in rows])
    return Sentence(
        words=[r[0] for r in rows],
        classes=[r[1] for r in rows],
        labels=[r[2] for r in rows],
    )


def write_column_file(sentences, out):
    """Write sentences as a column file to out: a path, or a text file open
    for writing, which the sentences are appended to."""
    is_path = isinstance(out, (str, os.PathLike))
    with open(out, "w", encoding="utf-8") if is_path else nullcontext(out) as fh:
        for sent in sentences:
            for i, word in enumerate(sent.words):
                fields = [word]
                if sent.classes is not None:
                    fields.append(sent.classes[i])
                fields.append(sent.labels[i])
                fh.write("\t".join(fields) + "\n")
            fh.write("\n")


def require_classes(sentences, *readers):
    """DataError when a reader (a model or a training config) uses word
    classes and one of the sentences, raw or encoded, has no class column."""
    if any(r.use_classes for r in readers) and any(s.classes is None for s in sentences):
        raise DataError("the model reads word classes, but a sentence has no class column "
                        "(expected word, class, label)")


def build_vocabulary(sentences, min_count: int = 1, lowercase: bool = True) -> Vocabulary:
    """Build maps from training sentences; words under min_count become UNK."""
    if not sentences:
        raise DataError("cannot build a vocabulary from an empty training set")
    vocab = Vocabulary(lowercase=lowercase)
    counts = Counter()
    for sent in sentences:
        for word in sent.words:
            counts[word.lower() if lowercase else word] += 1
    for token, freq in sorted(counts.items()):
        if freq >= min_count and token not in vocab.words:
            vocab.words[token] = len(vocab.words)
    for sent in sentences:
        for word in sent.words:
            for ch in word:  # original casing, so the conv can see capitalization
                if ch not in vocab.chars:
                    vocab.chars[ch] = len(vocab.chars)
        if sent.classes is not None:
            for cls in sent.classes:
                if cls not in vocab.classes:
                    vocab.classes[cls] = len(vocab.classes)
        if sent.labels is not None:
            for label in sent.labels:
                if label not in vocab.labels:
                    vocab.labels[label] = len(vocab.labels)
    vocab._rebuild_inverse()
    return vocab


def encode(sentence: Sentence, vocab: Vocabulary, with_labels: bool = True) -> EncodedSequence:
    """Map a sentence to index arrays; OOV words/classes/chars become UNK.

    Unknown gold labels raise DataError (training data must be consistent);
    pass with_labels=False for unlabeled or evaluation-only input.
    """
    words = np.array([vocab.word_id(w) for w in sentence.words], dtype=np.int64)
    classes = None
    if sentence.classes is not None:
        classes = np.array([vocab.class_id(c) for c in sentence.classes], dtype=np.int64)
    chars = [vocab.char_ids(w) for w in sentence.words]
    labels = None
    if with_labels and sentence.labels is not None:
        labels = np.array([vocab.label_id(l) for l in sentence.labels], dtype=np.int64)
    return EncodedSequence(words=words, classes=classes, chars=chars, labels=labels)


def decode_words(seq: EncodedSequence, vocab: Vocabulary) -> list:
    return [vocab.id_to_word[i] for i in seq.words]


def decode_labels(label_ids, vocab: Vocabulary) -> list:
    return [vocab.id_to_label[int(i)] for i in label_ids]


def _split_bio(label: str, mode: str):
    """Return (concept, tag) where tag is 'B', 'I' or 'O'."""
    if label == "O":
        return None, "O"
    if mode == "bio-suffix":
        if label.endswith("-B"):
            return label[:-2], "B"
        if label.endswith("-I"):
            return label[:-2], "I"
        raise DataError(f"malformed BIO label {label!r} (expected 'X-B', 'X-I' or 'O')")
    if mode == "bio-prefix":
        if label.startswith("B-"):
            return label[2:], "B"
        if label.startswith("I-"):
            return label[2:], "I"
        raise DataError(f"malformed BIO label {label!r} (expected 'B-X', 'I-X' or 'O')")
    raise DataError(f"unknown BIO mode {mode!r}")


def chunks_from_labels(labels, mode: str = "bio-suffix") -> list:
    """Extract maximal concept spans from a label string sequence.

    Modes: 'bio-suffix' ("X-B"/"X-I"), 'bio-prefix' ("B-X"/"I-X"), and
    'plain' where maximal runs of an identical non-O label form one chunk.
    A continuation without a matching begin starts a new chunk (repair rule).
    """
    chunks = []
    if mode == "plain":
        start = None
        current = None
        for t, label in enumerate(labels):
            if label != current:
                if current is not None and current != "O":
                    chunks.append(Chunk(current, start, t - 1))
                current, start = label, t
        if current is not None and current != "O":
            chunks.append(Chunk(current, start, len(labels) - 1))
        return chunks

    open_label = None
    start = None
    for t, label in enumerate(labels):
        concept, tag = _split_bio(label, mode)
        continues = tag == "I" and open_label == concept
        if open_label is not None and not continues:
            chunks.append(Chunk(open_label, start, t - 1))
            open_label = None
        if tag in ("B", "I") and not continues:
            open_label, start = concept, t
    if open_label is not None:
        chunks.append(Chunk(open_label, start, len(labels) - 1))
    return chunks


def invalid_continuations(labels, mode: str = "bio-suffix") -> int:
    """Count 'X-I' positions whose previous label is neither X-B nor X-I."""
    count = 0
    prev_concept = None
    for label in labels:
        concept, tag = _split_bio(label, mode)
        if tag == "I" and prev_concept != concept:
            count += 1
        prev_concept = concept if tag in ("B", "I") else None
    return count
