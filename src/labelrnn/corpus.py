"""Corpus handling: column files, vocabularies, BIO chunk semantics, encoding.

The on-disk format is the classic tab-separated column file: one token per
line with 2 fields (word, label) or 3 fields (word, class, label), blank
lines separating sentences, "-" in the class column meaning "no class".
Text to be tagged may also come as 1 field (word).
"""

import os
import re
import stat
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
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

# Label schemes of chunk_spans, the default one, and the label forms of the
# BIO ones.
DEFAULT_CHUNK_MODE = "bio-suffix"
CHUNK_MODES = (DEFAULT_CHUNK_MODE, "bio-prefix", "plain")
_BIO_FORMS = {"bio-suffix": "'X-B', 'X-I' or 'O'", "bio-prefix": "'B-X', 'I-X' or 'O'"}


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
    chars: Optional[list]  # one int array per word, original casing
    labels: Optional[np.ndarray]

    def __len__(self):
        return len(self.words)


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

    def label_id(self, token: str) -> int:
        try:
            return self.labels[token]
        except KeyError:
            raise DataError(f"unknown gold label {token!r}") from None

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
        with open_output(path) as fh:
            fh.write(self.serialize())

    @classmethod
    def load(cls, path) -> "Vocabulary":
        text = read_text(path)
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


# A column file's shape. A blank line holds only whitespace (tabs included);
# any other line holds one tab fewer than the file's field count, which its
# first non-blank line sets. Possessive repeats keep a match from growing a
# backtracking stack with the file.
_BLANK_LINES = re.compile(r"(?:[^\S\n]*+\n)*+")
_SHAPE = {n: re.compile(rf"(?:(?:[^\t\n]*+(?:\t[^\t\n]*+){{{n - 1}}}|[^\S\n]*+)\n)*+")
          for n in (1, 2, 3)}
# The end of a sentence's last line and the blank lines after it.
_SENTENCE_BREAK = re.compile(r"\n(?:[^\S\n]*+\n)++")


def load_column_file(path, fields=(2, 3)) -> list:
    """Parse a tab-separated column file into Sentence records.

    Every non-blank line must have the same field count across the whole
    file, one of fields, the counts the caller accepts among 1 (word), 2
    (word, label) and 3 (word, class, label); violations raise ParseError
    with the line number.
    """
    # Two more line breaks end a last line that lacks one and add a blank
    # line, so that the text ends in a sentence break.
    text = read_text(path) + "\n\n"
    start = _BLANK_LINES.match(text).end()
    if start == len(text):
        return []
    n_fields = text.count("\t", start, text.index("\n", start)) + 1
    bad = _SHAPE[n_fields].match(text, start).end() if n_fields in fields else start
    if bad < len(text):
        lineno = text.count("\n", 0, bad) + 1
        got = text.count("\t", bad, text.index("\n", bad)) + 1
        if got not in fields:
            *rest, last = map(str, fields)
            counts = f"{', '.join(rest)} or {last}" if rest else last
            raise ParseError(f"{path}:{lineno}: expected {counts} fields, got {got}")
        raise ParseError(
            f"{path}:{lineno}: inconsistent field count {got} (file uses {n_fields})")
    sentences = []
    for chunk in _SENTENCE_BREAK.split(text[start:])[:-1]:
        row = chunk.replace("\n", "\t").split("\t")
        classes = row[1::3] if n_fields == 3 else None
        labels = row[n_fields - 1::n_fields] if n_fields > 1 else None
        sentences.append(Sentence(row[::n_fields], classes, labels))
    return sentences


def read_text(path) -> str:
    """The text of a UTF-8 file, with its line breaks read as "\\n". A byte
    that is not UTF-8 raises ParseError naming its line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        _raise_not_utf8(path)


def read_lines(path):
    """Yield the lines of a UTF-8 text file, as read_text reads them."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:
        _raise_not_utf8(path)


def _raise_not_utf8(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
        where = ""
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        where = f":{line}: byte 0x{data[exc.start]:02x} is"
    raise ParseError(f"{path}{where} not UTF-8 text") from None


@contextmanager
def open_output(path, binary=False):
    """The writer of every output file: a UTF-8 text or binary file object
    that writes path in place, from its start. Truncating on open can stall
    for tens of milliseconds on ext4, so a regular file is cut to what was
    written only when the block ends, normally or by an exception. Symlinks
    are followed, hard links see the new bytes, an existing file keeps its
    mode and a new one gets open()'s. Nothing calls fsync."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
        try:
            yield fh
        finally:
            fh.flush()
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode):
                end = os.lseek(fd, 0, os.SEEK_CUR)
                if info.st_size > end:
                    os.ftruncate(fd, end)


def write_column_file(sentences, out):
    """Write sentences as a column file to out: a path, or a text file open
    for writing, which the sentences are appended to. A sentence's columns
    are those it has, in file order: words, classes, labels. Classes without
    labels raise DataError, as two columns read as words and labels."""
    is_path = isinstance(out, (str, os.PathLike))
    with open_output(out) if is_path else nullcontext(out) as fh:
        for sent in sentences:
            if sent.labels is None and sent.classes is not None:
                raise DataError("a sentence with word classes but no labels has no column layout")
            columns = [c for c in (sent.words, sent.classes, sent.labels) if c is not None]
            rows = "\n".join(map("\t".join, zip(*columns)))
            fh.write(rows + "\n\n" if rows else "\n")


def require_inputs(sentences, *readers):
    """DataError when a reader (a model or a training config) uses word
    classes and one of the sentences, raw or encoded, has no class column, or
    uses chars and an encoded sentence was encoded without them."""
    if any(r.use_classes for r in readers) and any(s.classes is None for s in sentences):
        raise DataError("the model reads word classes, but a sentence has no class column "
                        "(expected word, class, label)")
    if any(r.use_chars for r in readers) and any(
            isinstance(s, EncodedSequence) and s.chars is None for s in sentences):
        raise DataError("the model reads characters, but a sentence was encoded without them")


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


def encode(sentence: Sentence, vocab: Vocabulary, *readers,
           with_labels: bool = True) -> EncodedSequence:
    """Map a sentence to index arrays; OOV words/classes/chars become UNK.

    Given readers (models or training configs), the class ids and the char
    ids are encoded only if one of them uses them, and are None otherwise;
    without readers every field is encoded. Unknown gold labels raise
    DataError (training data must be consistent); pass with_labels=False for
    unlabeled or evaluation-only input.
    """
    return encode_all([sentence], vocab, *readers, with_labels=with_labels)[0]


def encode_all(sentences, vocab: Vocabulary, *readers, with_labels: bool = True) -> list:
    """encode of each sentence. Each column's tokens are looked up in one
    pass over all the sentences, and the ids are split by sentence."""
    word_columns = [s.words for s in sentences]
    words = [w for column in word_columns for w in column]
    get, unk = vocab.words.get, vocab.words[UNK]
    ids = [get(w, unk) for w in (map(str.lower, words) if vocab.lowercase else words)]
    word_ids = _split(np.array(ids, dtype=np.int64), word_columns)
    classes = chars = labels = [None] * len(sentences)
    if not readers or any(r.use_classes for r in readers):
        get, unk = vocab.classes.get, vocab.classes[UNK]
        columns = [s.classes for s in sentences]
        ids = [get(c, unk) for column in columns if column is not None for c in column]
        classes = _split(np.array(ids, dtype=np.int64), columns)
    if not readers or any(r.use_chars for r in readers):
        get, unk = vocab.chars.get, vocab.chars[UNK]
        per_word = _split(np.array([get(c, unk) for w in words for c in w], dtype=np.int64),
                          words)
        chars = _split(per_word, word_columns)
    if with_labels:
        columns = [s.labels for s in sentences]
        ids = [vocab.label_id(l) for column in columns if column is not None for l in column]
        labels = _split(np.array(ids, dtype=np.int64), columns)
    return [EncodedSequence(*fields) for fields in zip(word_ids, classes, chars, labels)]


def _split(items, columns) -> list:
    """items, one per token of the columns that are not None in turn, split
    into one slice per column; None for a column that is None."""
    out, end = [], 0
    for column in columns:
        if column is None:
            out.append(None)
        else:
            out.append(items[end : end + len(column)])
            end += len(column)
    return out


def decode_labels(label_ids, vocab: Vocabulary) -> list:
    return [vocab.id_to_label[int(i)] for i in label_ids]


def _split_bio(label: str, mode: str):
    """Return (concept, tag) of a 'bio-suffix' or 'bio-prefix' label, where
    tag is 'B', 'I' or 'O'."""
    if label == "O":
        return None, "O"
    if mode == "bio-suffix" and label[-2:] in ("-B", "-I"):
        return label[:-2], label[-1]
    if mode == "bio-prefix" and label[:2] in ("B-", "I-"):
        return label[2:], label[0]
    raise DataError(f"malformed BIO label {label!r} (expected {_BIO_FORMS[mode]})")


def chunk_spans(labels, mode: str, split=None) -> list:
    """Maximal concept spans of a label sequence as (concept, start, end)
    tuples, start and end inclusive token positions.

    Modes: 'bio-suffix' ("X-B"/"X-I"), 'bio-prefix' ("B-X"/"I-X"), and
    'plain' where maximal runs of an identical non-O label form one chunk.
    A continuation without a matching begin starts a new chunk (repair rule).
    A dict passed as split caches the (concept, tag) of each label across
    the calls it is passed to.
    """
    if mode not in CHUNK_MODES:
        raise DataError(f"unknown BIO mode {mode!r}")
    if split is None:
        split = {}
    spans = []
    open_label = None
    start = None
    for t, label in enumerate(labels):
        parts = split.get(label)
        if parts is None:
            # Plain mode reads a non-O label as a continuation of its own
            # concept, so that a run of one label is one chunk.
            plain = mode == "plain" and label != "O"
            parts = split[label] = (label, "I") if plain else _split_bio(label, mode)
        concept, tag = parts
        if tag == "I" and open_label == concept:
            continue
        if open_label is not None:
            spans.append((open_label, start, t - 1))
            open_label = None
        if tag != "O":
            open_label, start = concept, t
    if open_label is not None:
        spans.append((open_label, start, len(labels) - 1))
    return spans
