"""Template-grammar generator for desk-scale slot-filling corpora.

Sentences are drawn from flight-query style templates whose slot fillers are
labeled with suffix-BIO tags ("slot-B", "slot-I") and carry a per-token word
class. Two slot types (confirmation code / tracking reference) share an
identical filler distribution and an identical right context, so that filler
tokens far from the trigger word are ambiguous from the word window alone and
can only be labeled consistently through the label context.
"""

import json
from dataclasses import dataclass, fields
from typing import Optional

from .corpus import NO_CLASS, Sentence, read_text, write_column_file
from .errors import ConfigError, ParseError
from .mathcore import new_rng

# Longest pool filler a grammar file may ask for, in tokens.
MAX_SLOT_LEN = 100


@dataclass
class SlotSpec:
    """Filler source for one slot: fixed phrases, or random pool sequences."""

    class_name: str = NO_CLASS
    phrases: Optional[list] = None
    pool: Optional[list] = None
    min_len: int = 1
    max_len: int = 1

    def sample(self, rng) -> list:
        if self.phrases is not None:
            return self.phrases[rng.integers(len(self.phrases))].split()
        length = int(rng.integers(self.min_len, self.max_len + 1))
        return [self.pool[rng.integers(len(self.pool))] for _ in range(length)]


@dataclass
class Grammar:
    """Slot definitions plus templates mixing literal words and {slot} refs."""

    slots: dict
    templates: list

    @classmethod
    def from_json(cls, path) -> "Grammar":
        """Read {"slots": {name: spec}, "templates": [template, ...]}, where a
        spec holds SlotSpec fields with non-blank phrases or a pool of
        one-token strings. Anything else raises ParseError naming the file."""
        try:
            raw = json.loads(read_text(path))
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
            raise ParseError(f"{path}: not JSON: {exc}") from None
        slots = raw.get("slots") if isinstance(raw, dict) else None
        keys = {f.name for f in fields(SlotSpec)}
        if not (isinstance(slots, dict) and set(raw) == {"slots", "templates"} and all(
                isinstance(spec, dict) and set(spec) <= keys for spec in slots.values())):
            raise ParseError(f'{path}: a grammar is {{"slots": {{name: spec}}, "templates": '
                             f"[...]}} with spec keys from {sorted(keys)}")
        grammar = cls({name: SlotSpec(**spec) for name, spec in slots.items()}, raw["templates"])
        for name, spec in grammar.slots.items():
            lengths = (spec.min_len, spec.max_len)
            if not (_is_token(spec.class_name) and (spec.phrases is None) != (spec.pool is None)
                    and _all_strings(spec.phrases or spec.pool,
                                     str.split if spec.pool is None else _is_token)
                    and all(type(n) is int for n in lengths)
                    and 1 <= lengths[0] <= lengths[1] <= MAX_SLOT_LEN):
                raise ParseError(f"{path}: slot {name} needs a one-token class_name, non-blank "
                                 "phrases or a pool of one-token strings, and "
                                 f"1 <= min_len <= max_len <= {MAX_SLOT_LEN}")
        refs = {item[1:-1] for entry in grammar.templates if isinstance(entry, str)
                for item in entry.split() if item.startswith("{") and item.endswith("}")}
        if not _all_strings(grammar.templates, str.split) or not refs <= set(grammar.slots):
            raise ParseError(f"{path}: templates must be non-blank strings whose {{slot}} "
                             "references name slots")
        return grammar


def _is_token(value) -> bool:
    return isinstance(value, str) and value.split() == [value]


def _all_strings(value, check) -> bool:
    """value is a non-empty list of strings that each pass check."""
    return isinstance(value, list) and value != [] and all(
        isinstance(v, str) and check(v) for v in value)


CITY_PHRASES = [
    "boston", "chicago", "denver", "seattle", "atlanta", "portland",
    "new york city", "salt lake city", "san francisco", "los angeles",
    "kansas city", "saint louis",
]
AIRLINE_PHRASES = [
    "delta", "united", "continental", "air france", "british airways",
]
DATE_PHRASES = [
    "monday", "tuesday", "friday", "next sunday", "next thursday",
    "early monday morning", "late friday evening",
]
# Shared pool for the two ambiguous slot types; fillers are i.i.d. sequences,
# so tokens deep inside a filler carry no word-level cue about the slot type.
CODEWORD_POOL = [
    "alpha", "bravo", "charlie", "echo", "foxtrot",
    "golf", "india", "juliet", "kilo", "lima",
]


def default_grammar() -> Grammar:
    slots = {
        "from-city": SlotSpec(class_name="city", phrases=CITY_PHRASES),
        "to-city": SlotSpec(class_name="city", phrases=CITY_PHRASES),
        "airline": SlotSpec(class_name="airline", phrases=AIRLINE_PHRASES),
        "date": SlotSpec(class_name="date", phrases=DATE_PHRASES),
        "conf-code": SlotSpec(pool=CODEWORD_POOL, min_len=5, max_len=8),
        "track-ref": SlotSpec(pool=CODEWORD_POOL, min_len=5, max_len=8),
    }
    # The code/reference trigger word appears on both sides of the filler,
    # so forward and backward passes can each pick up the slot type at the
    # span edge; interior tokens still need the label context.
    templates = [
        "i want a flight from {from-city} to {to-city} {date}",
        "show me {airline} flights from {from-city} to {to-city}",
        "please book a flight leaving {from-city} on {date}",
        "list all {airline} flights arriving in {to-city}",
        "my confirmation code is {conf-code} code received thank you",
        "my tracking reference is {track-ref} reference received thank you",
    ]
    return Grammar(slots=slots, templates=templates)


def generate_sentence(grammar: Grammar, rng) -> Sentence:
    template = grammar.templates[rng.integers(len(grammar.templates))]
    words, classes, labels = [], [], []
    for item in template.split():
        if item.startswith("{") and item.endswith("}"):
            name = item[1:-1]
            spec = grammar.slots[name]
            filler = spec.sample(rng)
            for i, token in enumerate(filler):
                words.append(token)
                classes.append(spec.class_name)
                labels.append(f"{name}-B" if i == 0 else f"{name}-I")
        else:
            words.append(item)
            classes.append(NO_CLASS)
            labels.append("O")
    return Sentence(words=words, classes=classes, labels=labels)


def generate_corpus(size: int, seed: int, grammar: Optional[Grammar] = None):
    """Return (train, dev, test) sentence lists; dev/test are size//10 (min 1)."""
    if size < 1:
        raise ConfigError(f"corpus size must be >= 1, got {size}")
    grammar = grammar or default_grammar()
    rng = new_rng(seed)
    held_out = max(1, size // 10)
    train = [generate_sentence(grammar, rng) for _ in range(size)]
    dev = [generate_sentence(grammar, rng) for _ in range(held_out)]
    test = [generate_sentence(grammar, rng) for _ in range(held_out)]
    return train, dev, test


def generate_corpus_files(out_dir, size: int, seed: int, grammar: Optional[Grammar] = None):
    """Write train.txt / dev.txt / test.txt under out_dir; returns the paths."""
    import os

    train, dev, test = generate_corpus(size, seed, grammar)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, sentences in (("train", train), ("dev", dev), ("test", test)):
        path = os.path.join(out_dir, f"{name}.txt")
        write_column_file(sentences, path)
        paths[name] = path
    return paths
