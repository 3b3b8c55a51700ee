"""Shared fixtures: a tiny deterministic corpus and model builders."""

import pytest

from labelrnn.corpus import Sentence, build_vocabulary, encode
from labelrnn.mathcore import new_rng
from labelrnn.models import build_model
from labelrnn.training import TrainConfig


TINY_SENTENCES = [
    Sentence(
        words=["show", "flights", "from", "boston", "to", "denver"],
        classes=["-", "-", "-", "city", "-", "city"],
        labels=["O", "O", "O", "from-city-B", "O", "to-city-B"],
    ),
    Sentence(
        words=["book", "delta", "to", "new", "york", "city"],
        classes=["-", "airline", "-", "city", "city", "city"],
        labels=["O", "airline-B", "O", "to-city-B", "to-city-I", "to-city-I"],
    ),
    Sentence(
        words=["list", "flights", "on", "monday"],
        classes=["-", "-", "-", "date"],
        labels=["O", "O", "O", "date-B"],
    ),
]


@pytest.fixture(scope="session")
def tiny_vocab():
    return build_vocabulary(TINY_SENTENCES, min_count=1, lowercase=True)


@pytest.fixture(scope="session")
def tiny_seqs(tiny_vocab):
    return [encode(s, tiny_vocab) for s in TINY_SENTENCES]


@pytest.fixture
def small_model_factory(tiny_vocab):
    """Build a small model of any variant over the tiny vocabulary."""

    def factory(variant, direction="fwd", seed=0, **kwargs):
        sizes = dict(
            d_w=2, d_l=3, d_c=1, embed_size=6, hidden_size=10,
            first_level_size=7, char_embed_size=4, conv_size=5,
        )
        sizes.update(kwargs)
        # With classes and chars too, the hidden layer stays at hidden_size.
        config = TrainConfig(hidden_size_all_inputs=sizes["hidden_size"], **sizes)
        return build_model(variant, direction, tiny_vocab, new_rng(seed), config)

    return factory
