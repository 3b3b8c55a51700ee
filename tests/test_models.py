import struct

import numpy as np
import pytest

from labelrnn.corpus import Sentence, build_vocabulary, encode
from labelrnn.errors import ConfigError, ModelIOError
from labelrnn.mathcore import new_rng
from labelrnn.models import (
    VARIANTS,
    build_model,
    combine_bidirectional,
    load_model,
    orient,
    predict_label,
    save_model,
    tag_bidirectional,
    tag_greedy,
)
from labelrnn.training import TrainConfig
from reference import l2_names


def test_unknown_variant_and_direction(tiny_vocab):
    with pytest.raises(ConfigError):
        build_model("no-such", "fwd", tiny_vocab, new_rng(0), TrainConfig())
    with pytest.raises(ConfigError):
        build_model("irnn", "sideways", tiny_vocab, new_rng(0), TrainConfig())


def test_default_config_builds_the_published_structure(tiny_vocab):
    model = build_model("irnn", "fwd", tiny_vocab, new_rng(0), TrainConfig())
    assert (model.d_w, model.d_l, model.d_c) == (5, 5, 0)
    assert (model.embed_size, model.hidden_size, model.first_level_size) == (200, 200, 200)
    assert (model.char_embed_size, model.conv_size) == (30, 50)
    assert not (model.use_classes or model.use_chars or model.ablate_label_context
                or model.gru_words_only)
    assert model.params["H"].shape == (200, 11 * 200 + 5 * 200)


def test_all_input_types_resolve_the_hidden_size_to_256(tiny_vocab):
    config = TrainConfig(use_classes=True, use_chars=True)
    model = build_model("irnn", "fwd", tiny_vocab, new_rng(0), config)
    assert model.hidden_size == 256
    assert model.params["H"].shape == (256, 2 * 11 * 200 + 5 * 200 + 50)
    assert model.params["W_conv"].shape == (50, 30)


def test_variant_parameter_sets(small_model_factory):
    irnn = small_model_factory("irnn")
    assert {"H", "b_h", "O", "b_o", "E_w", "E_l"} <= set(irnn.params)
    gru = small_model_factory("irnn-gru")
    assert {"W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_c"} <= set(gru.params)
    deep = small_model_factory("irnn-deep", use_classes=True, use_chars=True)
    assert {"F_w", "F_c", "F_l", "F_ch", "H2", "b_2"} <= set(deep.params)


def test_gru_words_only_restricts_input(small_model_factory):
    full = small_model_factory("irnn-gru")
    narrow = small_model_factory("irnn-gru", gru_words_only=True)
    assert [n for n, _ in narrow.input_pieces()] == ["w"]
    assert narrow.input_dim < full.input_dim


def test_l2_names_exclude_biases_and_embeddings(small_model_factory):
    model = small_model_factory("irnn-deep", use_chars=True)
    names = l2_names(model.store)
    assert all(not n.startswith(("E_", "b_", "Fb_")) for n in names)
    assert "H2" in names and "W_conv" in names


def test_output_distributions_are_normalized(small_model_factory, tiny_seqs):
    model = small_model_factory("irnn")
    out = tag_greedy(model, tiny_seqs[0])
    assert len(out.labels) == len(tiny_seqs[0])
    for dist in out.dists:
        assert abs(dist.sum() - 1.0) < 1e-9


def test_predict_label_never_returns_bol_index():
    y = np.array([[0.9, 0.05, 0.05]])  # even with mass on index 0
    assert predict_label(y)[0] != 0


def test_single_position_prediction_uses_bol_context(small_model_factory, tiny_vocab):
    model = small_model_factory("irnn")
    sent = Sentence(words=["flights"], classes=["-"], labels=["O"])
    seq = encode(sent, tiny_vocab)
    out = tag_greedy(model, seq)
    dist = out.dists[0]
    assert out.labels[0] == int(np.argmax(dist[1:])) + 1


def _forcing_model_and_vocab(direction="fwd"):
    """Hand-built 2-label machine: predicts B after BOL, I after anything else."""
    sents = [Sentence(words=["w", "w", "w"], labels=["B", "I", "I"])]
    vocab = build_vocabulary(sents)
    model = build_model("irnn", direction, vocab, new_rng(0),
                        TrainConfig(d_w=0, d_l=1, embed_size=3, hidden_size=3))
    p = model.params
    p["E_w"][:] = 0.0
    p["E_l"][:] = np.eye(3)[: vocab.n_labels]  # BOL, B, I one-hot rows
    p["H"][:] = 0.0
    p["H"][:, 3:] = np.eye(3)  # hidden state copies the label embedding
    p["b_h"][:] = 0.0
    p["O"][:] = np.array([[-10.0, -10.0, -10.0],
                          [10.0, -10.0, -10.0],
                          [-10.0, 10.0, 10.0]])
    p["b_o"][:] = 0.0
    return model, vocab


def test_hand_built_model_forces_b_then_i():
    model, vocab = _forcing_model_and_vocab()
    seq = encode(Sentence(words=["w", "w", "w"], labels=["B", "I", "I"]), vocab)
    out = tag_greedy(model, seq)
    assert list(out.labels) == [vocab.labels["B"], vocab.labels["I"], vocab.labels["I"]]


def test_backward_direction_mirrors_forward():
    fwd, vocab = _forcing_model_and_vocab("fwd")
    bwd, _ = _forcing_model_and_vocab("bwd")
    seq = encode(Sentence(words=["w", "w", "w"], labels=["B", "I", "I"]), vocab)
    out = tag_greedy(bwd, seq)
    # right-to-left processing emits B at the last position, I before it
    assert list(out.labels) == [vocab.labels["I"], vocab.labels["I"], vocab.labels["B"]]


def test_orient_reverses_all_columns(tiny_seqs):
    seq = tiny_seqs[0]
    rev = orient(seq, "bwd")
    assert list(rev.words) == list(seq.words[::-1])
    assert list(rev.labels) == list(seq.labels[::-1])
    assert [list(c) for c in rev.chars] == [list(c) for c in reversed(seq.chars)]
    assert orient(seq, "fwd") is seq


def test_label_context_is_live(small_model_factory, tiny_seqs):
    model = small_model_factory("irnn", seed=3)
    seq = tiny_seqs[1]
    before = tag_greedy(model, seq)
    first = int(before.labels[0])
    model.params["E_l"][first] += 0.5
    after = tag_greedy(model, seq)
    assert np.max(np.abs(after.dists[1] - before.dists[1])) > 1e-8


def test_deep_structural_equivalence(tiny_vocab, tiny_seqs):
    f = 5
    # Every tensor is written into its view: decoding gathers the windows
    # from the stacked table that E_w and E_l are row ranges of.
    deep = build_model("irnn-deep", "fwd", tiny_vocab, new_rng(5),
                       TrainConfig(d_w=1, d_l=2, embed_size=4, hidden_size=2 * f,
                                   first_level_size=f))
    deep.params["H2"][...] = np.eye(2 * f)
    deep.params["b_2"][...] = 0.0

    flat = build_model("irnn", "fwd", tiny_vocab, new_rng(6),
                       TrainConfig(d_w=1, d_l=2, embed_size=4, hidden_size=2 * f))
    word_dim = flat.word_input_dim
    flat.params["E_w"][...] = deep.params["E_w"]
    flat.params["E_l"][...] = deep.params["E_l"]
    flat.params["H"][...] = 0.0
    flat.params["H"][:f, :word_dim] = deep.params["F_w"]
    flat.params["H"][f:, word_dim:] = deep.params["F_l"]
    flat.params["b_h"][...] = np.concatenate([deep.params["Fb_w"], deep.params["Fb_l"]])
    flat.params["O"][...] = deep.params["O"]
    flat.params["b_o"][...] = deep.params["b_o"]

    for seq in tiny_seqs:
        a = tag_greedy(deep, seq)
        b = tag_greedy(flat, seq)
        assert np.array_equal(a.labels, b.labels)
        for da, db in zip(a.dists, b.dists):
            assert np.max(np.abs(da - db)) < 1e-12


# -- bidirectional combination --------------------------------------------------

def test_combine_idempotence():
    p = np.array([0.1, 0.6, 0.3])
    assert np.allclose(combine_bidirectional(p, p), p, atol=1e-15)


def test_combine_hand_arithmetic():
    out = combine_bidirectional(np.array([0.5, 0.5]), np.array([0.9, 0.1]))
    assert np.allclose(out, [0.75, 0.25], atol=1e-12)


def test_combine_zero_annihilates():
    out = combine_bidirectional(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert out[0] == 0.0


def test_combine_shape_mismatch():
    from labelrnn.errors import ShapeError

    with pytest.raises(ShapeError):
        combine_bidirectional(np.array([0.5, 0.5]), np.array([1.0]))


def test_tag_bidirectional_requires_proper_directions(small_model_factory, tiny_seqs):
    fwd = small_model_factory("irnn", "fwd")
    with pytest.raises(ConfigError):
        tag_bidirectional(fwd, fwd, tiny_seqs[0])


def test_tag_bidirectional_rejects_vocab_mismatch(small_model_factory, tiny_seqs):
    fwd = small_model_factory("irnn", "fwd")
    bwd = small_model_factory("irnn", "bwd")
    bwd.vocab_hash ^= 1
    with pytest.raises(ConfigError):
        tag_bidirectional(fwd, bwd, tiny_seqs[0])


def test_tag_bidirectional_combines_per_position(small_model_factory, tiny_seqs):
    fwd = small_model_factory("irnn", "fwd", seed=7)
    bwd = small_model_factory("irnn", "bwd", seed=8)
    seq = tiny_seqs[0]
    out = tag_bidirectional(fwd, bwd, seq)
    of = tag_greedy(fwd, seq)
    ob = tag_greedy(bwd, seq)
    for t in range(len(seq)):
        expected = combine_bidirectional(of.dists[t], ob.dists[t])
        assert np.allclose(out.dists[t], expected, atol=1e-15)


# -- model files -------------------------------------------------------------------

@pytest.mark.parametrize("variant", VARIANTS)
def test_save_load_round_trip(variant, small_model_factory, tmp_path):
    model = small_model_factory(variant, use_classes=True, use_chars=True, seed=9)
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.variant == model.variant and loaded.direction == model.direction
    assert loaded.vocab_hash == model.vocab_hash
    assert set(loaded.params) == set(model.params)
    for name, value in model.params.items():
        assert np.array_equal(loaded.params[name], value)


def test_loaded_model_tags_identically(small_model_factory, tiny_seqs, tmp_path):
    model = small_model_factory("irnn-deep", seed=10)
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path)
    a = tag_greedy(model, tiny_seqs[1])
    b = tag_greedy(loaded, tiny_seqs[1])
    assert np.array_equal(a.labels, b.labels)


def test_truncated_file_rejected(small_model_factory, tmp_path):
    model = small_model_factory("irnn")
    path = tmp_path / "m.bin"
    save_model(model, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ModelIOError):
        load_model(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ModelIOError):
        load_model(path)


def test_repeated_tensor_name_rejected(small_model_factory, tmp_path):
    model = small_model_factory("irnn")
    model.params["E_x"] = model.params["E_w"].copy()
    path = tmp_path / "m.bin"
    save_model(model, path)  # the table is sorted: E_l, E_w, E_x, ...; E_x becomes a second E_w
    path.write_bytes(path.read_bytes().replace(b"E_x", b"E_w", 1))
    with pytest.raises(ModelIOError, match="a tensor name is repeated"):
        load_model(path)


def test_a_header_that_runs_past_the_end_of_the_file_is_rejected(small_model_factory, tmp_path):
    """load_model reads the header field by field; a count that runs past
    the end of the file stops it before it reads or allocates that much."""
    model = small_model_factory("irnn")
    path = tmp_path / "m.bin"
    save_model(model, path)
    data = path.read_bytes()
    first_name = 8 + struct.calcsize("<BBBQ12I") + 4  # after magic, version, header, count
    name_len = struct.unpack_from("<H", data, first_name)[0]
    cases = {
        "name": data[: first_name] + struct.pack("<H", 60000) + data[first_name + 2 :],
        "ndim": (data[: first_name + 2 + name_len] + struct.pack("<I", 2 ** 32 - 1)
                 + data[first_name + 6 + name_len :]),
        "cut": data[: first_name + 3],
    }
    for case, bad in cases.items():
        path.write_bytes(bad)
        with pytest.raises(ModelIOError, match="ends within its header"):
            load_model(path)
