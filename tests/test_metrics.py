import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from labelrnn.corpus import CHUNK_MODES, chunk_spans
from labelrnn.errors import DataError
from labelrnn.metrics import edit_distance, evaluate
from reference import reference_chunks, reference_evaluate


# -- chunk F1 -----------------------------------------------------------------

def test_perfect_predictions():
    gold = [["X-B", "X-I", "O"], ["Y-B"]]
    report = evaluate(gold, gold)
    assert report.precision == report.recall == report.f1 == 100.0


def test_hand_counted_half_credit():
    # gold chunks {(A,0,1),(B,3,3)}, predicted {(A,0,1),(B,2,3)}
    gold = [["A-B", "A-I", "O", "B-B"]]
    pred = [["A-B", "A-I", "B-B", "B-I"]]
    report = evaluate(gold, pred)
    assert report.precision == 50.0
    assert report.recall == 50.0
    assert report.f1 == 50.0


def test_no_predicted_chunks():
    gold = [["X-B", "O"]]
    pred = [["O", "O"]]
    report = evaluate(gold, pred)
    assert report.precision == 0.0 and report.recall == 0.0 and report.f1 == 0.0


def test_per_label_counts():
    gold = [["A-B", "O", "B-B"]]
    pred = [["A-B", "O", "A-B"]]
    report = evaluate(gold, pred)
    assert report.per_label["A"] == (1, 2, 1)
    assert report.per_label["B"] == (0, 0, 1)


def test_f1_invariant_under_sentence_reordering():
    gold = [["A-B", "O"], ["B-B", "B-I"], ["O", "A-B"]]
    pred = [["A-B", "A-I"], ["B-B", "O"], ["O", "A-B"]]
    a = evaluate(gold, pred)
    b = evaluate(gold[::-1], pred[::-1])
    assert (a.precision, a.recall, a.f1) == (b.precision, b.recall, b.f1)


def test_length_mismatch_rejected():
    with pytest.raises(DataError):
        evaluate([["O"]], [["O"], ["O"]])
    with pytest.raises(DataError):
        evaluate([["O", "O"]], [["O"]])


# -- edit distance and CER ---------------------------------------------------------

def test_edit_distance_basics():
    assert edit_distance([], []) == 0
    assert edit_distance(["a"], []) == 1
    assert edit_distance(["a", "b", "c"], ["a", "x", "c"]) == 1
    assert edit_distance(["a", "b"], ["b", "a"]) == 2
    assert edit_distance(list("kitten"), list("sitting")) == 3


def test_edit_distance_symmetry_and_triangle():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(100):
        a, b, c = (list(rng.integers(3, size=rng.integers(0, 8))) for _ in range(3))
        assert edit_distance(a, b) == edit_distance(b, a)
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


def test_chunk_concepts_exclude_o():
    spans = chunk_spans(["O", "A-B", "A-I", "O", "B-B"], "bio-suffix")
    assert [concept for concept, _, _ in spans] == ["A", "B"]


def test_cer_identical():
    gold = [["A-B", "O", "B-B"]]
    assert evaluate(gold, gold).cer == 0.0


def test_cer_one_substitution_of_four():
    gold = [["A-B", "B-B", "C-B", "D-B"]]
    pred = [["A-B", "X-B", "C-B", "D-B"]]
    assert evaluate(gold, pred).cer == 25.0


def test_cer_all_deletions():
    gold = [["A-B", "B-B", "C-B", "D-B"]]
    pred = [["O", "O", "O", "O"]]
    assert evaluate(gold, pred).cer == 100.0


# -- token accuracy ---------------------------------------------------------------

def test_token_accuracy_values():
    gold = [["O"] * 10]
    assert evaluate(gold, gold).token_accuracy == 100.0
    pred = [["O"] * 9 + ["X-B"]]
    assert evaluate(gold, pred).token_accuracy == 90.0
    pred = [["X-B"] * 10]
    assert evaluate(gold, pred).token_accuracy == 0.0


# -- combined report ---------------------------------------------------------------

def test_evaluate_full_report():
    gold = [["A-B", "A-I", "O"]]
    pred = [["B-B", "O", "O"]]
    report = evaluate(gold, pred)
    assert report.f1 == 0.0  # wrong concept, wrong span
    assert report.cer == 100.0  # one substitution over one reference concept
    assert abs(report.token_accuracy - 100.0 / 3.0) < 1e-9
    text = report.to_text()
    assert "precision" in text and "CER" in text
    kv = dict(line.split("=") for line in report.to_kv().strip().splitlines())
    assert set(kv) == {"precision", "recall", "f1", "cer", "token_accuracy", "invalid_rate"}


def test_unknown_mode_rejected_for_all_o_sentences():
    with pytest.raises(DataError, match="unknown BIO mode 'bogus'"):
        evaluate([["O", "O"]], [["O", "O"]], mode="bogus")


# -- one pass against the three-pass reference ------------------------------------

# Concepts include "" and the tag letters, so that labels such as "-B", "B-I"
# and "I-B" are read by the mode's rule and not by their look.
CONCEPTS = ("A", "B", "I", "")
LABELS = {
    "bio-suffix": ["O"] + [f"{c}-{t}" for c in CONCEPTS for t in "BI"],
    "bio-prefix": ["O"] + [f"{t}-{c}" for c in CONCEPTS for t in "BI"],
    "plain": ["O", "A", "B", "A-B", "B-I", ""],
}
MALFORMED = ["A", "A-X", "B-", "", "o"]
PROPERTY = settings(max_examples=300, deadline=None)


@st.composite
def corpora(draw, labels):
    """(gold, pred): equally shaped label sequences, empty sentences and an
    empty corpus included. Each prediction is drawn at random, is a copy of
    its gold sentence, or differs from it at one position."""
    gold, pred = [], []
    for _ in range(draw(st.integers(0, 6))):
        g = draw(st.lists(labels, max_size=8))
        kind = draw(st.sampled_from(("random", "copy", "one change")))
        if kind == "random":
            p = draw(st.lists(labels, min_size=len(g), max_size=len(g)))
        else:
            p = list(g)
            if kind == "one change" and g:
                p[draw(st.integers(0, len(g) - 1))] = draw(labels)
        gold.append(g)
        pred.append(p)
    return gold, pred


def _outcome(score, *args):
    try:
        return score(*args)
    except DataError as exc:
        return f"DataError: {exc}"


@PROPERTY
@given(st.data())
def test_evaluate_equals_the_three_pass_reference(data):
    mode = data.draw(st.sampled_from(CHUNK_MODES))
    gold, pred = data.draw(corpora(st.sampled_from(LABELS[mode])))
    assert evaluate(gold, pred, mode) == reference_evaluate(gold, pred, mode)
    for labels in gold + pred:
        assert chunk_spans(labels, mode) == reference_chunks(labels, mode)


@PROPERTY
@given(st.data())
def test_evaluate_raises_the_reference_error_on_malformed_labels(data):
    mode = data.draw(st.sampled_from(("bio-suffix", "bio-prefix")))
    gold, pred = data.draw(corpora(st.sampled_from(LABELS[mode] + MALFORMED)))
    expected = _outcome(reference_evaluate, gold, pred, mode)
    assert _outcome(evaluate, gold, pred, mode) == expected
    for labels in gold + pred:
        assert (_outcome(chunk_spans, labels, mode)
                == _outcome(reference_chunks, labels, mode))


@PROPERTY
@given(st.data())
def test_evaluate_raises_the_reference_error_on_mismatched_shapes(data):
    mode = data.draw(st.sampled_from(CHUNK_MODES))
    labels = st.sampled_from(LABELS[mode] + MALFORMED)
    gold, pred = data.draw(corpora(labels))
    change = data.draw(st.sampled_from(("extra sentence", "missing sentence", "longer",
                                        "shorter")))
    if change == "extra sentence":
        pred.append(data.draw(st.lists(labels, max_size=3)))
    elif change == "missing sentence" and pred:
        pred.pop(data.draw(st.integers(0, len(pred) - 1)))
    elif change == "longer" and pred:
        pred[data.draw(st.integers(0, len(pred) - 1))].append(data.draw(labels))
    elif change == "shorter" and any(pred):
        data.draw(st.sampled_from([p for p in pred if p])).pop()
    assert _outcome(evaluate, gold, pred, mode) == _outcome(reference_evaluate, gold, pred, mode)
