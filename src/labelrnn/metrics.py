"""Chunk-level precision/recall/F1, Concept Error Rate, token accuracy and
the BIO invalid-continuation rate.

All metrics are computed over label strings, micro-averaged corpus-wide. A
predicted chunk counts as correct only when concept, start and end all match
a reference chunk.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from operator import eq

from .corpus import DEFAULT_CHUNK_MODE, chunk_spans
from .errors import DataError


@dataclass
class EvalReport:
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    cer: float = 0.0
    token_accuracy: float = 0.0
    invalid_rate: float = 0.0  # % of tokens that open a chunk with a continuation tag
    per_label: dict = field(default_factory=dict)  # label -> (correct, hyp, ref)

    def to_text(self) -> str:
        lines = [
            f"precision: {self.precision:6.2f}%",
            f"recall:    {self.recall:6.2f}%",
            f"F1:        {self.f1:6.2f}%",
            f"CER:       {self.cer:6.2f}%",
            f"token acc: {self.token_accuracy:6.2f}%",
            f"invalid:   {self.invalid_rate:6.2f}%",
        ]
        for label in sorted(self.per_label):
            c, h, r = self.per_label[label]
            lines.append(f"  {label}: correct={c} hypothesized={h} reference={r}")
        return "\n".join(lines)

    def to_kv(self) -> str:
        return (
            f"precision={self.precision:.4f}\nrecall={self.recall:.4f}\n"
            f"f1={self.f1:.4f}\ncer={self.cer:.4f}\n"
            f"token_accuracy={self.token_accuracy:.4f}\n"
            f"invalid_rate={self.invalid_rate:.4f}\n"
        )


def _check_lengths(gold_seqs, pred_seqs):
    if len(gold_seqs) != len(pred_seqs):
        raise DataError(
            f"sequence count mismatch: {len(gold_seqs)} gold vs {len(pred_seqs)} predicted"
        )
    for i, (g, p) in enumerate(zip(gold_seqs, pred_seqs)):
        if len(g) != len(p):
            raise DataError(f"sentence {i}: length mismatch {len(g)} vs {len(p)}")


def edit_distance(ref, hyp) -> int:
    """Minimum substitutions+insertions+deletions, unit costs."""
    n, m = len(ref), len(hyp)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            sub = prev[j - 1] + (ref[i - 1] != hyp[j - 1])
            cur[j] = min(sub, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[m]


def evaluate(gold_seqs, pred_seqs, mode: str = DEFAULT_CHUNK_MODE) -> EvalReport:
    """Chunk precision/recall/F1 with per-label counts, CER (WER-style over the
    aligned concept sequences), token accuracy and the invalid-continuation
    rate, from one pass that chunks each sentence once; a prediction equal to
    its gold is not chunked at all. The repair rule opens a chunk at each
    invalid 'X-I', so the rate counts chunks that start with a continuation."""
    _check_lengths(gold_seqs, pred_seqs)
    correct, hypothesized, reference = defaultdict(int), defaultdict(int), defaultdict(int)
    split = {}
    hits = total = errors = invalid = 0
    # chunk_spans splits a plain label as a continuation of its own concept.
    continuation = None if mode == "plain" else "I"
    for gold, pred in zip(gold_seqs, pred_seqs):
        gold_spans = chunk_spans(gold, mode, split)
        total += len(gold)
        for concept, _, _ in gold_spans:
            reference[concept] += 1
        if pred == gold:
            hits += len(gold)
            for concept, start, _ in gold_spans:
                hypothesized[concept] += 1
                correct[concept] += 1
                if split[gold[start]][1] == continuation:
                    invalid += 1
            continue
        pred_spans = chunk_spans(pred, mode, split)
        gold_set = set(gold_spans)
        for span in pred_spans:
            hypothesized[span[0]] += 1
            if span in gold_set:
                correct[span[0]] += 1
            if split[pred[span[1]]][1] == continuation:
                invalid += 1
        errors += edit_distance([span[0] for span in gold_spans],
                                [span[0] for span in pred_spans])
        hits += sum(map(eq, gold, pred))
    n_correct = sum(correct.values())
    n_hyp = sum(hypothesized.values())
    n_ref = sum(reference.values())
    precision = 100.0 * n_correct / n_hyp if n_hyp else 0.0
    recall = 100.0 * n_correct / n_ref if n_ref else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    per_label = {
        label: (correct[label], hypothesized[label], reference[label])
        for label in set(hypothesized) | set(reference)
    }
    return EvalReport(precision=precision, recall=recall, f1=f1,
                      cer=100.0 * errors / max(1, n_ref),
                      token_accuracy=100.0 * hits / total if total else 0.0,
                      invalid_rate=100.0 * invalid / total if total else 0.0,
                      per_label=per_label)
