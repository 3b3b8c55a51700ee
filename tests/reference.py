"""The position-by-position tagger forward that the batched passes and the
lockstep decoder are tested against: one one-row stack per position, with
the GRU's hidden state carried from each position to the next."""

import numpy as np

from labelrnn.models import VARIANT_GRU, position_forward, predict_label


def reference_forward(model, oseq, history=None, masks=None):
    """Forward over an oriented sequence, one position at a time.

    The label context comes from history, or, when it is None, from the
    model's own greedy predictions, which makes the pass the reference for
    greedy decoding. masks is None (dropout off) or a make_position_masks
    dict with one row per position. Returns (predicted labels, dists with
    one row per position, per-position caches).
    """
    predicted, dists, caches, h_prev = [], [], [], None
    context = predicted if history is None else history
    for t in range(len(oseq)):
        row = None if masks is None else {key: rows[t : t + 1] for key, rows in masks.items()}
        y, cache = position_forward(model, oseq, np.array([t]), context, masks=row, h_prev=h_prev)
        if model.variant == VARIANT_GRU:
            h_prev = cache["h"][0]
        predicted.append(predict_label(y)[0])
        dists.append(y[0])
        caches.append(cache)
    return np.array(predicted, dtype=np.int64), np.array(dists), caches
