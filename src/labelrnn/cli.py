"""Command-line pipeline: generate, pretrain, train, tag, eval.

Diagnostics go to stderr; data goes to files or stdout. Every command is
deterministic given identical inputs and seed. A run manifest (resolved
config, seed, input digests) is written before training starts.
"""

import argparse
import hashlib
import json
import sys
import time

from . import __version__
from .corpus import (
    LABEL_BOL_ID,
    WORD_BOS_ID,
    Sentence,
    Vocabulary,
    build_vocabulary,
    decode_labels,
    encode,
    load_column_file,
    read_lines,
    require_classes,
    write_column_file,
)
from .errors import ConfigError, DataError, LabelRnnError
from .mathcore import new_rng, xavier_init
from .metrics import evaluate
from .models import (
    DECODE_GROUP,
    DIR_BWD,
    DIR_FWD,
    VARIANTS,
    load_model,
    save_model,
    tag_bidirectional_batch,
    tag_greedy_batch,
)
from .pretrain import load_external_embeddings, save_embeddings, train_nnlm
from .synthetic import Grammar, generate_corpus_files
from .training import TrainConfig, best_entry, train_bidirectional, train_tagger, write_log


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _info(msg):
    print(msg, file=sys.stderr)


def _load_sentences(path, *readers):
    """load_column_file; a model or config that reads word classes needs the
    class column."""
    sentences = load_column_file(path)
    try:
        require_classes(sentences, *readers)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return sentences


# -- generate ----------------------------------------------------------------

def cmd_generate(args) -> int:
    grammar = Grammar.from_json(args.grammar) if args.grammar else None
    paths = generate_corpus_files(args.out_dir, args.size, args.seed, grammar)
    for name, path in paths.items():
        _info(f"wrote {name} split to {path}")
    return 0


# -- pretrain ------------------------------------------------------------------

def cmd_pretrain(args) -> int:
    sentences = load_column_file(args.train)
    if not sentences:
        raise ConfigError(f"training file {args.train} is empty")
    vocab = build_vocabulary(sentences, lowercase=not args.no_lowercase)
    if args.target == "words":
        sequences = [[vocab.word_id(w) for w in s.words] for s in sentences]
        size, pad, id_to_token = vocab.n_words, WORD_BOS_ID, vocab.id_to_word
        default_epochs = TrainConfig.epochs_nnlm_word
    else:
        sequences = [[vocab.label_id(l) for l in s.labels] for s in sentences]
        size, pad, id_to_token = vocab.n_labels, LABEL_BOL_ID, vocab.id_to_label
        default_epochs = TrainConfig.epochs_nnlm_label
    epochs = args.epochs if args.epochs is not None else default_epochs
    table, losses = train_nnlm(
        sequences, size, pad, context=args.context, embed_size=args.embed_size,
        hidden_size=args.hidden_size, epochs=epochs, lr0=args.lr0,
        rng=new_rng(args.seed),
    )
    save_embeddings(table, id_to_token, args.out)
    _info(f"{args.target} NNLM: {epochs} epochs, loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    _info(f"wrote embeddings to {args.out}")
    return 0


# -- train --------------------------------------------------------------------

def _resolve_config(args) -> TrainConfig:
    if args.preset == "media-like":
        config = TrainConfig.media_like()
    else:
        config = TrainConfig.atis_like()
    if args.config:
        config = TrainConfig.from_kv("".join(read_lines(args.config)), base=config)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        config = TrainConfig.from_kv(item, base=config)
    if args.seed is not None:
        config.seed = args.seed
    if args.use_classes:
        config.use_classes = True
    if args.use_chars:
        config.use_chars = True
    config.validate()
    return config


def _write_manifest(path, config: TrainConfig, inputs: dict):
    digests = {name: _sha256(p) for name, p in inputs.items()}
    payload = {
        "config": {line.split("=", 1)[0]: line.split("=", 1)[1]
                   for line in config.to_kv().strip().splitlines()},
        "seed": config.seed,
        "inputs": digests,
        "version": __version__,
    }
    payload["run_digest"] = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load_init_table(path, token_to_id, rows, cols, seed):
    table = xavier_init(rows, cols, new_rng(seed))
    loaded = load_external_embeddings(path, token_to_id, table)
    _info(f"loaded {loaded} pretrained rows from {path}")
    return table


def cmd_train(args) -> int:
    config = _resolve_config(args)
    bidir = args.direction == "bidir"
    if bidir:
        if not args.fwd_model or not args.bwd_model:
            raise ConfigError("--direction bidir requires --fwd-model and --bwd-model")
        fwd = load_model(args.fwd_model)
        bwd = load_model(args.bwd_model)
    readers = (fwd, bwd) if bidir else (config,)
    train_sents = _load_sentences(args.train, *readers)
    dev_sents = _load_sentences(args.dev, *readers) if args.dev else train_sents

    if bidir:
        vocab = Vocabulary.load(args.fwd_model + ".vocab")
        if fwd.vocab_hash != vocab.hash() or bwd.vocab_hash != vocab.hash():
            raise ConfigError("component models disagree with the stored vocabulary")
        inputs = {"train": args.train, "fwd_model": args.fwd_model, "bwd_model": args.bwd_model}
        if args.dev:
            inputs["dev"] = args.dev
        _write_manifest(args.out + ".manifest.json", config, inputs)
        train_seqs = [encode(s, vocab) for s in train_sents]
        dev_seqs = [encode(s, vocab) for s in dev_sents]
        fwd2, bwd2, log = train_bidirectional(fwd, bwd, train_seqs, dev_seqs, vocab, config)
        save_model(fwd2, args.out + ".fwd")
        save_model(bwd2, args.out + ".bwd")
        vocab.save(args.out + ".vocab")
        write_log(log, args.out + ".log")
        _info(f"wrote bidirectional pair to {args.out}.fwd / {args.out}.bwd")
        return 0

    direction = DIR_FWD if args.direction == "fwd" else DIR_BWD
    vocab = build_vocabulary(train_sents, min_count=config.min_count,
                             lowercase=config.lowercase)
    inputs = {"train": args.train}
    if args.dev:
        inputs["dev"] = args.dev
    for name in ("word_emb", "label_emb"):
        if getattr(args, name):
            inputs[name] = getattr(args, name)
    _write_manifest(args.out + ".manifest.json", config, inputs)

    train_seqs = [encode(s, vocab) for s in train_sents]
    dev_seqs = [encode(s, vocab) for s in dev_sents]
    init_w = init_l = None
    if args.word_emb:
        init_w = _load_init_table(args.word_emb, vocab.words, vocab.n_words,
                                  config.embed_size, config.seed + 1)
    if args.label_emb:
        init_l = _load_init_table(args.label_emb, vocab.labels, vocab.n_labels,
                                  config.embed_size, config.seed + 2)
    model, log = train_tagger(train_seqs, dev_seqs, vocab, config, args.variant,
                              direction, init_word_emb=init_w, init_label_emb=init_l)
    save_model(model, args.out)
    vocab.save(args.out + ".vocab")
    write_log(log, args.out + ".log")
    best = best_entry(log, config.dev_metric)
    with open(args.out + ".summary", "w", encoding="utf-8") as fh:
        fh.write(f"best_epoch={best.epoch}\nbest_dev_acc={best.dev_acc:.4f}\n"
                 f"best_dev_f1={best.dev_f1:.4f}\nfinal_train_loss={log[-1].train_loss:.6f}\n")
    _info(f"wrote model to {args.out} (best dev acc {best.dev_acc:.2f}%)")
    return 0


# -- tag -----------------------------------------------------------------------

def cmd_tag(args) -> int:
    if args.model:
        paths = [args.model]
    elif args.fwd_model and args.bwd_model:
        paths = [args.fwd_model, args.bwd_model]
    else:
        raise ConfigError("tag requires --model, or --fwd-model plus --bwd-model")
    models = [load_model(path) for path in paths]
    vocab = Vocabulary.load(args.vocab or paths[0] + ".vocab")
    if any(m.vocab_hash != vocab.hash() for m in models):
        raise ConfigError("vocabulary hash mismatch between model and vocabulary file")
    tagger = tag_greedy_batch if len(models) == 1 else tag_bidirectional_batch

    sentences = _load_sentences(args.input, *models)
    # The output is opened before any decoding, and written one decoding
    # group at a time, so that the encoded sentences and the output
    # distributions of only one group are held at once.
    with open(args.output, "w", encoding="utf-8") as out:
        for start in range(0, len(sentences), DECODE_GROUP):
            chunk = sentences[start : start + DECODE_GROUP]
            decoded = tagger(*models, [encode(sent, vocab, with_labels=False) for sent in chunk])
            write_column_file([Sentence(words=sent.words, classes=sent.classes,
                                        labels=decode_labels(d.labels, vocab))
                               for sent, d in zip(chunk, decoded)], out)
    _info(f"tagged {len(sentences)} sentences into {args.output}")
    return 0


# -- eval ------------------------------------------------------------------------

def cmd_eval(args) -> int:
    gold = [s.labels for s in load_column_file(args.gold)]
    pred = [s.labels for s in load_column_file(args.pred)]
    report = evaluate(gold, pred, mode=args.chunk_mode)
    print(report.to_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_kv())
    return 0


# -- parser -------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelrnn",
        description="sequence-labeling taggers with label-embedding feedback",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic slot-filling corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--size", type=int, required=True, help="training sentences; dev/test get size/10")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--grammar", help="JSON grammar file (default: built-in flight grammar)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("pretrain", help="train an NNLM and export its embeddings")
    p.add_argument("--train", required=True)
    p.add_argument("--target", choices=("words", "labels"), required=True)
    p.add_argument("--epochs", type=int, default=None,
                   help=f"default {TrainConfig.epochs_nnlm_word} for words, "
                        f"{TrainConfig.epochs_nnlm_label} for labels")
    p.add_argument("--out", required=True)
    p.add_argument("--context", type=int, default=TrainConfig.nnlm_context)
    p.add_argument("--embed-size", type=int, default=TrainConfig.embed_size)
    p.add_argument("--hidden-size", type=int, default=TrainConfig.hidden_size)
    p.add_argument("--lr0", type=float, default=TrainConfig.lr0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-lowercase", action="store_true")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="train a tagger (fwd/bwd) or fine-tune a bidirectional pair")
    p.add_argument("--variant", choices=VARIANTS, default="irnn")
    p.add_argument("--direction", choices=("fwd", "bwd", "bidir"), default="fwd")
    p.add_argument("--train", required=True)
    p.add_argument("--dev")
    p.add_argument("--config", help="key=value config file (flags override)")
    p.add_argument("--preset", choices=("atis-like", "media-like"), default="atis-like")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config field")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--use-classes", action="store_true")
    p.add_argument("--use-chars", action="store_true")
    p.add_argument("--word-emb", help="pretrained word embeddings (text format)")
    p.add_argument("--label-emb", help="pretrained label embeddings (text format)")
    p.add_argument("--fwd-model", help="bidir: trained forward model")
    p.add_argument("--bwd-model", help="bidir: trained backward model")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="label a column file with a trained model")
    p.add_argument("--model")
    p.add_argument("--fwd-model")
    p.add_argument("--bwd-model")
    p.add_argument("--vocab", help="vocabulary file (default: <model>.vocab)")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="score a predicted column file against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--chunk-mode", choices=("bio-suffix", "bio-prefix", "plain"),
                   default="bio-suffix")
    p.add_argument("--out", help="also write a key=value report file")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LabelRnnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
