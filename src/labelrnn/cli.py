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
from dataclasses import fields, replace

from . import __version__
from .corpus import (
    CHUNK_MODES,
    DEFAULT_CHUNK_MODE,
    LABEL_BOL_ID,
    WORD_BOS_ID,
    Sentence,
    Vocabulary,
    build_vocabulary,
    decode_labels,
    encode_all,
    load_column_file,
    open_output,
    read_text,
    require_inputs,
    write_column_file,
)
from .errors import ConfigError, DataError, LabelRnnError
from .mathcore import new_rng, xavier_init
from .metrics import evaluate
from .models import (
    CONFIG_FIELDS,
    DIR_BWD,
    DIR_FWD,
    VARIANT_IRNN,
    VARIANTS,
    decode_groups,
    load_model,
    require_pair,
    save_model,
    tag_batch,
)
from .pretrain import load_external_embeddings, save_embeddings, train_nnlm
from .synthetic import Grammar, generate_corpus_files
from .training import (TrainConfig, best_entry, require_training_data, train_bidirectional,
                       train_tagger, write_log)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _info(msg):
    print(msg, file=sys.stderr)


def _load_sentences(path, *readers, fields=(2, 3)):
    """load_column_file; a model or config that reads word classes needs the
    class column."""
    sentences = load_column_file(path, fields)
    try:
        require_inputs(sentences, *readers)
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
    # The flags go through the training config's checks before any file is read.
    config = TrainConfig(embed_size=args.embed_size, hidden_size=args.hidden_size,
                         lr0=args.lr0, nnlm_context=args.context, seed=args.seed)
    epochs_field = "epochs_nnlm_word" if args.target == "words" else "epochs_nnlm_label"
    if args.epochs is not None:
        setattr(config, epochs_field, args.epochs)
    config.validate()
    epochs = getattr(config, epochs_field)
    sentences = load_column_file(args.train)
    if not sentences:
        raise ConfigError(f"training file {args.train} is empty")
    vocab = build_vocabulary(sentences, lowercase=not args.no_lowercase)
    if args.target == "words":
        sequences = [[vocab.word_id(w) for w in s.words] for s in sentences]
        size, pad, id_to_token = vocab.n_words, WORD_BOS_ID, vocab.id_to_word
    else:
        sequences = [[vocab.label_id(l) for l in s.labels] for s in sentences]
        size, pad, id_to_token = vocab.n_labels, LABEL_BOL_ID, vocab.id_to_label
    table, losses = train_nnlm(
        sequences, size, pad, context=config.nnlm_context, embed_size=config.embed_size,
        hidden_size=config.hidden_size, epochs=epochs, lr0=config.lr0,
        rng=new_rng(config.seed),
    )
    save_embeddings(table, id_to_token, args.out)
    _info(f"{args.target} NNLM: {epochs} epochs, loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    _info(f"wrote embeddings to {args.out}")
    return 0


# -- train --------------------------------------------------------------------

def _resolve_config(args):
    """(config, named): the preset under --config, each --set, --use-classes,
    --use-chars and --seed in turn; and the values named in all but --seed."""
    named = TrainConfig.parse_kv(read_text(args.config)) if args.config else {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        named.update(TrainConfig.parse_kv(item, source=f"--set {item}"))
    named.update((name, True) for name in ("use_classes", "use_chars") if getattr(args, name))
    preset = TrainConfig.media_like() if args.preset == "media-like" else TrainConfig()
    config = replace(preset, **named)
    if args.seed is not None:
        config.seed = args.seed
    config.validate()
    return config, named


def _pair_structure(args, named, pair) -> dict:
    """The pair's structural config values, "<fwd>/<bwd>" where its models
    differ; ConfigError if --variant or a named value disagrees with either."""
    structures = []
    for model in pair:
        if args.variant not in (None, model.variant):
            raise ConfigError(f"--variant {args.variant} disagrees with the {model.direction} "
                              f"model of the pair, which is {model.variant}")
        all_inputs = model.use_classes and model.use_chars
        structure = {name: getattr(model, name) for name in CONFIG_FIELDS}
        structure["hidden_size_all_inputs" if all_inputs else "hidden_size"] = model.hidden_size
        for key, value in structure.items():
            if named.get(key, value) != value:
                raise ConfigError(f"{key}={named[key]} disagrees with the {model.direction} "
                                  f"model of the pair, which has {key}={value}")
        structures.append(structure)
    return {key: "/".join(dict.fromkeys(str(s[key]) for s in structures if key in s))
            for key in {key for structure in structures for key in structure}}


# Fine-tuning accepts these but never reads them: it loads the pair's
# vocabulary and does not sample labels. Its manifest leaves them out.
BIDIR_UNREAD = ("min_count", "lowercase", "predicted_label_prob")


def _write_manifest(path, config: TrainConfig, inputs: dict, unread):
    digests = {name: _sha256(p) for name, p in inputs.items()}
    payload = {
        "config": {f.name: str(getattr(config, f.name)) for f in fields(config)
                   if f.name not in unread},
        "seed": config.seed,
        "inputs": digests,
        "version": __version__,
    }
    payload["run_digest"] = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open_output(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load_init_table(path, token_to_id, rows, cols, seed):
    table = xavier_init(rows, cols, new_rng(seed))
    loaded = load_external_embeddings(path, token_to_id, table)
    _info(f"loaded {loaded} pretrained rows from {path}")
    return table


def _load_pair(args):
    """The models of --fwd-model and --bwd-model, checked to be a forward and
    a backward model over one vocabulary (models.require_pair)."""
    pair = load_model(args.fwd_model), load_model(args.bwd_model)
    require_pair(*pair, names=(f"--fwd-model {args.fwd_model}", f"--bwd-model {args.bwd_model}"))
    return pair


def cmd_train(args) -> int:
    bidir = args.direction == "bidir"
    # Fine-tuning reads a trained pair; fwd and bwd training read pretrained tables.
    ignored = ({"--word-emb": args.word_emb, "--label-emb": args.label_emb} if bidir
               else {"--fwd-model": args.fwd_model, "--bwd-model": args.bwd_model})
    unread = [flag for flag, path in ignored.items() if path]
    if unread:
        raise ConfigError(f"--direction {args.direction} does not read {' or '.join(unread)}")
    config, named = _resolve_config(args)
    recorded = config  # the manifest's config
    if bidir:
        if not args.fwd_model or not args.bwd_model:
            raise ConfigError("--direction bidir requires --fwd-model and --bwd-model")
        fwd, bwd = _load_pair(args)
        recorded = replace(config, **_pair_structure(args, named, (fwd, bwd)))
    readers = (fwd, bwd) if bidir else (config,)
    train_sents = _load_sentences(args.train, *readers)
    dev_sents = _load_sentences(args.dev, *readers) if args.dev else train_sents
    require_training_data(train_sents, dev_sents)
    if bidir:
        vocab = Vocabulary.load(args.fwd_model + ".vocab")
        if fwd.vocab_hash != vocab.hash():  # bwd's is fwd's (models.require_pair)
            raise ConfigError("component models disagree with the stored vocabulary")
    else:
        vocab = build_vocabulary(train_sents, min_count=config.min_count,
                                 lowercase=config.lowercase)
    inputs = {name: getattr(args, name) for name in
              ("train", "fwd_model", "bwd_model", "dev", "word_emb", "label_emb")
              if getattr(args, name)}
    _write_manifest(args.out + ".manifest.json", recorded, inputs,
                    BIDIR_UNREAD if bidir else ())
    train_seqs = encode_all(train_sents, vocab, *readers)
    dev_seqs = encode_all(dev_sents, vocab, *readers)

    if bidir:
        fwd2, bwd2, log = train_bidirectional(fwd, bwd, train_seqs, dev_seqs, vocab, config)
        save_model(fwd2, args.out + ".fwd")
        save_model(bwd2, args.out + ".bwd")
        vocab.save(args.out + ".vocab")
        write_log(log, args.out + ".log")
        _info(f"wrote bidirectional pair to {args.out}.fwd / {args.out}.bwd")
        return 0

    direction = DIR_FWD if args.direction == "fwd" else DIR_BWD
    init_w = init_l = None
    if args.word_emb:
        init_w = _load_init_table(args.word_emb, vocab.words, vocab.n_words,
                                  config.embed_size, config.seed + 1)
    if args.label_emb:
        init_l = _load_init_table(args.label_emb, vocab.labels, vocab.n_labels,
                                  config.embed_size, config.seed + 2)
    model, log = train_tagger(train_seqs, dev_seqs, vocab, config, args.variant or VARIANT_IRNN,
                              direction, init_word_emb=init_w, init_label_emb=init_l)
    save_model(model, args.out)
    vocab.save(args.out + ".vocab")
    write_log(log, args.out + ".log")
    best = best_entry(log, config.dev_metric)
    with open_output(args.out + ".summary") as fh:
        fh.write(f"best_epoch={best.epoch}\nbest_dev_acc={best.dev_acc:.4f}\n"
                 f"best_dev_f1={best.dev_f1:.4f}\nfinal_train_loss={log[-1].train_loss:.6f}\n")
    _info(f"wrote model to {args.out} (best dev acc {best.dev_acc:.2f}%)")
    return 0


# -- tag -----------------------------------------------------------------------

def cmd_tag(args) -> int:
    if args.model and (args.fwd_model or args.bwd_model):
        raise ConfigError("tag takes --model, or --fwd-model plus --bwd-model, not both")
    if args.model:
        models = [load_model(args.model)]
    elif args.fwd_model and args.bwd_model:
        models = _load_pair(args)
    else:
        raise ConfigError("tag requires --model, or --fwd-model plus --bwd-model")
    vocab = Vocabulary.load(args.vocab or (args.model or args.fwd_model) + ".vocab")
    vocab_hash = vocab.hash()
    if any(m.vocab_hash != vocab_hash for m in models):
        raise ConfigError("vocabulary hash mismatch between model and vocabulary file")

    # A label column is read but not used; words alone do when no model
    # reads classes.
    sentences = _load_sentences(args.input, *models, fields=(1, 2, 3))
    # The output is opened before any decoding. The whole input is decoded
    # in the decode_groups that tag_batch's greedy decoder forms over it. The
    # encoded sentences and the output distributions of only one group are
    # held at once; the labels of every sentence are kept and written in
    # input order after the last group.
    labels = [None] * len(sentences)
    with open_output(args.output) as out:
        for group in decode_groups(sentences):
            seqs = encode_all([sentences[i] for i in group], vocab, *models, with_labels=False)
            for i, decoded in zip(group, tag_batch(models, seqs)):
                labels[i] = decode_labels(decoded.labels, vocab)
        write_column_file([Sentence(words=sent.words, classes=sent.classes, labels=sent_labels)
                           for sent, sent_labels in zip(sentences, labels)], out)
    _info(f"tagged {len(sentences)} sentences into {args.output}")
    return 0


# -- eval ------------------------------------------------------------------------

def _check_words(gold, pred, path):
    """DataError at the first word of pred that is not gold's word at its
    place, in sentences that gold and pred number alike."""
    if len(gold) != len(pred):
        return
    for i, (g, p) in enumerate(zip(gold, pred)):
        if g.words != p.words:
            for j, (gw, pw) in enumerate(zip(g.words, p.words)):
                if gw != pw:
                    raise DataError(f"{path}: sentence {i}, token {j}: word mismatch, "
                                    f"{pw!r} where gold has {gw!r}")


def cmd_eval(args) -> int:
    gold, pred = load_column_file(args.gold), load_column_file(args.pred)
    _check_words(gold, pred, args.pred)
    report = evaluate([s.labels for s in gold], [s.labels for s in pred], mode=args.chunk_mode)
    print(report.to_text())
    if args.out:
        with open_output(args.out) as fh:
            fh.write(report.to_kv())
    return 0


# -- parser -------------------------------------------------------------------------

def _generate_options(p):
    p.add_argument("--out-dir", required=True)
    p.add_argument("--size", type=int, required=True, help="training sentences; dev/test get size/10")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--grammar", help="JSON grammar file (default: built-in flight grammar)")
    p.set_defaults(func=cmd_generate)


def _pretrain_options(p):
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


def _train_options(p):
    p.add_argument("--variant", choices=VARIANTS, help=f"default {VARIANT_IRNN}; bidir: the pair's")
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


def _tag_options(p):
    p.add_argument("--model")
    p.add_argument("--fwd-model")
    p.add_argument("--bwd-model")
    p.add_argument("--vocab", help="vocabulary file (default: <model>.vocab)")
    p.add_argument("--input", required=True,
                   help="column file: word, or word and label, or word, class and label")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_tag)


def _eval_options(p):
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--chunk-mode", choices=CHUNK_MODES, default=DEFAULT_CHUNK_MODE)
    p.add_argument("--out", help="also write a key=value report file")
    p.set_defaults(func=cmd_eval)


# Each subcommand's help text and the function that adds its options.
_SUBCOMMANDS = {
    "generate": ("write a synthetic slot-filling corpus", _generate_options),
    "pretrain": ("train an NNLM and export its embeddings", _pretrain_options),
    "train": ("train a tagger (fwd/bwd) or fine-tune a bidirectional pair", _train_options),
    "tag": ("label a column file with a trained model", _tag_options),
    "eval": ("score a predicted column file against gold", _eval_options),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, its subcommands' too, that reports a usage error as
    every other error: one "error: <message>" line on stderr, exit code 1."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser(only=None) -> argparse.ArgumentParser:
    """The parser of every subcommand. Given only, a subcommand name, it is
    the one subcommand added, under the usage name of all of them; given
    any other string, every subcommand is added without its options. Help,
    usage and errors read as the full parser's for any argv whose first
    item that is not an option is only."""
    parser = _Parser(
        prog="labelrnn",
        description="sequence-labeling taggers with label-embedding feedback",
    )
    chosen = only in _SUBCOMMANDS
    # The usage name argparse gives the full set; set only when it is not the
    # full set, as a metavar would also name the argument in a missing-command error.
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_SUBCOMMANDS) + "}" if chosen else None)
    for name, (text, add_options) in _SUBCOMMANDS.items():
        if not chosen or name == only:
            p = sub.add_parser(name, help=text)
            if only is None or name == only:
                add_options(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top level takes no option with a value, so the first item that is
    # not an option names the subcommand; only its options are built.
    chosen = next((item for item in argv if not item.startswith("-")), "")
    args = build_parser(only=chosen).parse_args(argv)
    try:
        return args.func(args)
    except (LabelRnnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
