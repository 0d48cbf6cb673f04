"""Command-line entry point: init-model, pretrain, train, rerank, eval.

Every command is driven by a JSON config file validated closed-world
(unknown keys abort), so reruns with the same config and seed reproduce
their outputs byte for byte. Selected keys can be overridden by flags.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import json
import sys
from pathlib import Path

from .adapter import SEPARATOR_TEXT, check_params_fit, init_pspt_params, load_params, save_params
from .checkpoint import atomic_open, load_model, save_model
from .errors import (EXIT_OK, ArgumentParser, ConfigError, DataError, InputError, PsptError,
                     report_error)
from .evaluation import (
    RetrievalRun,
    RunEntry,
    evaluate,
    load_dataset,
    read_run_file,
    write_run_file,
)
from .model import MicroLM, ModelConfig, Vocabulary, continue_pretraining, holdout_split
from .scoring import (
    DEFAULT_UPR_PROMPT,
    Candidate,
    make_pspt_scorer,
    make_upr_scorer,
    rerank_with_scores,
)
from .synth import pack_sequences, pretraining_texts
from .training import TrainConfig, build_instances, train, write_train_log

# ModelConfig's architecture fields; vocab_size comes from the vocabulary
_ARCHITECTURE = {f.name: f.default for f in dataclasses.fields(ModelConfig)
                 if f.name != "vocab_size"}


def _default(fn, name: str):
    """The default of keyword `name` of `fn`, so that it is written once."""
    return inspect.signature(fn).parameters[name].default


DEFAULTS: dict = {
    "seed": 0,
    "model": {
        **_ARCHITECTURE,
        "vocab_cap": _default(Vocabulary.from_texts, "cap"),
        "pretrain_steps": 0,
        "pretrain_batch_size": _default(continue_pretraining, "batch_size"),
        "pretrain_lr": _default(continue_pretraining, "lr"),
        "pretrain_pack_len": 90,
    },
    # init_pspt_params's keywords, under their own names
    "adapter": {name: _default(init_pspt_params, name)
                for name in ("soft_prompt_len", "rank", "alpha", "hard_prompt")},
    "scoring": {
        "upr_prompt": DEFAULT_UPR_PROMPT,
        "upr_example_question": None,
        "upr_example_passage": None,
    },
    # seed is top-level
    "train": {f.name: f.default for f in dataclasses.fields(TrainConfig) if f.name != "seed"},
    "eval": {
        "k_list": [5, 10],
        "capped_recall": False,
        "baseline_tag": None,
    },
    "paths": {
        "dataset": None,
        "model_checkpoint": "model.ckpt",
        "params_checkpoint": "pspt.ckpt",
        "train_log": "train_log.jsonl",
        "output_dir": ".",
    },
}


def _fits(default, value) -> bool:
    """Whether a config value has its default's type. Numbers within float
    range pass for floats (JSON's NaN and Infinity and larger ints do not),
    ints within int64 range for ints, only bools pass for bools, a null
    default takes a string or null, and list elements must fit the
    default's first element."""
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(default, int):
        return isinstance(value, int) and -2**63 <= value < 2**63
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(d, v) for d in default[:1] for v in value)
    return isinstance(value, type(default))


def _merge(defaults: dict, overrides: dict, path: str = "") -> dict:
    merged = copy.deepcopy(defaults)
    unknown = []
    for key, value in overrides.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            unknown.append(where)
            continue
        if isinstance(defaults[key], dict) and defaults[key]:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be an object")
            merged[key] = _merge(defaults[key], value, where)
        elif _fits(defaults[key], value):
            merged[key] = value
        else:
            raise ConfigError(f"config key {where!r} must have the type of its default "
                              f"{defaults[key]!r}, got {value!r}")
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return merged


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULTS)
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    config = _merge(DEFAULTS, raw)
    if any("\0" in p for p in config["paths"].values() if p):
        raise ConfigError("config paths must not contain NUL characters")
    return config


def _require_dataset(config: dict, args=None):
    path = getattr(args, "dataset", None) or config["paths"]["dataset"]
    if not path:
        raise ConfigError("paths.dataset is required for this command")
    return load_dataset(path)


def _pretraining_corpus(dataset, model: MicroLM, config: dict) -> list[list[int]]:
    """Packed passage-then-question sequences over the model's whole position
    range; each text holds the separator, so none encodes to no token."""
    units = [model.vocab.encode(t) for t in pretraining_texts(dataset)]
    if not units:
        raise DataError("dataset has no relevant question-passage pairs to pretrain on")
    target = min(config["model"]["pretrain_pack_len"], model.config.max_seq_len)
    return pack_sequences(units, target_len=target, seed=config["seed"],
                          n_sequences=max(400, len(units)))


def _in_path(config: dict, key: str, override: str | None) -> Path:
    """`override`, else paths.<key> under paths.output_dir; creates nothing."""
    return Path(override or Path(config["paths"]["output_dir"]) / config["paths"][key])


def _out_path(config: dict, key: str, override: str | None) -> Path:
    """_in_path of a file about to be written, creating paths.output_dir
    if the file goes there."""
    if not override:
        Path(config["paths"]["output_dir"]).mkdir(parents=True, exist_ok=True)
    return _in_path(config, key, override)


def _pretrain_options(config: dict, steps: int) -> dict:
    """continue_pretraining's steps, batch_size and lr, checked together
    with the packing length before anything is read or written."""
    m = {**config["model"], "pretrain_steps": steps}
    for key, least in (("pretrain_steps", 0), ("pretrain_batch_size", 1), ("pretrain_pack_len", 1)):
        if m[key] < least:
            raise ConfigError(f"config key 'model.{key}' must be at least {least}, got {m[key]}")
    if m["pretrain_lr"] <= 0:
        raise ConfigError(f"config key 'model.pretrain_lr' must be positive, "
                          f"got {m['pretrain_lr']}")
    return {"steps": steps, "batch_size": m["pretrain_batch_size"], "lr": m["pretrain_lr"]}


def cmd_init_model(config: dict, args) -> int:
    m = config["model"]
    options = _pretrain_options(config, m["pretrain_steps"])
    dataset = _require_dataset(config, args)
    vocab = Vocabulary.from_texts(dataset.texts(), cap=m["vocab_cap"])
    model_config = ModelConfig(vocab_size=len(vocab), **{name: m[name] for name in _ARCHITECTURE})
    model = MicroLM.init(model_config, vocab, seed=config["seed"])
    # the adapter that `train` builds; one that cannot fit fails before pretraining
    theta = sum(t.size for t in init_pspt_params(model, **config["adapter"]).tensors().values())
    if m["pretrain_steps"] > 0:  # on the 90% train split; 0 steps needs no corpus
        train_split = holdout_split(_pretraining_corpus(dataset, model, config), config["seed"])[0]
        continue_pretraining(model, train_split, config["seed"], **options)
    out = _out_path(config, "model_checkpoint", args.out)
    save_model(model, out, meta={"seed": config["seed"], "pretrain_steps": m["pretrain_steps"]})
    frozen = model.param_count()
    print(f"frozen parameters: {frozen}")
    print(f"trainable parameters: {theta}")
    print(f"trainable fraction: {100.0 * theta / frozen:.6f}%")
    print(f"wrote model checkpoint to {out}")
    return EXIT_OK


def cmd_pretrain(config: dict, args) -> int:
    options = _pretrain_options(config, config["model"]["pretrain_steps"]
                                if args.steps is None else args.steps)
    dataset = _require_dataset(config, args)
    model = load_model(_in_path(config, "model_checkpoint", args.checkpoint))
    corpus = _pretraining_corpus(dataset, model, config)
    continue_pretraining(model, corpus, seed=config["seed"], **options)
    out = _out_path(config, "model_checkpoint", args.out)
    save_model(model, out, meta={"seed": config["seed"], "continued_steps": options["steps"]})
    print(f"wrote model checkpoint to {out}")
    return EXIT_OK


def cmd_train(config: dict, args) -> int:
    train_config = TrainConfig(**config["train"], seed=config["seed"])  # checked before any read
    dataset = _require_dataset(config, args)
    model = load_model(_in_path(config, "model_checkpoint", args.checkpoint))
    params = init_pspt_params(model, **config["adapter"], seed=config["seed"])
    instances = build_instances(dataset, seed=config["seed"],
                                sample_size=train_config.train_sample_size, vocab=model.vocab)
    result = train(train_config, instances, model, params)
    out = _out_path(config, "params_checkpoint", args.out)
    save_params(result.params, out)
    log_path = _out_path(config, "train_log", args.log)
    write_train_log(result.log, log_path)
    dev = "n/a" if result.best_dev_loss is None else f"{result.best_dev_loss:.6f}"
    print(f"trained {result.steps} steps; best epoch {result.best_epoch} (dev loss {dev})")
    print(f"wrote adapter checkpoint to {out}")
    print(f"wrote training log to {log_path}")
    return EXIT_OK


def _build_scorer(config: dict, args, model):
    prompt = config["scoring"]["upr_prompt"]
    if args.scorer == "pspt":
        params = load_params(_in_path(config, "params_checkpoint", args.params))
        check_params_fit(params, model)
        return make_pspt_scorer(model, params)
    if args.scorer == "upr_inst":
        ex_q = config["scoring"]["upr_example_question"]
        ex_d = config["scoring"]["upr_example_passage"]
        if not (ex_q and ex_q.strip() and ex_d and ex_d.strip()):
            raise ConfigError("scorer upr_inst needs a non-blank scoring.upr_example_question "
                              "and scoring.upr_example_passage")
        # UPR-Inst is UPR whose prompt ends with one in-context passage and question
        prompt = " ".join([prompt, ex_d, SEPARATOR_TEXT, ex_q])
    return make_upr_scorer(model, prompt_text=prompt)


def cmd_rerank(config: dict, args) -> int:
    dataset = _require_dataset(config, args)
    model = load_model(_in_path(config, "model_checkpoint", args.checkpoint))
    scorer = _build_scorer(config, args, model)
    run_in = read_run_file(args.run_in)
    queries: dict[str, list[RunEntry]] = {}
    for qid in sorted(run_in.queries):
        if qid not in dataset.by_id:
            raise InputError(f"run references unknown query id {qid!r}")
        question = dataset.by_id[qid]
        candidates = [
            Candidate(e.passage_id, dataset.passage_text(e.passage_id), e.rank, e.score)
            for e in run_in.queries[qid]
        ]
        ranked = rerank_with_scores(question.text, candidates, scorer)
        queries[qid] = [RunEntry(c.passage_id, i + 1, s) for i, (c, s) in enumerate(ranked)]
    out_run = RetrievalRun(args.scorer, queries)
    write_run_file(out_run, args.run_out)
    print(f"wrote reranked run ({args.scorer}) to {args.run_out}")
    return EXIT_OK


def cmd_eval(config: dict, args) -> int:
    dataset = _require_dataset(config, args)
    runs = [read_run_file(path) for path in args.runs]
    baseline = args.baseline_tag or config["eval"]["baseline_tag"]
    report = evaluate(runs, dataset, k_list=config["eval"]["k_list"],
                      baseline_tag=baseline, capped_recall=config["eval"]["capped_recall"])
    out_dir = Path(config["paths"]["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "report.json"
    text_path = out_dir / "report.txt"
    with atomic_open(json_path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(report.to_json_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    table = report.format_table()
    with atomic_open(text_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(table + "\n")
    print(table)
    print(f"wrote {json_path} and {text_path}")
    return EXIT_OK


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(prog="pspt", description="Soft-prompt passage reranking workflows")
    parser.add_argument("--config", help="JSON config file (defaults apply if omitted)")
    parser.add_argument("--seed", type=int, help="override config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--dataset", help="override paths.dataset for this command")
        return p

    p = subcommand("init-model", "build vocabulary, init/pretrain and save the model")
    p.add_argument("--out", help="model checkpoint path")

    p = subcommand("pretrain", "continue language-model pretraining")
    p.add_argument("--checkpoint", help="existing model checkpoint")
    p.add_argument("--steps", type=int, help="number of pretraining steps")
    p.add_argument("--out", help="output checkpoint path")

    p = subcommand("train", "train the soft prompt and adapter")
    p.add_argument("--checkpoint", help="model checkpoint path")
    p.add_argument("--out", help="adapter checkpoint path")
    p.add_argument("--log", help="training log path")

    p = subcommand("rerank", "rerank a retrieval run file")
    p.add_argument("--run-in", required=True)
    p.add_argument("--run-out", required=True)
    p.add_argument("--scorer", choices=["pspt", "upr", "upr_inst"], default="pspt")
    p.add_argument("--checkpoint", help="model checkpoint path")
    p.add_argument("--params", help="adapter checkpoint path")

    p = subcommand("eval", "score runs against the dataset judgments")
    p.add_argument("--run", dest="runs", action="append", required=True,
                   help="run file (repeatable)")
    p.add_argument("--baseline-tag", help="tag to test other runs against")
    return parser


COMMANDS = {
    "init-model": cmd_init_model,
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "rerank": cmd_rerank,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        if config["seed"] < 0:
            raise ConfigError(f"seed must be non-negative, got {config['seed']}")
        return COMMANDS[args.command](config, args)
    except (PsptError, OSError) as exc:
        return report_error(exc)


if __name__ == "__main__":
    raise SystemExit(main())
