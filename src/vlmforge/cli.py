"""vlmforge command line: corpus, pack, train, diag, eval, fixture.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Only the commands that draw random numbers (`train run`, `eval run`,
`fixture`) take `--seed`, whose default comes from VLMFORGE_SEED when set.

The model's shape comes from one place, the `--config` JSON (a full or
partial ModelConfig object): `train run` lays it over the ModelConfig
defaults with a preset's projector, then sets the seed from `--seed`, and
`pack run` packs with its slot length, max_positions and image geometry. A
`--plan` JSON lists StageSpec objects, whose absent optional keys take
their defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import itertools
import json
import os
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import diagnostics, evaluation, fixtures, manifest, packing, trainer
from .errors import NumericError, VlmforgeError
from .model import Model, ModelConfig, fields_from_json
from .packing import ByteTokenizer


class Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_seed(parser):
    # argparse converts a string default with `type`, so a bad VLMFORGE_SEED
    # is a usage error of the seeded commands only
    parser.add_argument("--seed", type=int, default=os.environ.get("VLMFORGE_SEED", "0"),
                        help="run seed (default: $VLMFORGE_SEED or 0)")


def _add_config(parser):
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON ModelConfig object, partial allowed (default: ModelConfig's)")


def _read_json(path):
    """The JSON value of file `path`; a file that is not JSON raises
    VlmforgeError naming it."""
    text = manifest.read_utf8(path)
    try:
        return manifest.parse_json(text)
    except VlmforgeError as exc:
        raise VlmforgeError(f"{path}: {exc}") from None


def _model_config(args, projector=None) -> ModelConfig:
    """The --config JSON over `projector` (a preset's) and the ModelConfig
    defaults, with --seed over all on a command that takes one."""
    fields = {} if projector is None else {"projector": dataclasses.asdict(projector)}
    if args.config is not None:
        fields.update(fields_from_json(ModelConfig, _read_json(args.config)))
    if "seed" in args:
        fields["seed"] = args.seed
    return ModelConfig.from_json(fields)


def _shard_hash(cfg: ModelConfig) -> bytes:
    """The config hash of shards packed for, and read by, a `cfg` model."""
    return packing.config_hash(cfg.resolution, cfg.patch, cfg.downsample)


# ---------------------------------------------------------------------------
# corpus subcommands


def cmd_corpus_stats(args) -> int:
    tok = ByteTokenizer()
    stream = corpus_mod.parse_corpus(args.path, args.format, strict=args.strict)
    stats = corpus_mod.compute_stats(stream, tok)
    print(json.dumps(stats.as_dict(), indent=2))
    return 0


def _write_jsonl(records, path, to_json):
    with manifest.atomic_open(path) as fh:
        for record in records:
            fh.write(json.dumps(to_json(record), sort_keys=True) + "\n")


def cmd_corpus_to_pairs(args) -> int:
    docs = corpus_mod.parse_corpus(args.input, "interleaved-jsonl", strict=args.strict)
    pairs = [p for doc in docs for p in corpus_mod.to_pairs(doc, args.policy)]
    _write_jsonl(pairs, args.output, corpus_mod.pair_to_json)
    manifest.write_manifest(args.output, "corpus to-pairs",
                            {"policy": args.policy}, None,
                            [args.input], [args.output])
    print(f"wrote {len(pairs)} pairs to {args.output}")
    return 0


def cmd_corpus_reformat(args) -> int:
    docs = corpus_mod.parse_corpus(args.input, "interleaved-jsonl", strict=args.strict)
    reordered = [corpus_mod.reformat_images_first(doc) for doc in docs]
    _write_jsonl(reordered, args.output, corpus_mod.document_to_json)
    manifest.write_manifest(args.output, "corpus reformat", {}, None,
                            [args.input], [args.output])
    print(f"wrote {len(reordered)} documents to {args.output}")
    return 0


def cmd_corpus_topk(args) -> int:
    if args.k < 0:
        raise VlmforgeError(f"-k must be at least 0, not {args.k}")
    pairs = corpus_mod.parse_corpus(args.input, "pairs-jsonl", strict=args.strict)
    kept = corpus_mod.subsample_topk(pairs, args.k)
    _write_jsonl(kept, args.output, corpus_mod.pair_to_json)
    manifest.write_manifest(args.output, "corpus topk", {"k": args.k}, None,
                            [args.input], [args.output])
    print(f"kept top {len(kept)} pairs in {args.output}")
    return 0


def cmd_fixture(args) -> int:
    spec = fixtures.FixtureSpec(
        n_docs=args.n_docs,
        images_per_doc=args.images_per_doc,
        tokens_per_image=args.tokens_per_image,
        n_pairs=args.n_pairs,
        seed=args.seed,
    )
    paths = fixtures.fixture_gen(spec, args.out_dir)
    manifest.write_manifest(paths["interleaved"], "fixture",
                            vars(spec).copy(),
                            args.seed, [], [str(p) for p in paths.values()])
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


# ---------------------------------------------------------------------------
# pack


def cmd_pack_run(args) -> int:
    cfg = _model_config(args)
    tok = ByteTokenizer()
    docs = corpus_mod.parse_corpus(args.docs, args.format, strict=args.strict)
    if args.format == "pairs-jsonl":
        docs = map(corpus_mod.pair_as_document, docs)
    samples = (sample for doc in docs for sample in
               packing.pack_document(doc, tok, cfg.slot_length, cfg.max_positions))
    count = packing.write_shard(samples, args.out_shard, tok.vocab_hash(), _shard_hash(cfg))
    manifest.write_manifest(args.out_shard, "pack run", cfg.to_json(), None,
                            [args.docs], [args.out_shard])
    print(f"packed {count} samples into {args.out_shard}")
    return 0


# ---------------------------------------------------------------------------
# train


def _plan_from_json(path) -> trainer.StagePlan:
    """{"stages": [StageSpec objects]}; `policy` lists the trainable groups."""
    obj = _read_json(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("stages"), list):
        raise VlmforgeError(f"{path}: a plan is a JSON object with a list of stages")
    stages = []
    for entry in obj["stages"]:
        fields = fields_from_json(trainer.StageSpec, entry)
        policy = fields["policy"]
        if not isinstance(policy, list) or not all(isinstance(g, str) for g in policy):
            raise VlmforgeError(f"{path}: a stage's policy must be a list of group names, "
                                f"not {policy!r}")
        fields["policy"] = trainer.FreezePolicy(frozenset(policy))
        stages.append(trainer.StageSpec(**fields))
    return trainer.StagePlan(stages)


def _parse_steps(text: str) -> tuple[int, int, int]:
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 3:
        raise VlmforgeError(f"--steps expects three comma-separated integers, not {text!r}")
    return tuple(parts)  # type: ignore[return-value]


def _write_output(path, text: str) -> None:
    """Replace `path` with `text` atomically, as checkpoints are written."""
    with manifest.atomic_open(path) as fh:
        fh.write(text)


def cmd_train_run(args) -> int:
    if args.plan is None and args.preset is None:
        raise VlmforgeError("provide --preset or --plan")
    if args.eval_items < 1:
        raise VlmforgeError(f"--eval-items must be at least 1, not {args.eval_items}")

    interleaved = (
        list(corpus_mod.parse_corpus(args.corpus_a, "interleaved-jsonl", strict=True))
        if args.corpus_a else []
    )
    pairs = (
        list(corpus_mod.parse_corpus(args.corpus_b, "pairs-jsonl", strict=True))
        if args.corpus_b else []
    )
    if not interleaved and not pairs:
        raise VlmforgeError("at least one of --corpus-a / --corpus-b is required")
    if pairs and args.eval_items >= len(pairs):
        # the pairs past the eval items supply its distractor captions
        raise VlmforgeError(f"--eval-items {args.eval_items} leaves no distractors: it must "
                            f"be below the {len(pairs)} caption pairs")
    corpora = trainer.RecipeCorpora(interleaved, pairs)

    if args.preset is not None:
        plan, projector = trainer.preset_plan(
            args.preset, steps=_parse_steps(args.steps), batch_size=args.batch_size)
    else:
        plan, projector = _plan_from_json(args.plan), None
    cfg = _model_config(args, projector)
    model = Model(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    written = []  # every file this run writes, in order

    def on_stage_end(stage_name: str, m: Model) -> None:
        written.append(out_dir / f"{stage_name}.ckpt")
        m.save_checkpoint(written[-1])

    log = trainer.run_recipe(plan, model, corpora, args.seed,
                             on_stage_end=on_stage_end)
    written.append(out_dir / "final.ckpt")
    model.save_checkpoint(written[-1])
    written.append(out_dir / "runlog.csv")
    _write_output(written[-1], log.to_csv())

    # alignment profile on a probe batch from the training distribution
    tok = ByteTokenizer()
    probe_docs = (corpora.interleaved or
                  [corpus_mod.pair_as_document(p) for p in corpora.pairs])[:8]
    probe = [s for doc in probe_docs
             for s in packing.pack_document(doc, tok, cfg.slot_length, cfg.max_positions)]
    pixels = packing.bind_pixels(probe, cfg.resolution)
    profile = diagnostics.alignment_profile(model, probe, pixels)
    written.append(out_dir / "align.csv")
    _write_output(written[-1], profile.to_csv())

    # a small candidate-rank eval derived from the caption pairs
    if corpora.pairs:
        eval_pairs = corpora.pairs[: args.eval_items]
        other = [p.caption for p in corpora.pairs[args.eval_items : 2 * args.eval_items]]
        items = [
            evaluation.EvalItem(
                item_id=f"eval-{i:04d}",
                prompt=trainer.CAPTION_PROMPT,
                answer=p.caption,
                image_id=p.image_id,
                candidates=[p.caption, other[i % len(other)]],
            )
            for i, p in enumerate(eval_pairs)
        ]
        task = evaluation.EvalTask("caption-match", items, [], "candidate-rank")
        report = evaluation.run_eval(model, task, 0, args.seed)
        written.append(out_dir / "eval.csv")
        _write_output(written[-1], report.to_csv())
        print(f"eval accuracy (0-shot, candidate-rank): {report.accuracy:.3f}")

    inputs = [p for p in (args.corpus_a, args.corpus_b) if p]
    manifest.write_manifest(
        out_dir / "runlog.csv", "train run",
        {"preset": args.preset, "steps": args.steps, "cfg": cfg.to_json()},
        args.seed, inputs, [str(path) for path in written])
    print(f"final loss: {log.records[-1].loss:.4f}; artifacts in {out_dir}")
    return 0


def _read_runlog(path) -> trainer.RunLog:
    text = manifest.read_utf8(path)
    try:
        return trainer.RunLog.from_csv(text)
    except VlmforgeError as exc:
        raise VlmforgeError(f"{path}:{exc}") from None


def cmd_train_compare_loss(args) -> int:
    log_a, log_b = _read_runlog(args.log_a), _read_runlog(args.log_b)
    report = trainer.compare_loss_curves(log_a, log_b, final_window=args.final_window)
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        _write_output(args.out, text + "\n")
        manifest.write_manifest(args.out, "train compare-loss",
                                {"final_window": args.final_window}, None,
                                [args.log_a, args.log_b], [args.out])
    return 0


# ---------------------------------------------------------------------------
# diag / eval


def cmd_diag_align(args) -> int:
    if args.max_samples < 1:
        raise VlmforgeError(f"--max-samples must be at least 1, not {args.max_samples}")
    model = Model.load_checkpoint(args.ckpt)
    tok = ByteTokenizer()
    shard = packing.read_shard(args.shard, tok.vocab_hash(), _shard_hash(model.cfg))
    samples = list(itertools.islice(shard, args.max_samples))
    pixels = packing.bind_pixels(samples, model.cfg.resolution)
    profile = diagnostics.alignment_profile(model, samples, pixels)
    _write_output(args.out, profile.to_csv())
    manifest.write_manifest(args.out, "diag align", {},
                            None, [args.ckpt, args.shard], [args.out])
    print(f"wrote {len(profile.per_layer)}-layer profile to {args.out}")
    return 0


def cmd_eval_run(args) -> int:
    model = Model.load_checkpoint(args.ckpt)
    task = evaluation.load_task(args.task)
    report = evaluation.run_eval(model, task, args.k, args.seed)
    _write_output(args.out, report.to_csv())
    manifest.write_manifest(args.out, "eval run", {"k": args.k, "task": task.name},
                            args.seed, [args.ckpt, args.task], [args.out])
    print(f"{task.name} @ {args.k}-shot accuracy: {report.accuracy:.3f}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> Parser:
    parser = Parser(prog="vlmforge",
                    description="Desk-scale visual-language pre-training pipeline.")
    sub = parser.add_subparsers(dest="command", metavar="{corpus,pack,train,diag,eval,fixture}",
                                parser_class=Parser)

    corpus_p = sub.add_parser("corpus", help="corpus transforms and statistics")
    corpus_sub = corpus_p.add_subparsers(dest="subcommand", parser_class=Parser)

    p = corpus_sub.add_parser("stats", help="corpus statistics")
    p.add_argument("path")
    p.add_argument("--format", choices=["interleaved-jsonl", "pairs-jsonl"],
                   default="interleaved-jsonl")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_corpus_stats)

    p = corpus_sub.add_parser("to-pairs", help="break documents into image-text pairs")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--policy", choices=["best-sim", "adjacent-next"], default="best-sim")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_corpus_to_pairs)

    p = corpus_sub.add_parser("reformat", help="move all images before all text")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_corpus_reformat)

    p = corpus_sub.add_parser("topk", help="keep the k highest-scoring pairs")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_corpus_topk)

    pack_p = sub.add_parser("pack", help="pack corpora into binary shards")
    pack_sub = pack_p.add_subparsers(dest="subcommand", parser_class=Parser)
    p = pack_sub.add_parser("run", help="pack a corpus file into a shard")
    p.add_argument("docs")
    p.add_argument("out_shard")
    _add_config(p)
    p.add_argument("--format", choices=["interleaved-jsonl", "pairs-jsonl"],
                   default="interleaved-jsonl")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_pack_run)

    train_p = sub.add_parser("train", help="staged training")
    train_sub = train_p.add_subparsers(dest="subcommand", parser_class=Parser)
    p = train_sub.add_parser("run", help="run the three-stage recipe")
    p.add_argument("--plan", type=Path, default=None, help="stage plan JSON")
    p.add_argument("--preset", choices=["a", "b", "c", "d"], default=None)
    p.add_argument("--corpus-a", default=None, help="interleaved-jsonl corpus")
    p.add_argument("--corpus-b", default=None, help="pairs-jsonl corpus")
    p.add_argument("--out", required=True, help="checkpoint/report directory")
    p.add_argument("--steps", default=",".join(map(str, trainer.PRESET_STEPS)),
                   help="per-stage step counts, comma separated")
    p.add_argument("--batch-size", type=int, default=trainer.StageSpec.batch_size)
    p.add_argument("--eval-items", type=int, default=16)
    _add_config(p)
    _add_seed(p)
    p.set_defaults(func=cmd_train_run)

    p = train_sub.add_parser("compare-loss", help="gap report between two run logs")
    p.add_argument("log_a")
    p.add_argument("log_b")
    p.add_argument("--final-window", type=int, default=inspect.signature(
        trainer.compare_loss_curves).parameters["final_window"].default)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train_compare_loss)

    diag_p = sub.add_parser("diag", help="diagnostics")
    diag_sub = diag_p.add_subparsers(dest="subcommand", parser_class=Parser)
    p = diag_sub.add_parser("align", help="cross-modal alignment profile")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--shard", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-samples", type=int, default=32)
    p.set_defaults(func=cmd_diag_align)

    eval_p = sub.add_parser("eval", help="in-context evaluation")
    eval_sub = eval_p.add_subparsers(dest="subcommand", parser_class=Parser)
    p = eval_sub.add_parser("run", help="score a task file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("-k", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_seed(p)
    p.set_defaults(func=cmd_eval_run)

    p = sub.add_parser("fixture", help="generate synthetic corpora")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-docs", type=int, default=fixtures.FixtureSpec.n_docs)
    p.add_argument("--images-per-doc", type=int, default=fixtures.FixtureSpec.images_per_doc)
    p.add_argument("--tokens-per-image", type=float,
                   default=fixtures.FixtureSpec.tokens_per_image)
    p.add_argument("--n-pairs", type=int, default=fixtures.FixtureSpec.n_pairs)
    _add_seed(p)
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 0 if args.command is None else 1
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (VlmforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
