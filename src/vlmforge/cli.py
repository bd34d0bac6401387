"""vlmforge command line: corpus, pack, train, diag, eval, fixture.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
The default seed comes from VLMFORGE_SEED when set.

`train run` stacks its ModelConfig from the ModelConfig defaults (with a
preset's projector), the `--config` JSON (a full or partial ModelConfig
object), the model flags and `--seed`, later ones winning. A `--plan` JSON
lists StageSpec objects, whose absent optional keys take their defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import diagnostics, evaluation, fixtures, manifest, packing, trainer
from .errors import NumericError, VlmforgeError
from .model import PROJECTORS, Model, ModelConfig, fields_from_json
from .packing import ByteTokenizer


class Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _default_seed() -> int:
    return int(os.environ.get("VLMFORGE_SEED", "0"))


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=_default_seed(),
                        help="run seed (default: $VLMFORGE_SEED or 0)")


# ModelConfig fields with a flag of their own; each flag's dest is the field name
MODEL_FLAGS = ("resolution", "patch", "vision_dim", "model_dim", "ffn_dim",
               "vision_layers", "llm_layers", "heads", "max_positions", "projector")


def _add_model_flags(parser):
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON ModelConfig object, partial allowed; flags override it")
    parser.add_argument("--res", dest="resolution", metavar="RES", type=int, default=None,
                        help="image resolution")
    parser.add_argument("--patch", type=int, default=None, help="patch size")
    parser.add_argument("--vision-dim", type=int, default=None)
    parser.add_argument("--model-dim", type=int, default=None)
    parser.add_argument("--ffn-dim", type=int, default=None)
    parser.add_argument("--vision-layers", type=int, default=None)
    parser.add_argument("--llm-layers", type=int, default=None)
    parser.add_argument("--heads", type=int, default=None)
    parser.add_argument("--max-positions", type=int, default=None)
    parser.add_argument("--projector", choices=sorted(PROJECTORS), default=None)


def _model_config(args, projector=None) -> ModelConfig:
    """Stack `projector` (a preset's), the --config JSON, the model flags and
    --seed over the ModelConfig defaults, later layers winning."""
    fields = {} if projector is None else {"projector": dataclasses.asdict(projector)}
    if args.config is not None:
        with open(args.config) as fh:
            fields.update(fields_from_json(ModelConfig, json.load(fh)))
    fields.update({name: getattr(args, name) for name in MODEL_FLAGS
                   if getattr(args, name) is not None})
    fields["seed"] = args.seed
    return ModelConfig.from_json(fields)


# ---------------------------------------------------------------------------
# corpus subcommands


def cmd_corpus_stats(args) -> int:
    tok = ByteTokenizer()
    stream = corpus_mod.parse_corpus(args.path, args.format, strict=args.strict)
    stats = corpus_mod.compute_stats(stream, tok)
    print(json.dumps(stats.as_dict(), indent=2))
    return 0


def _write_jsonl(records, path, to_json):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(to_json(record), sort_keys=True) + "\n")


def cmd_corpus_to_pairs(args) -> int:
    docs = corpus_mod.parse_corpus(args.input, "interleaved-jsonl", strict=args.strict)
    pairs = [p for doc in docs for p in corpus_mod.to_pairs(doc, args.policy)]
    _write_jsonl(pairs, args.output, corpus_mod.pair_to_json)
    manifest.write_manifest(args.output, "corpus to-pairs",
                            {"policy": args.policy}, args.seed,
                            [args.input], [args.output])
    print(f"wrote {len(pairs)} pairs to {args.output}")
    return 0


def cmd_corpus_reformat(args) -> int:
    docs = corpus_mod.parse_corpus(args.input, "interleaved-jsonl", strict=args.strict)
    reordered = [corpus_mod.reformat_images_first(doc) for doc in docs]
    _write_jsonl(reordered, args.output, corpus_mod.document_to_json)
    manifest.write_manifest(args.output, "corpus reformat", {}, args.seed,
                            [args.input], [args.output])
    print(f"wrote {len(reordered)} documents to {args.output}")
    return 0


def cmd_corpus_topk(args) -> int:
    pairs = corpus_mod.parse_corpus(args.input, "pairs-jsonl", strict=args.strict)
    kept = corpus_mod.subsample_topk(pairs, args.k)
    _write_jsonl(kept, args.output, corpus_mod.pair_to_json)
    manifest.write_manifest(args.output, "corpus topk", {"k": args.k}, args.seed,
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
    tok = ByteTokenizer()
    slot = packing.tokens_per_image(args.res, args.patch, args.downsample)
    stream = corpus_mod.parse_corpus(args.docs, args.format, strict=args.strict)
    if args.format == "pairs-jsonl":
        docs = (corpus_mod.pair_as_document(p) for p in stream)
    else:
        docs = stream

    def samples():
        for doc in docs:
            yield from packing.pack_document(doc, tok, slot, args.max_len)

    cfg_hash = packing.config_hash(args.res, args.patch, args.downsample)
    count = packing.write_shard(samples(), args.out_shard, tok.vocab_hash(), cfg_hash)
    manifest.write_manifest(
        args.out_shard, "pack run",
        {"max_len": args.max_len, "res": args.res, "patch": args.patch,
         "downsample": args.downsample},
        args.seed, [args.docs], [args.out_shard])
    print(f"packed {count} samples into {args.out_shard}")
    return 0


# ---------------------------------------------------------------------------
# train


def _plan_from_json(path) -> trainer.StagePlan:
    """{"stages": [StageSpec objects]}; `policy` lists the trainable groups."""
    with open(path) as fh:
        obj = json.load(fh)
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


def _write_output(path: Path, text: str) -> None:
    """Replace `path` with `text` atomically, as checkpoints are written."""
    with manifest.atomic_open(path) as fh:
        fh.write(text)


def cmd_train_run(args) -> int:
    if args.plan is None and args.preset is None:
        raise VlmforgeError("provide --preset or --plan")
    if args.eval_items < 1:
        raise VlmforgeError(f"--eval-items must be at least 1, not {args.eval_items}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

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
    corpora = trainer.RecipeCorpora(interleaved, pairs)

    if args.preset is not None:
        plan, projector = trainer.preset_plan(
            args.preset, steps=_parse_steps(args.steps), batch_size=args.batch_size)
    else:
        plan, projector = _plan_from_json(args.plan), None
    cfg = _model_config(args, projector)
    model = Model(cfg)

    def on_stage_end(stage_name: str, m: Model) -> None:
        m.save_checkpoint(out_dir / f"{stage_name}.ckpt")

    log = trainer.run_recipe(plan, model, corpora, args.seed,
                             on_stage_end=on_stage_end)
    model.save_checkpoint(out_dir / "final.ckpt")
    _write_output(out_dir / "runlog.csv", log.to_csv())

    # alignment profile on a probe batch from the training distribution
    tok = ByteTokenizer()
    probe_docs = (corpora.interleaved or
                  [corpus_mod.pair_as_document(p) for p in corpora.pairs])[:8]
    probe = [s for doc in probe_docs
             for s in packing.pack_document(doc, tok, cfg.slot_length, cfg.max_positions)]
    pixels = packing.bind_pixels(probe, cfg.resolution)
    profile = diagnostics.alignment_profile(model, probe, pixels)
    _write_output(out_dir / "align.csv", profile.to_csv())

    # a small candidate-rank eval derived from the caption pairs
    if corpora.pairs:
        eval_pairs = corpora.pairs[: args.eval_items]
        other = [p.caption for p in corpora.pairs[args.eval_items : 2 * args.eval_items]]
        items = [
            evaluation.EvalItem(
                item_id=f"eval-{i:04d}",
                prompt="Describe the image: ",
                answer=p.caption,
                image_id=p.image_id,
                candidates=[p.caption, other[i % len(other)]] if other else [p.caption],
            )
            for i, p in enumerate(eval_pairs)
        ]
        task = evaluation.EvalTask("caption-match", items, [], "candidate-rank")
        eval_pixels = {p.image_id: packing.pixels_for(p.image_id, cfg.resolution)
                       for p in eval_pairs}
        report = evaluation.run_eval(model, task, 0, args.seed, eval_pixels, tok)
        _write_output(out_dir / "eval.csv", report.to_csv())
        print(f"eval accuracy (0-shot, candidate-rank): {report.accuracy:.3f}")

    inputs = [p for p in (args.corpus_a, args.corpus_b) if p]
    manifest.write_manifest(
        out_dir / "runlog.csv", "train run",
        {"preset": args.preset, "steps": args.steps, "cfg": cfg.to_json()},
        args.seed, inputs,
        [str(out_dir / name) for name in ("final.ckpt", "runlog.csv", "align.csv")])
    print(f"final loss: {log.records[-1].loss:.4f}; artifacts in {out_dir}")
    return 0


def cmd_train_compare_loss(args) -> int:
    log_a = trainer.RunLog.from_csv(Path(args.log_a).read_text())
    log_b = trainer.RunLog.from_csv(Path(args.log_b).read_text())
    report = trainer.compare_loss_curves(log_a, log_b, final_window=args.final_window)
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
        manifest.write_manifest(args.out, "train compare-loss",
                                {"final_window": args.final_window}, args.seed,
                                [args.log_a, args.log_b], [args.out])
    return 0


# ---------------------------------------------------------------------------
# diag / eval


def cmd_diag_align(args) -> int:
    model = Model.load_checkpoint(args.ckpt)
    tok = ByteTokenizer()
    cfg_hash = packing.config_hash(model.cfg.resolution, model.cfg.patch,
                                   model.cfg.downsample)
    samples = []
    for sample in packing.read_shard(args.shard, tok.vocab_hash(), cfg_hash):
        samples.append(sample)
        if len(samples) >= args.max_samples:
            break
    pixels = packing.bind_pixels(samples, model.cfg.resolution)
    profile = diagnostics.alignment_profile(model, samples, pixels)
    Path(args.out).write_text(profile.to_csv())
    manifest.write_manifest(args.out, "diag align", {},
                            args.seed, [args.ckpt, args.shard], [args.out])
    print(f"wrote {len(profile.per_layer)}-layer profile to {args.out}")
    return 0


def cmd_eval_run(args) -> int:
    model = Model.load_checkpoint(args.ckpt)
    task = evaluation.load_task(args.task)
    tok = ByteTokenizer()
    image_ids = {i.image_id for i in task.items + task.demo_pool if i.image_id}
    pixels = {iid: packing.pixels_for(iid, model.cfg.resolution) for iid in image_ids}
    report = evaluation.run_eval(model, task, args.k, args.seed, pixels, tok)
    Path(args.out).write_text(report.to_csv())
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
    _add_seed(p)
    p.set_defaults(func=cmd_corpus_to_pairs)

    p = corpus_sub.add_parser("reformat", help="move all images before all text")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--strict", action="store_true")
    _add_seed(p)
    p.set_defaults(func=cmd_corpus_reformat)

    p = corpus_sub.add_parser("topk", help="keep the k highest-scoring pairs")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--strict", action="store_true")
    _add_seed(p)
    p.set_defaults(func=cmd_corpus_topk)

    pack_p = sub.add_parser("pack", help="pack corpora into binary shards")
    pack_sub = pack_p.add_subparsers(dest="subcommand", parser_class=Parser)
    p = pack_sub.add_parser("run", help="pack a corpus file into a shard")
    p.add_argument("docs")
    p.add_argument("out_shard")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--res", type=int, default=ModelConfig.resolution,
                   help="image resolution (default: ModelConfig's)")
    p.add_argument("--patch", type=int, default=ModelConfig.patch,
                   help="patch size (default: ModelConfig's)")
    p.add_argument("--downsample", type=int, choices=[1, 2], default=1)
    p.add_argument("--format", choices=["interleaved-jsonl", "pairs-jsonl"],
                   default="interleaved-jsonl")
    p.add_argument("--strict", action="store_true")
    _add_seed(p)
    p.set_defaults(func=cmd_pack_run)

    train_p = sub.add_parser("train", help="staged training")
    train_sub = train_p.add_subparsers(dest="subcommand", parser_class=Parser)
    p = train_sub.add_parser("run", help="run the three-stage recipe")
    p.add_argument("--plan", type=Path, default=None, help="stage plan JSON")
    p.add_argument("--preset", choices=["a", "b", "c", "d"], default=None)
    p.add_argument("--corpus-a", default=None, help="interleaved-jsonl corpus")
    p.add_argument("--corpus-b", default=None, help="pairs-jsonl corpus")
    p.add_argument("--out", required=True, help="checkpoint/report directory")
    p.add_argument("--steps", default="50,200,50",
                   help="per-stage step counts, comma separated")
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--eval-items", type=int, default=16)
    _add_model_flags(p)
    _add_seed(p)
    p.set_defaults(func=cmd_train_run)

    p = train_sub.add_parser("compare-loss", help="gap report between two run logs")
    p.add_argument("log_a")
    p.add_argument("log_b")
    p.add_argument("--final-window", type=int, default=100)
    p.add_argument("--out", default=None)
    _add_seed(p)
    p.set_defaults(func=cmd_train_compare_loss)

    diag_p = sub.add_parser("diag", help="diagnostics")
    diag_sub = diag_p.add_subparsers(dest="subcommand", parser_class=Parser)
    p = diag_sub.add_parser("align", help="cross-modal alignment profile")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--shard", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-samples", type=int, default=32)
    _add_seed(p)
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
    p.add_argument("--n-docs", type=int, default=100)
    p.add_argument("--images-per-doc", type=int, default=4)
    p.add_argument("--tokens-per-image", type=float, default=122.5)
    p.add_argument("--n-pairs", type=int, default=200)
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
    except (VlmforgeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
