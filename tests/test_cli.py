import argparse
import inspect
import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from conftest import save_task, write_raw_shard

from vlmforge import trainer
from vlmforge.cli import build_parser, main
from vlmforge.fixtures import FixtureSpec, fixture_gen
from vlmforge.model import Downsample, Model, ModelConfig, TransformerBlockProjector
from vlmforge.packing import ByteTokenizer, PackedSample, config_hash, pack_sft
from vlmforge.trainer import LogRecord, RunLog


@pytest.fixture()
def corpora(tmp_path):
    spec = FixtureSpec(n_docs=12, images_per_doc=2, tokens_per_image=16,
                       n_pairs=40, pair_caption_lengths=(10, 11), seed=1)
    return fixture_gen(spec, tmp_path / "fix")


def leaf_parsers(parser, name=""):
    """(command name, parser) for every command that runs."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield name, parser
    for action in subs:
        for word, sub in action.choices.items():
            yield from leaf_parsers(sub, f"{name} {word}".strip())


class TestParsing:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("corpus", "pack", "train", "diag", "eval", "fixture"):
            assert name in out

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_defaults_are_the_librarys(self):
        """Flags left out take the defaults of the library call they feed."""
        parser, spec = build_parser(), FixtureSpec()
        args = parser.parse_args(["fixture", "--out-dir", "x"])
        assert (args.n_docs, args.images_per_doc, args.tokens_per_image, args.n_pairs) \
            == (spec.n_docs, spec.images_per_doc, spec.tokens_per_image, spec.n_pairs)
        args = parser.parse_args(["train", "run", "--out", "x", "--preset", "c"])
        plan, _ = trainer.preset_plan("c")
        assert args.steps == ",".join(str(stage.steps) for stage in plan.stages)
        assert args.batch_size == trainer.StageSpec("s", trainer.ALL_TRAINABLE, 1, 1.0).batch_size
        assert {stage.batch_size for stage in plan.stages} == {args.batch_size}
        args = parser.parse_args(["train", "compare-loss", "a.csv", "b.csv"])
        default = inspect.signature(trainer.compare_loss_curves).parameters["final_window"]
        assert args.final_window == default.default

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["fixture"])  # --out-dir required
        assert exc.value.code == 1

    def test_each_setting_has_one_way_in(self):
        """48 arguments in all; --seed only where a seed is drawn, and the
        model's shape only from --config."""
        commands = dict(leaf_parsers(build_parser()))
        options = {name: {o for a in p._actions for o in a.option_strings or [a.dest]}
                   - {"-h", "--help"} for name, p in commands.items()}
        assert sum(map(len, options.values())) == 48
        assert {name for name, opts in options.items() if "--seed" in opts} \
            == {"train run", "eval run", "fixture"}
        assert options["pack run"] == {"docs", "out_shard", "--config", "--format", "--strict"}
        assert options["train run"] == {"--plan", "--preset", "--corpus-a", "--corpus-b",
                                        "--out", "--steps", "--batch-size", "--eval-items",
                                        "--config", "--seed"}

    def test_readme_commands_parse(self):
        """Every `vlmforge ...` line in the README's sh blocks is one the
        parser takes."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
        lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("vlmforge ")]
        assert len(lines) >= 10
        parser = build_parser()
        for line in lines:
            assert hasattr(parser.parse_args(shlex.split(line)[1:]), "func"), line


class TestCorpusCommands:
    def test_stats(self, corpora, capsys):
        assert main(["corpus", "stats", str(corpora["interleaved"])]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["num_docs"] == 12
        assert stats["images_per_sample"] == pytest.approx(2.0)

    def test_strict_malformed_line_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"doc_id": "ok", "segments": [{"text": "x"}]}\n{broken\n')
        rc = main(["corpus", "stats", str(bad), "--strict"])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["corpus", "stats", str(tmp_path / "nope.jsonl")]) == 2

    def test_non_utf8_line_skipped_or_exits_2(self, tmp_path, capsys):
        pairs = tmp_path / "p.jsonl"
        pairs.write_bytes(b'{"image_id": "a", "caption": "one", "clip_score": 0.5}\n'
                          b'{"image_id": "b", "caption": "tw\xff", "clip_score": 0.5}\n'
                          b'{"image_id": "c", "caption": "three", "clip_score": 0.5}\n')
        assert main(["corpus", "stats", str(pairs), "--format", "pairs-jsonl"]) == 0
        assert json.loads(capsys.readouterr().out)["num_docs"] == 2
        assert main(["corpus", "stats", str(pairs), "--format", "pairs-jsonl", "--strict"]) == 2
        assert f"{pairs}:line 2: byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt, bad", [
        ("interleaved-jsonl", {"doc_id": "b", "segments": [{"text": "h\ud800i"}]}),
        ("interleaved-jsonl", {"doc_id": "b", "segments": [{"image_id": "\udfff"},
                                                           {"text": "x"}]}),
        ("interleaved-jsonl", {"doc_id": "b\ud800", "segments": [{"text": "x"}]}),
        ("interleaved-jsonl", {"doc_id": "b", "segments": [{"text": "x"}],
                               "meta": {"k": ["\ud800"]}}),
        ("pairs-jsonl", {"image_id": "b", "caption": "tw\ud800", "clip_score": 0.5}),
        ("pairs-jsonl", {"image_id": "\ud800b", "caption": "two", "clip_score": 0.5}),
    ], ids=["text", "image-id", "doc-id", "meta", "caption", "pair-image-id"])
    def test_surrogate_escape_skipped_or_exits_2(self, tmp_path, capsys, caplog, fmt, bad):
        """A JSON escape of a lone surrogate, which no UTF-8 text holds, in
        any string of a record: the line is skipped with its number, and
        under --strict the command exits 2, with no traceback."""
        good = ([{"doc_id": d, "segments": [{"text": "ok"}]} for d in "ac"]
                if fmt == "interleaved-jsonl" else
                [{"image_id": i, "caption": "ok", "clip_score": 0.5} for i in "ac"])
        path = tmp_path / "escaped.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in (good[0], bad, good[1])))
        assert path.read_text().isascii()  # the escape, not the character: no byte is bad
        assert main(["corpus", "stats", str(path), "--format", fmt]) == 0
        assert json.loads(capsys.readouterr().out)["num_docs"] == 2
        [surrogate] = re.findall("[\ud800-\udfff]", json.dumps(bad, ensure_ascii=False))
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:line 2: skipped malformed record: a \\u escape gives the lone surrogate "
            f"{surrogate!r}, which is not UTF-8"]
        assert main(["corpus", "stats", str(path), "--format", fmt, "--strict"]) == 2
        err = capsys.readouterr().err
        assert f"{path}:line 2: a \\u escape gives the lone surrogate" in err
        assert "Traceback" not in err

    def test_pack_run_skips_or_refuses_a_surrogate_escape(self, tmp_path, capsys):
        """`pack run` packs the other lines of a corpus with a lone
        surrogate's escape in a text, and under --strict exits 2 and writes
        no shard."""
        docs = tmp_path / "docs.jsonl"
        docs.write_text("".join(json.dumps({"doc_id": d, "segments": [{"text": text}]}) + "\n"
                                for d, text in [("a", "one"), ("b", "h\ud800i"), ("c", "three")]))
        shard = tmp_path / "docs.shard"
        assert main(["pack", "run", str(docs), str(shard)]) == 0
        assert f"packed 2 samples into {shard}" in capsys.readouterr().out
        shard.unlink()
        assert main(["pack", "run", str(docs), str(shard), "--strict"]) == 2
        err = capsys.readouterr().err
        assert f"{docs}:line 2: a \\u escape gives the lone surrogate '\\ud800'" in err
        assert "Traceback" not in err and not shard.exists()

    def test_to_pairs_and_topk(self, corpora, tmp_path, capsys):
        pairs_out = tmp_path / "pairs.jsonl"
        rc = main(["corpus", "to-pairs", str(corpora["interleaved"]), str(pairs_out)])
        assert rc == 0
        assert len(pairs_out.read_text().splitlines()) == 24  # 12 docs x 2 images

        top_out = tmp_path / "top.jsonl"
        assert main(["corpus", "topk", str(pairs_out), str(top_out), "-k", "10"]) == 0
        assert len(top_out.read_text().splitlines()) == 10
        assert (tmp_path / "top.jsonl.manifest.json").exists()

    def test_reformat(self, corpora, tmp_path):
        out = tmp_path / "reformatted.jsonl"
        assert main(["corpus", "reformat", str(corpora["interleaved"]), str(out)]) == 0
        first = json.loads(out.read_text().splitlines()[0])
        kinds = ["image" if "image_id" in s else "text" for s in first["segments"]]
        assert kinds == sorted(kinds, key=lambda k: k != "image")

    def test_reformat_refuses_meta_that_is_not_an_object(self, tmp_path, capsys, caplog):
        """A document's meta is a JSON object or null: any other is skipped
        with its line number, and under --strict exits 2."""
        docs = tmp_path / "docs.jsonl"
        docs.write_text("".join(json.dumps({"doc_id": doc_id, "segments": [{"text": "x"}],
                                            "meta": meta}) + "\n"
                                for doc_id, meta in [("list", [1, 2]), ("text", "xy"),
                                                     ("object", {"k": 1}), ("null", None)]))
        out = tmp_path / "out.jsonl"
        assert main(["corpus", "reformat", str(docs), str(out)]) == 0
        assert [r.getMessage() for r in caplog.records] == [
            f"{docs}:line 1: skipped malformed record: 'meta' must be a JSON object, not [1, 2]",
            f"{docs}:line 2: skipped malformed record: 'meta' must be a JSON object, not 'xy'"]
        assert [json.loads(line)["doc_id"] for line in out.read_text().splitlines()] == [
            "object", "null"]
        assert main(["corpus", "reformat", str(docs), str(out), "--strict"]) == 2
        err = capsys.readouterr().err
        assert f"{docs}:line 1: 'meta' must be a JSON object, not [1, 2]" in err
        assert "Traceback" not in err

    def test_fixture_gen_both_spellings(self, tmp_path):
        flags = ["--out-dir", str(tmp_path / "fix"), "--n-docs", "4",
                 "--n-pairs", "4", "--tokens-per-image", "16"]
        assert main(["fixture"] + flags) == 0
        assert (tmp_path / "fix" / "interleaved.jsonl").exists()
        assert (tmp_path / "fix" / "pairs.jsonl").exists()
        # `fixture` is a top-level command only
        with pytest.raises(SystemExit) as exc:
            main(["corpus", "fixture"] + flags)
        assert exc.value.code == 1


class TestPipeline:
    def test_pack_diag_eval_roundtrip(self, corpora, tmp_path, capsys):
        shard = tmp_path / "docs.shard"
        rc = main(["pack", "run", str(corpora["interleaved"]), str(shard)])
        assert rc == 0
        assert shard.exists()
        assert (tmp_path / "docs.shard.manifest.json").exists()

        run_dir = tmp_path / "run"
        rc = main(["train", "run", "--preset", "a",
                   "--corpus-a", str(corpora["interleaved"]),
                   "--corpus-b", str(corpora["pairs"]),
                   "--out", str(run_dir), "--steps", "2,3,2",
                   "--batch-size", "4", "--seed", "3"])
        assert rc == 0
        for name in ("init-projector.ckpt", "pretrain.ckpt", "sft.ckpt",
                     "final.ckpt", "runlog.csv", "align.csv", "eval.csv",
                     "runlog.csv.manifest.json"):
            assert (run_dir / name).exists(), name
        assert len(RunLog.from_csv((run_dir / "runlog.csv").read_text()).records) == 7

        align_out = tmp_path / "align.csv"
        rc = main(["diag", "align", "--ckpt", str(run_dir / "final.ckpt"),
                   "--shard", str(shard), "--out", str(align_out)])
        assert rc == 0
        lines = align_out.read_text().strip().splitlines()
        assert lines[0] == "layer,chamfer_cos,n"
        assert len(lines) == 4  # embedding + 2 decoder layers, plus header

        task_path = tmp_path / "task.jsonl"
        pairs = [json.loads(l) for l in corpora["pairs"].read_text().splitlines()[:4]]
        with open(task_path, "w") as fh:
            fh.write(json.dumps({"name": "t", "metric": "candidate-rank"}) + "\n")
            for i, p in enumerate(pairs):
                fh.write(json.dumps({
                    "item_id": f"i{i}", "prompt": "cap: ", "answer": p["caption"],
                    "image_id": p["image_id"],
                    "candidates": [p["caption"], pairs[(i + 1) % 4]["caption"]],
                }) + "\n")
        eval_out = tmp_path / "eval.csv"
        rc = main(["eval", "run", "--ckpt", str(run_dir / "final.ckpt"),
                   "--task", str(task_path), "--out", str(eval_out)])
        assert rc == 0
        assert "accuracy" in capsys.readouterr().out
        assert eval_out.read_text().startswith("item_id,prediction,correct")

    def test_train_manifest_lists_every_output(self, corpora, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "run", "--preset", "c", "--corpus-a", str(corpora["interleaved"]),
                     "--corpus-b", str(corpora["pairs"]), "--out", str(out),
                     "--steps", "1,1,1", "--batch-size", "2", "--eval-items", "2"]) == 0
        manifest = out / "runlog.csv.manifest.json"
        outputs = json.loads(manifest.read_text())["outputs"]
        blas = json.loads(manifest.read_text())["blas"]
        assert blas.keys() == {"name", "version", "threads", "kernels"}
        assert set(blas["threads"].values()) <= {1}
        assert len(outputs) == len(set(outputs))
        assert set(outputs) == {str(p) for p in out.iterdir() if p != manifest}
        assert {p.name for p in out.iterdir()} >= {"init-projector.ckpt", "pretrain.ckpt",
                                                   "sft.ckpt", "eval.csv"}

    def test_train_rerun_reproduces_runlog(self, corpora, tmp_path):
        logs = []
        for name in ("r1", "r2"):
            rc = main(["train", "run", "--preset", "d",
                       "--corpus-a", str(corpora["interleaved"]),
                       "--corpus-b", str(corpora["pairs"]),
                       "--out", str(tmp_path / name), "--steps", "2,2,2",
                       "--batch-size", "4", "--seed", "11"])
            assert rc == 0
            logs.append((tmp_path / name / "runlog.csv").read_bytes())
        assert logs[0] == logs[1]

    def test_compare_loss(self, corpora, tmp_path, capsys):
        for name, seed in (("a", 1), ("b", 2)):
            main(["train", "run", "--preset", "d",
                  "--corpus-a", str(corpora["interleaved"]),
                  "--corpus-b", str(corpora["pairs"]),
                  "--out", str(tmp_path / name), "--steps", "2,2,2",
                  "--batch-size", "4", "--seed", str(seed)])
        capsys.readouterr()
        rc = main(["train", "compare-loss",
                   str(tmp_path / "a" / "runlog.csv"),
                   str(tmp_path / "b" / "runlog.csv"),
                   "--final-window", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["aligned_steps"] == 6

    def test_train_without_corpus_exits_2(self, tmp_path):
        rc = main(["train", "run", "--preset", "a", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_seed_env_default(self, corpora, tmp_path, monkeypatch):
        """The seeded commands take VLMFORGE_SEED; the others record no seed."""
        monkeypatch.setenv("VLMFORGE_SEED", "42")
        rc = main(["fixture", "--out-dir", str(tmp_path / "fix"), "--n-docs", "2",
                   "--n-pairs", "2"])
        assert rc == 0
        mani = json.loads((tmp_path / "fix" / "interleaved.jsonl.manifest.json").read_text())
        assert mani["seed"] == 42
        out = tmp_path / "p.jsonl"
        assert main(["corpus", "to-pairs", str(corpora["interleaved"]), str(out)]) == 0
        assert json.loads((tmp_path / "p.jsonl.manifest.json").read_text())["seed"] is None

    def test_bad_seed_env_stops_only_seeded_commands(self, corpora, tmp_path, monkeypatch,
                                                     capsys):
        monkeypatch.setenv("VLMFORGE_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["fixture", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 1
        assert "invalid int value: 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(["corpus", "stats", str(corpora["interleaved"])]) == 0


def test_eval_run_four_shot_exact_match(tmp_path, capsys):
    from vlmforge.evaluation import EvalItem, EvalTask

    cfg = ModelConfig(resolution=16, patch=8, vision_dim=16, model_dim=32, ffn_dim=64,
                      vision_layers=1, llm_layers=2, heads=2,
                      projector=TransformerBlockProjector(), max_positions=96, seed=0)
    ckpt = tmp_path / "m.ckpt"
    Model(cfg).save_checkpoint(ckpt)
    colors = ["red", "blue", "green", "gold"]
    items = [EvalItem(f"q{i}", "color: ", colors[i % 4], image_id=f"q-{i}") for i in range(3)]
    demos = [EvalItem(f"d{i}", "color: ", colors[i % 4], image_id=f"d-{i}") for i in range(6)]
    task_path = tmp_path / "em.jsonl"
    save_task(EvalTask("em", items, demos, metric="exact-match"), task_path)
    out = tmp_path / "eval.csv"
    rc = main(["eval", "run", "--ckpt", str(ckpt), "--task", str(task_path),
               "-k", "4", "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert len(out.read_text().strip().splitlines()) == 1 + len(items)


class TestModelConfigSources:
    """train run builds its ModelConfig from ModelConfig's defaults, a preset's
    projector, --config and --seed, later layers winning."""

    @staticmethod
    def run(corpora, out, *extra):
        rc = main(["train", "run", "--corpus-a", str(corpora["interleaved"]),
                   "--corpus-b", str(corpora["pairs"]), "--out", str(out),
                   "--steps", "1,1,1", "--batch-size", "2", "--eval-items", "2", *extra])
        assert rc == 0
        return Model.load_checkpoint(out / "final.ckpt").cfg

    @staticmethod
    def write_json(path, obj):
        path.write_text(json.dumps(obj))
        return str(path)

    def test_no_model_flags_give_model_config_defaults(self, corpora, tmp_path):
        plan = self.write_json(tmp_path / "plan.json", {"stages": [
            {"name": "pretrain", "policy": ["projector"], "steps": 1, "lr": 0.01}]})
        assert self.run(corpora, tmp_path / "d", "--preset", "d", "--seed", "4") \
            == ModelConfig(seed=4)
        assert self.run(corpora, tmp_path / "p", "--plan", plan, "--seed", "6") \
            == ModelConfig(seed=6)

    def test_config_projector_fields_kept(self, corpora, tmp_path):
        cfg = self.write_json(tmp_path / "t.json",
                              {"projector": {"kind": "transformer", "heads": 4}})
        got = self.run(corpora, tmp_path / "t", "--preset", "a", "--config", cfg)
        assert got.projector == TransformerBlockProjector(heads=4)
        cfg = self.write_json(tmp_path / "s.json",
                              {"projector": {"kind": "downsample", "factor": 1}})
        got = self.run(corpora, tmp_path / "s", "--preset", "d", "--config", cfg)
        assert got.projector == Downsample(factor=1)

    def test_seed_overrides_config(self, corpora, tmp_path):
        cfg = self.write_json(tmp_path / "c.json", {"model_dim": 48, "llm_layers": 1,
                                                    "projector": "linear", "seed": 9})
        got = self.run(corpora, tmp_path / "c", "--preset", "d", "--config", cfg,
                       "--seed", "2")
        assert got == ModelConfig(model_dim=48, llm_layers=1, seed=2)


class TestBadInputsExit2:
    @pytest.mark.parametrize("plan", [
        {"stages": [["pretrain", ["llm"], 1, 0.01]]},
        {"stages": [{"name": "pretrain", "policy": ["llm"], "steps": 1}]},
        {"stages": [{"name": "pretrain", "policy": ["llm"], "steps": 1, "lr": 0.01,
                     "epochs": 2}]},
        {"steps": 1},
        *({"stages": [{"name": "sft", "policy": ["llm"], "steps": 1, "lr": 0.01, key: value}]}
          for key, value in (("warmup", -5), ("text_only_fraction", 1.5),
                             ("lr", float("nan")), ("lr", -0.01))),
    ])
    def test_bad_plan(self, corpora, tmp_path, plan):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        rc = main(["train", "run", "--plan", str(path), "--corpus-b", str(corpora["pairs"]),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("cfg", [[1, 2], {"model_dims": 8}, {"projector": "conv"},
                                     {"projector": {"kind": "downsample", "heads": 2}}])
    def test_bad_config(self, corpora, tmp_path, cfg, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["train", "run", "--preset", "d", "--config", str(path),
                   "--corpus-b", str(corpora["pairs"]), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,obj,key,value", [
        ("--config", {"model_dim": "32"}, "model_dim", "'32'"),
        ("--plan", {"stages": [{"name": "pretrain", "policy": ["llm"], "steps": "x",
                                "lr": 0.01}]}, "steps", "'x'"),
        ("--plan", {"stages": [{"name": "pretrain", "policy": "llm", "steps": 1,
                                "lr": 0.01}]}, "policy", "'llm'"),
    ])
    def test_wrong_typed_value(self, corpora, tmp_path, capsys, flag, obj, key, value):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(obj))
        preset = ["--preset", "d"] if flag == "--config" else []
        rc = main(["train", "run", *preset, flag, str(path), "--corpus-b", str(corpora["pairs"]),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err and value in err  # names the key and the value as given

    def test_preset_without_caption_pairs(self, corpora, tmp_path, capsys):
        rc = main(["train", "run", "--preset", "c", "--corpus-a", str(corpora["interleaved"]),
                   "--out", str(tmp_path / "o"), "--steps", "1,1,1"])
        assert rc == 2
        assert "caption pairs" in capsys.readouterr().err

    def test_task_item_without_answer(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        Model(ModelConfig()).save_checkpoint(ckpt)
        task = tmp_path / "task.jsonl"
        task.write_text(json.dumps({"name": "t", "metric": "candidate-rank"}) + "\n"
                        + json.dumps({"item_id": "i0", "prompt": "p: "}) + "\n")
        rc = main(["eval", "run", "--ckpt", str(ckpt), "--task", str(task),
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        assert "answer" in capsys.readouterr().err

    @pytest.mark.parametrize("candidates", ["red", ["red", 3], [], ["red", ""]])
    def test_task_item_with_bad_candidates(self, tmp_path, capsys, candidates):
        ckpt = tmp_path / "m.ckpt"
        Model(ModelConfig()).save_checkpoint(ckpt)
        task = tmp_path / "task.jsonl"
        task.write_text(json.dumps({"name": "t", "metric": "candidate-rank"}) + "\n"
                        + json.dumps({"item_id": "i0", "prompt": "p: ", "answer": "red",
                                      "candidates": candidates}) + "\n")
        rc = main(["eval", "run", "--ckpt", str(ckpt), "--task", str(task),
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        assert "'candidates'" in capsys.readouterr().err

    def test_candidate_past_max_positions(self, tmp_path, capsys):
        from vlmforge.evaluation import EvalItem, EvalTask

        cfg = ModelConfig(resolution=16, patch=8, vision_dim=16, model_dim=32, ffn_dim=64,
                          vision_layers=1, llm_layers=2, heads=2,
                          projector=TransformerBlockProjector(), max_positions=96, seed=0)
        ckpt = tmp_path / "m.ckpt"
        Model(cfg).save_checkpoint(ckpt)
        items = [EvalItem("q0", "color: ", "red", image_id="q-0", candidates=["red", "y" * 40])]
        demos = [EvalItem(f"d{i}", "color: ", "blue", image_id=f"d-{i}") for i in range(4)]
        task = tmp_path / "rank.jsonl"
        save_task(EvalTask("rank", items, demos, metric="candidate-rank"), task)
        rc = main(["eval", "run", "--ckpt", str(ckpt), "--task", str(task),
                   "-k", "4", "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        assert "max_positions" in capsys.readouterr().err

    def test_truncated_checkpoint(self, corpora, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        Model(ModelConfig()).save_checkpoint(ckpt)
        ckpt.write_bytes(ckpt.read_bytes()[:300])
        rc = main(["diag", "align", "--ckpt", str(ckpt), "--shard", str(tmp_path / "none"),
                   "--out", str(tmp_path / "a.csv")])
        assert rc == 2
        assert "truncated" in capsys.readouterr().err


def write_rank_task(tmp_path):
    task = tmp_path / "task.jsonl"
    task.write_text(json.dumps({"name": "t", "metric": "candidate-rank"}) + "\n"
                    + json.dumps({"item_id": "i0", "prompt": "p: ", "answer": "red",
                                  "candidates": ["red", "blue"]}) + "\n")
    return task


class TestBadCheckpointsExit2:
    """eval run refuses a corrupt checkpoint with exit 2, naming the file."""

    @pytest.mark.parametrize("corrupt", [
        lambda d: d[:16] + b"\xff" + d[17:],  # the config's first byte
        lambda d: d[:-1],
        lambda d: d + b"\x00",
        lambda d: d[:8] + (1).to_bytes(4, "little") + d[12:],
    ], ids=["non-utf8-config", "one-byte-short", "one-byte-long", "version-1"])
    def test_corrupt_checkpoint(self, tmp_path, capsys, corrupt):
        ckpt = tmp_path / "m.ckpt"
        Model(ModelConfig()).save_checkpoint(ckpt)
        ckpt.write_bytes(corrupt(ckpt.read_bytes()))
        task = write_rank_task(tmp_path)
        rc = main(["eval", "run", "--ckpt", str(ckpt), "--task", str(task),
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        assert str(ckpt) in capsys.readouterr().err


class TestBadCountsExit2:
    @pytest.mark.parametrize("steps", ["x,y,z", "0,0,0"])
    def test_bad_steps(self, corpora, tmp_path, capsys, steps):
        rc = main(["train", "run", "--preset", "d", "--corpus-b", str(corpora["pairs"]),
                   "--out", str(tmp_path / "o"), "--steps", steps])
        assert rc == 2
        assert "steps" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("heads", 0), ("model_dim", -4)])
    def test_model_size_below_one(self, corpora, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        rc = main(["train", "run", "--preset", "d", "--corpus-b", str(corpora["pairs"]),
                   "--out", str(tmp_path / "o"), "--steps", "1,1,1", "--config", str(cfg)])
        assert rc == 2
        assert f"must be at least 1, not {value}" in capsys.readouterr().err

    # each past the 128 TiB address space, so the allocation fails at once
    @pytest.mark.parametrize("key,value", [("vocab_size", 10**12), ("max_positions", 10**12),
                                           ("vocab_size", 10**20)],
                             ids=["vocab-233-TiB", "positions-233-TiB", "vocab-past-numpy"])
    def test_model_too_large_to_allocate(self, corpora, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        rc = main(["train", "run", "--preset", "d", "--corpus-b", str(corpora["pairs"]),
                   "--out", str(tmp_path / "o"), "--steps", "1,1,1", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        count = re.search(r"the config's ([\d,]+) parameters cannot be allocated", err)
        assert count and int(count[1].replace(",", "")) > value, err
        assert "Traceback" not in err

    def test_checkpoint_config_with_zero_heads(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        Model(ModelConfig()).save_checkpoint(ckpt)
        data = ckpt.read_bytes()
        assert data.count(b'"heads": 2') == 1
        ckpt.write_bytes(data.replace(b'"heads": 2', b'"heads": 0'))
        rc = main(["eval", "run", "--ckpt", str(ckpt), "--task", str(write_rank_task(tmp_path)),
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "heads must be at least 1, not 0" in err

    @pytest.mark.parametrize("items", ["0", "-1"])
    def test_eval_items_below_one(self, corpora, tmp_path, capsys, items):
        rc = main(["train", "run", "--preset", "d", "--corpus-b", str(corpora["pairs"]),
                   "--out", str(tmp_path / "o"), "--steps", "1,1,1", "--eval-items", items])
        assert rc == 2
        assert f"--eval-items must be at least 1, not {items}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_eval_items_without_distractors(self, corpora, tmp_path, capsys):
        # the fixture has 40 caption pairs; the pairs after the items are the distractors
        rc = main(["train", "run", "--preset", "d", "--corpus-b", str(corpora["pairs"]),
                   "--out", str(tmp_path / "o"), "--steps", "1,1,1", "--eval-items", "50"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--eval-items 50" in err and "40 caption pairs" in err
        assert not (tmp_path / "o").exists()

    def test_topk_negative_k(self, corpora, tmp_path, capsys):
        out = tmp_path / "top.jsonl"
        rc = main(["corpus", "topk", str(corpora["pairs"]), str(out), "-k", "-1"])
        assert rc == 2
        assert "-k must be at least 0, not -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_fixture_non_finite_tokens_per_image(self, tmp_path, capsys, value):
        out_dir = tmp_path / "fix"
        rc = main(["fixture", "--out-dir", str(out_dir), "--tokens-per-image", value])
        assert rc == 2
        assert f"tokens_per_image must be finite, not {value}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_align_max_samples_below_one(self, corpora, tmp_path, capsys, samples):
        ckpt = tmp_path / "m.ckpt"
        Model(ModelConfig()).save_checkpoint(ckpt)
        out = tmp_path / "a.csv"
        rc = main(["diag", "align", "--ckpt", str(ckpt), "--shard",
                   str(TestShards.pack(corpora, tmp_path)), "--out", str(out),
                   "--max-samples", samples])
        assert rc == 2
        assert f"--max-samples must be at least 1, not {samples}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_k(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        Model(ModelConfig()).save_checkpoint(ckpt)
        task = write_rank_task(tmp_path)
        rc = main(["eval", "run", "--ckpt", str(ckpt), "--task", str(task),
                   "-k", "-1", "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        assert "k=-1" in capsys.readouterr().err


class TestShards:
    """pack run's default geometry fits the default model, and diag align
    refuses corrupt shard records with exit 2."""

    @staticmethod
    def align(tmp_path, shard):
        ckpt = tmp_path / "m.ckpt"
        Model(ModelConfig()).save_checkpoint(ckpt)
        return main(["diag", "align", "--ckpt", str(ckpt), "--shard", str(shard),
                     "--out", str(tmp_path / "a.csv")])

    @staticmethod
    def pack(corpora, tmp_path, *extra):
        shard = tmp_path / "d.shard"
        assert main(["pack", "run", str(corpora["interleaved"]), str(shard), *extra]) == 0
        return shard

    def test_default_geometry_fits_default_model(self, corpora, tmp_path):
        assert self.align(tmp_path, self.pack(corpora, tmp_path)) == 0

    def test_config_geometry_fits_its_model(self, corpora, tmp_path):
        """A shard packed with a model's --config is one that model reads,
        a 4x downsampling projector's included."""
        obj = {"resolution": 32, "projector": {"kind": "downsample", "factor": 4}}
        config = tmp_path / "m.json"
        config.write_text(json.dumps(obj))
        shard = self.pack(corpora, tmp_path, "--config", str(config))
        ckpt = tmp_path / "m.ckpt"
        Model(ModelConfig.from_json(obj)).save_checkpoint(ckpt)
        assert main(["diag", "align", "--ckpt", str(ckpt), "--shard", str(shard),
                     "--out", str(tmp_path / "a.csv")]) == 0
        recorded = json.loads((tmp_path / "d.shard.manifest.json").read_text())["config"]
        assert ModelConfig.from_json(recorded) == ModelConfig.from_json(obj)
        # the default model's geometry differs: its hash refuses the shard
        assert self.align(tmp_path, shard) == 2

    @pytest.mark.parametrize("offset,value,message", [
        (80, (10**6).to_bytes(4, "little"), "buffer is smaller"),  # sample length
        (84, b"\x07", "unknown stage tag 7"),
    ], ids=["length", "tag"])
    def test_corrupt_record_exits_2(self, corpora, tmp_path, capsys, offset, value, message):
        shard = self.pack(corpora, tmp_path)
        data = bytearray(shard.read_bytes())  # header 76 B, record length, record
        data[offset : offset + len(value)] = value
        shard.write_bytes(bytes(data))
        assert self.align(tmp_path, shard) == 2
        assert message in capsys.readouterr().err

    def test_out_of_bounds_slot_exits_2(self, tmp_path, capsys):
        cfg, tok = ModelConfig(), ByteTokenizer()
        sample = pack_sft(("img", "what? ", "y"), tok, cfg.slot_length)
        sample.image_slots[0].start = len(sample)
        shard = tmp_path / "s.shard"
        write_raw_shard(shard, [sample], tok.vocab_hash(),
                        config_hash(cfg.resolution, cfg.patch, cfg.downsample))
        assert self.align(tmp_path, shard) == 2
        assert "out of bounds" in capsys.readouterr().err

    def test_empty_record_exits_2(self, tmp_path, capsys):
        """A zero-length record is refused as the shard is read, at its byte
        offset, not later by the model."""
        cfg, tok = ModelConfig(), ByteTokenizer()
        empty = PackedSample(np.zeros(0, np.uint32), np.zeros(0, np.uint8), np.zeros(0, np.uint8))
        shard = tmp_path / "s.shard"
        write_raw_shard(shard, [empty, pack_sft(("img", "what? ", "y"), tok, cfg.slot_length)],
                        tok.vocab_hash(), config_hash(cfg.resolution, cfg.patch, cfg.downsample))
        assert self.align(tmp_path, shard) == 2
        err = capsys.readouterr().err
        assert "bad record at byte 76: empty sample" in err and "Traceback" not in err


class TestBadTaskHeaderExit2:
    """eval run names the file, the line and what is wrong with a task header."""

    @pytest.mark.parametrize("header,message", [
        ("5", "must be a JSON object, not 5"),
        ('"metric name"', "must be a JSON object, not 'metric name'"),
        ('{"name": "t", "metric": "candidate-rank", "demo_pool": 5}',
         "key 'demo_pool' must be a string or null, not 5"),
        ('{"name": "t"}', "lacks required keys: metric"),
    ], ids=["number", "string", "demo-pool-number", "no-metric"])
    def test_bad_header(self, tmp_path, capsys, header, message):
        ckpt = tmp_path / "m.ckpt"
        Model(ModelConfig()).save_checkpoint(ckpt)
        task = tmp_path / "task.jsonl"
        task.write_text(header + "\n" + json.dumps(
            {"item_id": "i0", "prompt": "p: ", "answer": "red",
             "candidates": ["red", "blue"]}) + "\n")
        rc = main(["eval", "run", "--ckpt", str(ckpt), "--task", str(task),
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{task}:line 1:" in err and message in err


class TestNonUtf8TextInputsExit2:
    """A byte that is not UTF-8 in a task file, its demo pool, a runlog, a
    config or a plan exits 2, naming the file and the line it is on."""

    @staticmethod
    def task_files(tmp_path, task_line, pool_line):
        task, pool = tmp_path / "task.jsonl", tmp_path / "task.jsonl.demos"
        item = json.dumps({"item_id": "i0", "prompt": "p: ", "answer": "red",
                           "candidates": ["red", "blue"]}).encode()
        header = json.dumps({"name": "t", "metric": "candidate-rank",
                             "demo_pool": pool.name}).encode()
        demo = json.dumps({"item_id": "d0", "prompt": "p: ", "answer": "red"}).encode()
        task.write_bytes(header + b"\n" + task_line.replace(b"ITEM", item) + b"\n")
        pool.write_bytes(pool_line.replace(b"DEMO", demo) + b"\n")
        return task, pool

    @pytest.mark.parametrize("where", ["task", "demo-pool"])
    def test_task_and_demo_pool(self, tmp_path, capsys, where):
        ckpt = tmp_path / "m.ckpt"
        Model(ModelConfig()).save_checkpoint(ckpt)
        bad = b'{"item_id": "x\xff"}'
        task, pool = self.task_files(tmp_path, bad if where == "task" else b"ITEM",
                                     b"DEMO\n" + bad if where == "demo-pool" else b"DEMO")
        rc = main(["eval", "run", "--ckpt", str(ckpt), "--task", str(task),
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{task if where == 'task' else pool}:line 2: byte 0xff is not UTF-8" in err

    def test_runlog(self, tmp_path, capsys):
        good = TestCompareLossInputs.write_log(tmp_path / "a.csv")
        bad = tmp_path / "b.csv"
        bad.write_bytes(good.read_bytes().replace(b"pretrain", b"pre\xfe", 3))
        assert main(["train", "compare-loss", str(good), str(bad)]) == 2
        assert f"{bad}:line 2: byte 0xfe is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--plan"])
    def test_config_and_plan(self, corpora, tmp_path, capsys, flag):
        path = tmp_path / "obj.json"
        path.write_bytes(b'{\n "seed": 1\xff\n}\n')
        preset = ["--preset", "c"] if flag == "--config" else []
        rc = main(["train", "run", flag, str(path), *preset,
                   "--corpus-b", str(corpora["pairs"]), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{path}:line 2: byte 0xff is not UTF-8" in capsys.readouterr().err


DEEP = "[" * 100_000 + "]" * 100_000  # nested past the JSON decoder's depth


class TestUndecodableInputsExit2:
    """A JSON input nested past the decoder's depth or whose \\u escape gives
    a lone surrogate, a task header whose demo pool's name holds a NUL byte,
    and a runlog field past csv's length limit exit 2 with one `error:` line
    naming the file, and the line in a line-based file, and leave the output
    already at the path as it was."""

    @staticmethod
    def refused(capsys, argv, out, where):
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("previous\n")
        assert main(argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {where}"), line
        assert out.read_text() == "previous\n"
        assert not list(out.parent.glob("*.tmp"))

    def test_corpus_line_skipped_or_exits_2(self, tmp_path, capsys, caplog):
        path = tmp_path / "deep.jsonl"
        docs = [json.dumps({"doc_id": d, "segments": [{"text": "ok"}]}) for d in "ac"]
        path.write_text(docs[0] + "\n" + DEEP + "\n" + docs[1] + "\n")
        assert main(["corpus", "stats", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["num_docs"] == 2
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:line 2: skipped malformed record: JSON nested deeper than the decoder "
            f"follows"]
        assert main(["corpus", "stats", str(path), "--strict"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}:line 2: JSON nested deeper than the decoder follows"]

    def test_config(self, corpora, tmp_path, capsys):
        cfg, shard = tmp_path / "cfg.json", tmp_path / "d.shard"
        cfg.write_text(DEEP)
        self.refused(capsys, ["pack", "run", str(corpora["interleaved"]), str(shard),
                              "--config", str(cfg)], shard, f"{cfg}: JSON nested deeper")

    def test_plan(self, corpora, tmp_path, capsys):
        plan, out = tmp_path / "plan.json", tmp_path / "o"
        plan.write_text(DEEP)
        self.refused(capsys, ["train", "run", "--plan", str(plan), "--corpus-b",
                              str(corpora["pairs"]), "--out", str(out)],
                     out / "runlog.csv", f"{plan}: JSON nested deeper")

    def test_checkpoint_config(self, corpora, tmp_path, capsys):
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "a.csv"
        Model(ModelConfig()).save_checkpoint(ckpt)
        data = ckpt.read_bytes()
        cfg_len = int.from_bytes(data[12:16], "little")
        ckpt.write_bytes(data[:12] + len(DEEP).to_bytes(4, "little") + DEEP.encode()
                         + data[16 + cfg_len:])
        self.refused(capsys, ["diag", "align", "--ckpt", str(ckpt), "--shard",
                              str(TestShards.pack(corpora, tmp_path)), "--out", str(out)],
                     out, f"{ckpt}: bad checkpoint config: JSON nested deeper")

    @pytest.mark.parametrize("item,message", [
        (DEEP, "JSON nested deeper than the decoder follows"),
        ('{"item_id": "i0", "prompt": "p\\ud800", "answer": "red"}',
         "a \\u escape gives the lone surrogate '\\ud800', which is not UTF-8"),
    ], ids=["deep", "surrogate"])
    def test_task_item(self, tmp_path, capsys, item, message):
        ckpt, task, out = tmp_path / "m.ckpt", tmp_path / "task.jsonl", tmp_path / "e.csv"
        Model(ModelConfig()).save_checkpoint(ckpt)
        task.write_text(json.dumps({"name": "t", "metric": "exact-match"}) + "\n" + item + "\n")
        self.refused(capsys, ["eval", "run", "--ckpt", str(ckpt), "--task", str(task),
                              "--out", str(out)], out, f"{task}:line 2: {message}")

    def test_nul_in_demo_pool_name(self, tmp_path, capsys):
        ckpt, task, out = tmp_path / "m.ckpt", tmp_path / "task.jsonl", tmp_path / "e.csv"
        Model(ModelConfig()).save_checkpoint(ckpt)
        task.write_text('{"name": "t", "metric": "exact-match", "demo_pool": "a\\u0000b"}\n'
                        '{"item_id": "i0", "prompt": "p: ", "answer": "red"}\n')
        pool = os.path.join(tmp_path, "a\0b")
        self.refused(capsys, ["eval", "run", "--ckpt", str(ckpt), "--task", str(task),
                              "--out", str(out)], out, f"{pool!r}: embedded null byte")

    def test_runlog_field_past_csv_limit(self, tmp_path, capsys):
        good = TestCompareLossInputs.write_log(tmp_path / "a.csv")
        bad, out = tmp_path / "b.csv", tmp_path / "c.json"
        lines = good.read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace("pretrain", "x" * 200_000)
        bad.write_text("".join(lines))
        self.refused(capsys, ["train", "compare-loss", str(good), str(bad), "--out", str(out)],
                     out, f"{bad}:line 3: field larger than field limit (131072)")


class TestCompareLossInputs:
    """compare-loss exits 2 on a runlog it cannot read and on a final window
    below 1, naming the file and line or the window."""

    @staticmethod
    def write_log(path):
        path.write_text(RunLog([LogRecord(s, "pretrain", 1.0 / (s + 1), 1e-3, 10 * s, s)
                                for s in range(4)]).to_csv())
        return path

    @pytest.mark.parametrize("corrupt,where,message", [
        (lambda t: t.replace("step,", "", 1), "line 1", "no step column"),
        (lambda t: t.replace("0.5", "half", 1), "line 3", "could not convert string to float"),
        (lambda t: t.replace(",10,1\n", "\n", 1), "line 3", "fewer than 6 fields"),
    ], ids=["missing-column", "not-a-number", "short-row"])
    def test_unreadable_runlog(self, tmp_path, capsys, corrupt, where, message):
        good = self.write_log(tmp_path / "a.csv")
        bad = tmp_path / "b.csv"
        bad.write_text(corrupt(good.read_text()))
        assert bad.read_text() != good.read_text()
        rc = main(["train", "compare-loss", str(good), str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}:{where}:" in err and message in err

    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_final_window_below_one(self, tmp_path, capsys, window):
        log = self.write_log(tmp_path / "a.csv")
        rc = main(["train", "compare-loss", str(log), str(log), "--final-window", window])
        assert rc == 2
        assert f"at least 1 step, not {window}" in capsys.readouterr().err


class TestOutputsReplacedAtomically:
    """Every command's output replaces the old file in one rename of a
    finished temporary file, so an interrupted run never leaves half of one."""

    @staticmethod
    def replaced(monkeypatch):
        targets, real = [], os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: (targets.append(str(dst)),
                                                             real(src, dst)))
        return targets

    def test_corpus_commands(self, corpora, tmp_path, monkeypatch):
        targets = self.replaced(monkeypatch)
        pairs, docs, top = (tmp_path / n for n in ("p.jsonl", "r.jsonl", "t.jsonl"))
        assert main(["corpus", "to-pairs", str(corpora["interleaved"]), str(pairs)]) == 0
        assert main(["corpus", "reformat", str(corpora["interleaved"]), str(docs)]) == 0
        assert main(["corpus", "topk", str(pairs), str(top), "-k", "3"]) == 0
        assert {str(pairs), str(docs), str(top)} <= set(targets)
        assert len(top.read_text().splitlines()) == 3

    def test_pack_and_fixture(self, corpora, tmp_path, monkeypatch):
        targets = self.replaced(monkeypatch)
        shard = TestShards.pack(corpora, tmp_path)
        fixture = fixture_gen(FixtureSpec(n_docs=2, n_pairs=2), tmp_path / "fix2")
        assert {str(shard), *map(str, fixture.values())} <= set(targets)

    def test_failed_strict_pack_keeps_previous_shard(self, corpora, tmp_path, capsys):
        shard = TestShards.pack(corpora, tmp_path)
        before = shard.read_bytes()
        lines = corpora["interleaved"].read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines[:3]) + '{"doc_id": 5}\n' + "".join(lines[3:]))
        assert main(["pack", "run", str(bad), str(shard), "--strict"]) == 2
        assert "error" in capsys.readouterr().err
        assert shard.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_overlong_image_id_exits_2_and_keeps_previous_shard(self, corpora, tmp_path,
                                                                 capsys):
        """A shard stores an image id's length in 16 bits: a longer id is
        refused as a data error, and the shard already there stays."""
        shard = TestShards.pack(corpora, tmp_path)
        before = shard.read_bytes()
        doc = {"doc_id": "long", "segments": [{"type": "image", "image_id": "x" * 70_000},
                                              {"type": "text", "text": "a cat"}]}
        bad = tmp_path / "long.jsonl"
        bad.write_text(corpora["interleaved"].read_text() + json.dumps(doc) + "\n")
        capsys.readouterr()
        assert main(["pack", "run", str(bad), str(shard)]) == 2
        err = capsys.readouterr().err
        assert "image id of 70000 bytes" in err and "65,535" in err and "Traceback" not in err
        assert shard.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_diag_eval_and_compare_loss(self, corpora, tmp_path, monkeypatch):
        ckpt = tmp_path / "m.ckpt"
        Model(ModelConfig()).save_checkpoint(ckpt)
        shard = TestShards.pack(corpora, tmp_path)
        log = TestCompareLossInputs.write_log(tmp_path / "log.csv")
        outs = [tmp_path / n for n in ("a.csv", "e.csv", "c.json")]
        targets = self.replaced(monkeypatch)
        assert main(["diag", "align", "--ckpt", str(ckpt), "--shard", str(shard),
                     "--out", str(outs[0])]) == 0
        assert main(["eval", "run", "--ckpt", str(ckpt), "--task", str(write_rank_task(tmp_path)),
                     "--out", str(outs[1])]) == 0
        assert main(["train", "compare-loss", str(log), str(log), "--final-window", "2",
                     "--out", str(outs[2])]) == 0
        assert {str(p) for p in outs} <= set(targets)
        assert json.loads(outs[2].read_text())["final_window"] == 2
