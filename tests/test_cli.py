import json

import pytest

from vlmforge.cli import main
from vlmforge.fixtures import FixtureSpec, fixture_gen
from vlmforge.model import Downsample, Model, ModelConfig, TransformerBlockProjector
from vlmforge.packing import ByteTokenizer, config_hash, pack_sft, write_shard
from vlmforge.trainer import RunLog


@pytest.fixture()
def corpora(tmp_path):
    spec = FixtureSpec(n_docs=12, images_per_doc=2, tokens_per_image=16,
                       n_pairs=40, pair_caption_lengths=(10, 11), seed=1)
    return fixture_gen(spec, tmp_path / "fix")


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

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["fixture"])  # --out-dir required
        assert exc.value.code == 1


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
        rc = main(["pack", "run", str(corpora["interleaved"]), str(shard),
                   "--max-len", "96", "--res", "16", "--patch", "8"])
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
        import importlib
        import vlmforge.cli as cli

        monkeypatch.setenv("VLMFORGE_SEED", "42")
        out = tmp_path / "p.jsonl"
        rc = cli.main(["corpus", "to-pairs", str(corpora["interleaved"]), str(out)])
        assert rc == 0
        mani = json.loads((tmp_path / "p.jsonl.manifest.json").read_text())
        assert mani["seed"] == 42


def test_eval_run_four_shot_exact_match(tmp_path, capsys):
    from vlmforge.evaluation import EvalItem, EvalTask, save_task

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
    projector, --config, the model flags and --seed, later layers winning."""

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

    def test_flags_override_config(self, corpora, tmp_path):
        cfg = self.write_json(tmp_path / "c.json",
                              {"model_dim": 48, "llm_layers": 1, "projector": "downsample"})
        got = self.run(corpora, tmp_path / "c", "--preset", "d", "--config", cfg,
                       "--model-dim", "64", "--projector", "linear", "--seed", "2")
        assert got == ModelConfig(model_dim=64, llm_layers=1, seed=2)


class TestBadInputsExit2:
    @pytest.mark.parametrize("plan", [
        {"stages": [["pretrain", ["llm"], 1, 0.01]]},
        {"stages": [{"name": "pretrain", "policy": ["llm"], "steps": 1}]},
        {"stages": [{"name": "pretrain", "policy": ["llm"], "steps": 1, "lr": 0.01,
                     "epochs": 2}]},
        {"steps": 1},
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
        from vlmforge.evaluation import EvalItem, EvalTask, save_task

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

    @pytest.mark.parametrize("flag,value", [("--heads", "0"), ("--model-dim", "-4")])
    def test_model_size_below_one(self, corpora, tmp_path, capsys, flag, value):
        rc = main(["train", "run", "--preset", "d", "--corpus-b", str(corpora["pairs"]),
                   "--out", str(tmp_path / "o"), "--steps", "1,1,1", flag, value])
        assert rc == 2
        assert f"must be at least 1, not {value}" in capsys.readouterr().err

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
    def pack(corpora, tmp_path):
        shard = tmp_path / "d.shard"
        assert main(["pack", "run", str(corpora["interleaved"]), str(shard),
                     "--max-len", "96"]) == 0
        return shard

    def test_default_geometry_fits_default_model(self, corpora, tmp_path):
        assert self.align(tmp_path, self.pack(corpora, tmp_path)) == 0

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
        write_shard([sample], shard, tok.vocab_hash(),
                    config_hash(cfg.resolution, cfg.patch, cfg.downsample))
        assert self.align(tmp_path, shard) == 2
        assert "out of bounds" in capsys.readouterr().err
