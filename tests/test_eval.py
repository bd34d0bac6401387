import numpy as np
import pytest
from conftest import appended, candidate_ce, save_task

from vlmforge.errors import ConfigMismatchError, VlmforgeError
from vlmforge.evaluation import (
    EvalItem,
    EvalTask,
    build_kshot,
    load_task,
    run_eval,
    score_item,
)
from vlmforge.model import Model
from vlmforge.packing import IMAGE, TEXT, bind_pixels, check_batch, pack_sft, pixels_for
from vlmforge.trainer import ALL_TRAINABLE, StageSpec, run_stage


def make_pool(n, with_images=True):
    return [
        EvalItem(f"demo-{i:03d}", f"q{i}: ", f"a{i}",
                 image_id=f"img-{i}" if with_images else None)
        for i in range(n)
    ]


class TestBuildKshot:
    def test_zero_shot_layout(self, tok):
        item = EvalItem("q1", "what? ", "yes", image_id="im")
        s = build_kshot(item, 0, [], seed=0, tok=tok, slot_length=4, max_positions=64)
        assert len(s.image_slots) == 1
        assert list(s.tokens) == [tok.bos] + [tok.img] * 4 + tok.encode("what? ")
        assert not s.loss_mask.any()

    def test_no_query_answer_in_context(self, tok):
        item = EvalItem("q1", "prompt ", "SECRET", image_id=None)
        s = build_kshot(item, 2, make_pool(5, with_images=False), 0, tok, 4, 256)
        assert "SECRET" not in tok.decode(s.tokens)

    def test_two_shot_detokenizes_to_demo_blocks(self, tok):
        pool = make_pool(5, with_images=False)
        item = EvalItem("q1", "query: ", "z")
        s = build_kshot(item, 2, pool, seed=3, tok=tok, slot_length=4,
                        max_positions=256)
        # recover which demos were chosen, then check exact layout
        text = tok.decode(s.tokens)
        chosen = sorted((d for d in pool if d.prompt in text),
                        key=lambda d: text.index(d.prompt))
        assert len(chosen) == 2
        expected = "".join(d.prompt + d.answer for d in chosen) + "query: "
        assert text == expected

    def test_image_demos_get_slots(self, tok):
        pool = make_pool(5)
        item = EvalItem("q1", "query: ", "z", image_id="qimg")
        s = build_kshot(item, 3, pool, 0, tok, 4, 256)
        assert len(s.image_slots) == 4
        assert s.image_slots[-1].image_id == "qimg"
        check_batch([s])
        assert [slot.length for slot in s.image_slots] == [4] * 4
        assert int((s.modality_mask == IMAGE).sum()) == 16

    def test_seed_determinism_and_sensitivity(self, tok):
        pool = make_pool(20, with_images=False)
        item = EvalItem("q1", "query: ", "z")
        a = build_kshot(item, 3, pool, 7, tok, 4, 512)
        b = build_kshot(item, 3, pool, 7, tok, 4, 512)
        assert np.array_equal(a.tokens, b.tokens)
        variants = {
            build_kshot(item, 3, pool, seed, tok, 4, 512).tokens.tobytes()
            for seed in range(10)
        }
        assert len(variants) > 1

    def test_distinct_items_draw_distinct_demos(self, tok):
        pool = make_pool(20, with_images=False)
        draws = {
            build_kshot(EvalItem(f"q{i}", "p ", "a"), 3, pool, 0, tok, 4,
                        512).tokens.tobytes()
            for i in range(10)
        }
        assert len(draws) > 1

    def test_context_overflow_rejected(self, tok):
        item = EvalItem("q1", "x" * 50, "z")
        with pytest.raises(ConfigMismatchError, match="max_positions"):
            build_kshot(item, 0, [], 0, tok, 4, max_positions=16)

    def test_k_exceeding_pool_rejected(self, tok):
        with pytest.raises(VlmforgeError, match="pool"):
            build_kshot(EvalItem("q", "p", "a"), 4, make_pool(2), 0, tok, 4, 64)


def overfit_model(tok, cfg_factory, demos, steps=200):
    cfg = cfg_factory()
    model = Model(cfg)
    samples = [pack_sft(d, tok, cfg.slot_length) for d in demos]

    def stream():
        while True:
            yield samples

    stage = StageSpec("sft", ALL_TRAINABLE, steps=steps, lr=1e-2,
                      warmup=10, batch_size=len(samples))
    run_stage(stage, model, stream())
    return model


@pytest.fixture(scope="module")
def rank_setup():
    """Model overfit to map 4 images to their color word."""
    from vlmforge.packing import ByteTokenizer
    from test_trainer import small_cfg

    tok = ByteTokenizer()

    colors = ["red", "blue", "green", "gold"]
    demos = [(f"img-{c}", "color: ", c) for c in colors]
    model = overfit_model(tok, small_cfg, demos)
    items = [
        EvalItem(f"item-{c}", "color: ", c, image_id=f"img-{c}", candidates=colors)
        for c in colors
    ]
    task = EvalTask("colors", items, demo_pool=[], metric="candidate-rank")
    return model, task


class TestScoring:
    def test_overfit_candidate_rank_is_perfect(self, rank_setup, tok):
        model, task = rank_setup
        report = run_eval(model, task, k=0, seed=0)
        assert report.accuracy == 1.0

    def test_overfit_exact_match_is_perfect(self, rank_setup, tok):
        model, task = rank_setup
        em = EvalTask("colors-em", task.items, [], metric="exact-match")
        report = run_eval(model, em, k=0, seed=0)
        assert report.accuracy == 1.0

    def test_tie_breaks_to_first_listed(self, tok, tiny_model):
        # identical candidates force an exact tie in mean cross-entropy
        item = EvalItem("q", "p ", "aa", candidates=["aa", "aa"])
        packed = build_kshot(item, 0, [], 0, tok, tiny_model.cfg.slot_length,
                             tiny_model.cfg.max_positions)
        prediction, correct = score_item(tiny_model, packed, {}, "candidate-rank",
                                         item, tok)
        assert prediction == "aa" and correct == 1

    def test_run_eval_deterministic(self, rank_setup):
        model, task = rank_setup
        a = run_eval(model, task, 0, 5)
        b = run_eval(model, task, 0, 5)
        assert a.records == b.records

    def test_run_eval_item_order_invariant(self, rank_setup):
        model, task = rank_setup
        shuffled = EvalTask(task.name, list(reversed(task.items)), [], task.metric)
        a = run_eval(model, task, 0, 5)
        b = run_eval(model, shuffled, 0, 5)
        assert a.records == b.records

    def test_report_csv(self):
        from vlmforge.evaluation import EvalReport

        report = EvalReport("t", 0, [("i1", "yes", 1), ("i2", "no", 0)])
        assert report.accuracy == 0.5
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "item_id,prediction,correct"
        assert lines[1] == "i1,yes,1"


class TestTaskValidation:
    def test_demo_pool_overlap_rejected(self):
        item = EvalItem("x", "p", "a", candidates=["a", "b"])
        task = EvalTask("t", [item], [item])
        with pytest.raises(VlmforgeError, match="both"):
            task.validate()

    def test_missing_candidates_rejected(self):
        task = EvalTask("t", [EvalItem("x", "p", "a")], [])
        with pytest.raises(VlmforgeError, match="candidates"):
            task.validate()

    def test_answer_must_be_a_candidate(self):
        task = EvalTask("t", [EvalItem("x", "p", "a", candidates=["b", "c"])], [])
        with pytest.raises(VlmforgeError, match="candidates"):
            task.validate()

    def test_unknown_metric_rejected(self):
        task = EvalTask("t", [], [], metric="bleu")
        with pytest.raises(VlmforgeError, match="metric"):
            task.validate()


class TestTaskIO:
    def test_round_trip(self, tmp_path):
        items = [
            EvalItem("i1", "p1 ", "a", image_id="im1", candidates=["a", "b"]),
            EvalItem("i2", "p2 ", "b", candidates=["a", "b"]),
        ]
        pool = [EvalItem("d1", "dp ", "da", image_id="im2")]
        task = EvalTask("toy", items, pool, metric="candidate-rank")
        path = tmp_path / "toy.jsonl"
        save_task(task, path)
        back = load_task(path)
        assert back.name == task.name
        assert back.metric == task.metric
        assert back.items == items
        assert back.demo_pool == pool

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(VlmforgeError, match="empty"):
            load_task(path)

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"item_id": "x", "prompt": "p", "answer": "a"}\n')
        with pytest.raises(VlmforgeError):
            load_task(path)


def toy_cfg():
    """The acceptance suite's toy configuration: 96 positions, 4-token images."""
    from vlmforge.model import ModelConfig, TransformerBlockProjector

    return ModelConfig(resolution=16, patch=8, vision_dim=16, model_dim=32, ffn_dim=64,
                       vision_layers=1, llm_layers=2, heads=2,
                       projector=TransformerBlockProjector(), max_positions=96, seed=0)


def color_task(metric, n_items=6, n_demos=8):
    colors = ["red", "blue", "green", "gold"]

    def items(prefix, n):
        return [EvalItem(f"{prefix}-{i}", "color: ", colors[i % 4], image_id=f"{prefix}-img-{i}",
                         candidates=[colors[i % 4], colors[(i + 1) % 4]])
                for i in range(n)]

    task = EvalTask("colors", items("item", n_items), items("demo", n_demos), metric)
    pixels = {it.image_id: pixels_for(it.image_id, 16) for it in task.items + task.demo_pool}
    return task, pixels


class TestBatchedScoring:
    def test_batched_candidate_losses_equal_single_calls(self, tok):
        model = Model(toy_cfg())
        task, pixels = color_task("candidate-rank")
        item = task.items[0]
        packed = build_kshot(item, 4, task.demo_pool, 0, tok, model.cfg.slot_length,
                             model.cfg.max_positions)
        candidates = ["red", "blue", "green", "gold", "a longer candidate"]
        scored = [appended(packed, tok.encode(c), loss=True) for c in candidates]
        batched = model.sequence_loss(scored, pixels)
        single = [model.sequence_loss(s, pixels) for s in scored]
        np.testing.assert_allclose(batched, single, rtol=1e-12, atol=0)
        # the scorer runs the context and every candidate as one pass, in
        # which no candidate attends over another, so order moves no bit
        ids = [tok.encode(c) for c in candidates]
        cached = model.continuation_losses(packed, ids, pixels)
        np.testing.assert_allclose(cached, candidate_ce(model, packed, ids, pixels),
                                   rtol=1e-12, atol=0)
        assert np.array_equal(model.continuation_losses(packed, ids[::-1], pixels)[::-1], cached)
        ranked = EvalItem(item.item_id, item.prompt, "red", item.image_id, candidates)
        prediction, _ = score_item(model, packed, pixels, "candidate-rank", ranked, tok)
        assert prediction == candidates[int(np.argmin(single))]

    def test_zero_shot_text_only_context(self, tok, monkeypatch):
        from test_model import TestContinuationLosses, one_pass_losses

        model = Model(toy_cfg())
        candidates = list(TestContinuationLosses.CANDIDATES)
        item = EvalItem("q", "color: ", "red", candidates=candidates)
        packed = build_kshot(item, 0, [], 0, tok, model.cfg.slot_length,
                             model.cfg.max_positions)
        assert not packed.image_slots
        ids = [tok.encode(c) for c in candidates]
        losses = one_pass_losses(monkeypatch, model, packed, ids, {})
        want = candidate_ce(model, packed, ids, {})
        np.testing.assert_allclose(losses, want, rtol=1e-12, atol=0)
        assert np.array_equal(model.continuation_losses(packed, ids[::-1], {})[::-1], losses)
        prediction, _ = score_item(model, packed, {}, "candidate-rank", item, tok)
        assert prediction == candidates[int(np.argmin(want))]

    def test_candidate_past_max_positions_rejected(self, tok):
        model = Model(toy_cfg())
        task, pixels = color_task("candidate-rank")
        item = task.items[0]
        packed = build_kshot(item, 4, task.demo_pool, 0, tok, model.cfg.slot_length,
                             model.cfg.max_positions)
        room = model.cfg.max_positions - len(packed)
        fits = EvalItem(item.item_id, item.prompt, "x" * room, item.image_id,
                        ["x" * room, "red"])
        assert score_item(model, packed, pixels, "candidate-rank", fits, tok)[0] in fits.candidates
        long = EvalItem(item.item_id, item.prompt, "red", item.image_id, ["red", "y" * (room + 1)])
        with pytest.raises(ConfigMismatchError, match="max_positions"):
            score_item(model, packed, pixels, "candidate-rank", long, tok)

    def test_exact_match_four_shot_fits_the_context(self, tok):
        model = Model(toy_cfg())
        task, pixels = color_task("exact-match")
        lengths = [len(build_kshot(it, 4, task.demo_pool, 0, tok, model.cfg.slot_length,
                                   model.cfg.max_positions)) for it in task.items]
        # contexts leave fewer than the default 32 new tokens of room
        assert max(lengths) > model.cfg.max_positions - 32
        report = run_eval(model, task, k=4, seed=0)
        assert [r[0] for r in report.records] == sorted(it.item_id for it in task.items)
