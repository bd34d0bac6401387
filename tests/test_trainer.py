import math

import numpy as np
import pytest

from vlmforge import halves
from vlmforge.corpus import BlendSampler
from vlmforge.errors import NumericError, VlmforgeError
from vlmforge.fixtures import FixtureSpec, make_interleaved, make_pairs
from vlmforge.model import Linear, Model, ModelConfig
from vlmforge.packing import ByteTokenizer, pack_sft
from vlmforge.trainer import (
    ALL_TRAINABLE,
    PROJECTOR_ONLY,
    CLIP_NORM,
    AdamW,
    FreezePolicy,
    LogRecord,
    RecipeCorpora,
    RunLog,
    StagePlan,
    StageSpec,
    batched,
    compare_loss_curves,
    document_sample_stream,
    lr_at,
    preset_plan,
    run_recipe,
    run_stage,
    sft_sample_stream,
)


def small_cfg(seed=0, projector=None):
    return ModelConfig(
        resolution=16, patch=8, vision_dim=16, model_dim=32, ffn_dim=64,
        vision_layers=1, llm_layers=2, heads=2,
        projector=projector or Linear(), max_positions=96, seed=seed)


def caption_batches(tok, cfg, n_demos=32, batch_size=8, seed=0):
    rng = np.random.default_rng(seed)
    demos = [
        (f"im{i}", "cap: ",
         "".join(chr(97 + c) for c in rng.integers(0, 26, size=8)))
        for i in range(n_demos)
    ]
    samples = [pack_sft(d, tok, cfg.slot_length) for d in demos]

    def stream():
        i = 0
        while True:
            yield [samples[(i * batch_size + j) % n_demos] for j in range(batch_size)]
            i += 1

    return stream()


@pytest.fixture(scope="module")
def fixture_docs():
    return make_interleaved(FixtureSpec(n_docs=40, images_per_doc=2,
                                        tokens_per_image=20, n_pairs=0, seed=3))


def doc_batches(docs, tok, cfg, batch_size=8, seed=0):
    sampler = BlendSampler([(docs, 1.0)], seed=seed)
    return batched(document_sample_stream(iter(sampler), tok, cfg, cfg.max_positions),
                   batch_size)


class TestFreezePolicy:
    def test_unknown_group_rejected(self):
        with pytest.raises(VlmforgeError):
            FreezePolicy.of("projector", "banana")

    def test_stage0_freezes_everything_but_projector(self, tok, fixture_docs):
        cfg = small_cfg()
        model = Model(cfg)
        before = {g: model.group_checksum(g) for g in model.group_names()}
        stage = StageSpec("init-projector", PROJECTOR_ONLY, steps=10, lr=1e-2)
        run_stage(stage, model, doc_batches(fixture_docs, tok, cfg))
        after = {g: model.group_checksum(g) for g in model.group_names()}
        assert after["projector"] != before["projector"]
        for group in ("vision", "llm", "embed", "head"):
            assert after[group] == before[group]

    def test_frozen_groups_have_no_optimizer_moments(self):
        model = Model(small_cfg())
        opt = AdamW(model, PROJECTOR_ONLY, lr=1e-3)
        assert list(opt.m_buffers) == list(opt.v_buffers) == ["projector"]

    def test_zero_lr_changes_nothing(self, tok, fixture_docs):
        cfg = small_cfg()
        model = Model(cfg)
        before = {g: model.group_checksum(g) for g in model.group_names()}
        stage = StageSpec("pretrain", ALL_TRAINABLE, steps=5, lr=0.0)
        run_stage(stage, model, doc_batches(fixture_docs, tok, cfg))
        assert {g: model.group_checksum(g) for g in model.group_names()} == before


def reference_adamw_step(params, m, v, t, grads, lr):
    """AdamW with clipping written out with fresh arrays: the formula the
    optimizer must reproduce bit for bit."""
    b1, b2, eps, wd, clip = 0.9, 0.95, 1e-8, 0.05, 1.0
    sq = 0.0
    for name in m:
        sq += float((grads[name] * grads[name]).sum())
    norm = math.sqrt(sq)
    scale = clip / norm if norm > clip else 1.0
    bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
    for name in m:
        g = grads[name] * scale
        m[name] = b1 * m[name] + (1 - b1) * g
        v[name] = b2 * v[name] + (1 - b2) * g * g
        mhat, vhat = m[name] / bc1, v[name] / bc2
        params[name] = params[name] - lr * (mhat / (np.sqrt(vhat) + eps) + wd * params[name])


class TestAdamW:
    def test_in_place_step_matches_reference(self):
        model = Model(small_cfg())
        opt = AdamW(model, ALL_TRAINABLE, 1e-3)
        opt_m, opt_v = (Model.views(model.cfg, b) for b in (opt.m_buffers, opt.v_buffers))
        names = list(opt_m)
        params = {n: model.params[n].copy() for n in names}
        m = {n: np.zeros_like(params[n]) for n in names}
        v = {n: np.zeros_like(params[n]) for n in names}
        rng = np.random.default_rng(0)
        clipped = []
        for t, spread in enumerate((1e-4, 10.0, 1e-3, 5.0), start=1):
            grads = {n: rng.normal(0.0, spread, size=params[n].shape) for n in names}
            clipped.append(math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
                           > CLIP_NORM)
            given = {n: g.copy() for n, g in grads.items()}
            opt.step(grads, 1e-2 * t)
            reference_adamw_step(params, m, v, t, grads, 1e-2 * t)
            for n in names:
                assert np.array_equal(grads[n], given[n]), n
                assert np.array_equal(model.params[n], params[n]), n
                assert np.array_equal(opt_m[n], m[n]) and np.array_equal(opt_v[n], v[n]), n
        assert clipped == [False, True, False, True]


    def test_moments_are_views_into_group_buffers(self):
        model = Model(small_cfg())
        opt = AdamW(model, ALL_TRAINABLE, 1e-3)
        for moments in (opt.m_buffers, opt.v_buffers):
            assert set(moments) == ALL_TRAINABLE.trainable
            for group, buf in moments.items():
                assert buf.shape == model.buffers[group].shape
                assert not np.shares_memory(buf, model.buffers[group]), group
            for name, view in Model.views(model.cfg, moments).items():
                assert view.shape == model.params[name].shape
                assert np.shares_memory(view, moments[Model.group_of(name)]), name

    def test_layout_computed_once_per_config(self, tmp_path, monkeypatch):
        """Models, an optimizer, a checkpoint and the worker's shared memory
        of one config read one read-only table, built from `param_shapes`
        once."""
        cfg, shapes, calls = small_cfg(), Model.param_shapes, []
        monkeypatch.setattr(Model, "param_shapes",
                            staticmethod(lambda c: (calls.append(c), shapes(c))[1]))
        Model._layout.cache_clear()
        model = Model(cfg)
        Model(cfg).save_checkpoint(tmp_path / "m.ckpt")
        AdamW(model, ALL_TRAINABLE, 1e-3)
        Model.load_checkpoint(tmp_path / "m.ckpt", cfg)
        with open(tmp_path / "shared", "w+b") as fh:  # the worker's memory file
            halves._map(cfg, fh.fileno())
        assert calls == [cfg]
        with pytest.raises(TypeError):
            Model._layout(cfg)["head"] = (0, ())

    def test_replaced_trainable_parameter_rejected(self):
        model = Model(small_cfg())
        model.params["head.w"] = model.params["head.w"].copy()
        with pytest.raises(VlmforgeError, match="head.w"):
            AdamW(model, ALL_TRAINABLE, 1e-3)
        # a frozen group's arrays are never updated, so they may be replaced
        AdamW(model, PROJECTOR_ONLY, 1e-3)


class TestRunStage:
    def test_overfit_sanity(self, tok):
        cfg = small_cfg()
        model = Model(cfg)
        stage = StageSpec("sft", ALL_TRAINABLE, steps=200, lr=1e-2,
                          warmup=10, batch_size=32)
        log, _ = run_stage(stage, model, caption_batches(tok, cfg, batch_size=32))
        losses = log.losses()
        assert losses[-1] < 0.1
        ma = [np.mean(losses[max(0, i - 19): i + 1]) for i in range(len(losses))]
        for i in range(0, 180, 20):
            assert ma[i + 20] <= ma[i] + 1e-9

    def test_nan_loss_aborts_with_step(self, tok, fixture_docs):
        cfg = small_cfg()
        model = Model(cfg)
        model.params["head.w"][0, 0] = np.nan
        stage = StageSpec("pretrain", ALL_TRAINABLE, steps=3, lr=1e-3)
        with pytest.raises(NumericError, match="step 0"):
            run_stage(stage, model, doc_batches(fixture_docs, tok, cfg))

    def test_determinism(self, tok, fixture_docs):
        sums = []
        for _ in range(2):
            cfg = small_cfg(seed=11)
            model = Model(cfg)
            stage = StageSpec("pretrain", ALL_TRAINABLE, steps=8, lr=1e-3)
            log, _ = run_stage(stage, model, doc_batches(fixture_docs, tok, cfg, seed=5))
            sums.append((log.to_csv(), model.group_checksum("llm")))
        assert sums[0] == sums[1]

    def test_resume_matches_uninterrupted(self, tok, fixture_docs):
        cfg = small_cfg(seed=2)
        full = StageSpec("pretrain", ALL_TRAINABLE, steps=10, lr=1e-3)
        # uninterrupted 10-step run
        model_a = Model(cfg)
        log_a, _ = run_stage(full, model_a, doc_batches(fixture_docs, tok, cfg, seed=9))
        # interrupted at step 5, then continued with the same optimizer state
        # and the same 10-step lr schedule
        model_b = Model(cfg)
        batches = doc_batches(fixture_docs, tok, cfg, seed=9)
        log_b = RunLog()
        _, opt = run_stage(full, model_b, batches, log=log_b, stop_step=5)
        run_stage(full, model_b, batches, log=log_b, start_step=5, optimizer=opt)
        assert [r.loss for r in log_b.records] == [r.loss for r in log_a.records]
        # every column, the cumulative tokens and images included
        assert log_b.to_csv() == log_a.to_csv()
        for g in model_a.group_names():
            assert model_a.group_checksum(g) == model_b.group_checksum(g)


class TestLrSchedule:
    def test_warmup_then_cosine(self):
        stage = StageSpec("pretrain", ALL_TRAINABLE, steps=100, lr=1.0, warmup=10)
        assert lr_at(stage, 0) == pytest.approx(0.1)
        assert lr_at(stage, 9) == pytest.approx(1.0)
        assert lr_at(stage, 55) == pytest.approx(0.5, abs=0.03)
        assert lr_at(stage, 99) < 0.01

    def test_default_warmup_is_three_percent(self):
        stage = StageSpec("pretrain", ALL_TRAINABLE, steps=1000, lr=1.0)
        assert stage.warmup_steps() == 30


class TestSftStream:
    def test_text_only_fraction_realized(self, tok):
        cfg = small_cfg()
        visual = [(f"i{n}", "p: ", "a") for n in range(10)]
        text = [(None, "q: ", "b") for _ in range(10)]
        stream = sft_sample_stream(visual, text, 0.3, tok, cfg, 7)
        n = 5000
        text_only = sum(1 for _ in range(n) if not next(stream).image_slots)
        assert abs(text_only / n - 0.3) < 0.02

    def test_stage_tags(self, tok):
        cfg = small_cfg()
        stream = sft_sample_stream([("i", "p", "a")], [], 0.0, tok, cfg, 0)
        assert next(stream).stage_tag == "sft"

    def test_empty_demos_rejected(self, tok):
        cfg = small_cfg()
        with pytest.raises(VlmforgeError):
            next(sft_sample_stream([], [], 0.5, tok, cfg, 0))


@pytest.fixture(scope="module")
def recipe_corpora():
    spec = FixtureSpec(n_docs=24, images_per_doc=2, tokens_per_image=16,
                       n_pairs=24, pair_caption_lengths=(10, 11), seed=4)
    return RecipeCorpora(make_interleaved(spec), make_pairs(spec))


class TestRunRecipe:
    steps = (5, 10, 5)

    def run_preset(self, name, corpora, seed=0):
        plan, projector = preset_plan(name, steps=self.steps, batch_size=4)
        model = Model(small_cfg(seed=seed, projector=projector))
        init = {g: model.group_checksum(g) for g in model.group_names()}
        log = run_recipe(plan, model, corpora, seed)
        return model, log, init

    def test_preset_a_never_touches_llm_or_vision(self, recipe_corpora):
        model, log, init = self.run_preset("a", recipe_corpora)
        assert model.group_checksum("llm") == init["llm"]
        assert model.group_checksum("vision") == init["vision"]
        assert model.group_checksum("embed") == init["embed"]
        assert model.group_checksum("projector") != init["projector"]
        assert len(log.records) == sum(self.steps)

    def test_preset_b_trains_llm_only_in_sft(self, recipe_corpora):
        plan, projector = preset_plan("b", steps=self.steps, batch_size=4)
        model = Model(small_cfg(projector=projector))
        checks = {}

        def snap(stage, m):
            checks[stage] = m.group_checksum("llm")

        init = model.group_checksum("llm")
        run_recipe(plan, model, recipe_corpora, 0, on_stage_end=snap)
        assert checks["init-projector"] == init
        assert checks["pretrain"] == init
        assert checks["sft"] != init

    def test_presets_c_d_differ_only_in_projector(self):
        plan_c, proj_c = preset_plan("c", steps=self.steps)
        plan_d, proj_d = preset_plan("d", steps=self.steps)
        assert proj_c.kind == "transformer"
        assert proj_d.kind == "linear"
        for sc, sd in zip(plan_c.stages, plan_d.stages):
            assert (sc.policy, sc.steps, sc.lr) == (sd.policy, sd.steps, sd.lr)

    def test_unknown_preset(self):
        with pytest.raises(VlmforgeError):
            preset_plan("e")

    def test_recipe_determinism(self, recipe_corpora):
        runs = []
        for _ in range(2):
            model, log, _ = self.run_preset("b", recipe_corpora, seed=3)
            runs.append((log.to_csv(),
                         {g: model.group_checksum(g) for g in model.group_names()}))
        assert runs[0] == runs[1]

    def test_stage_tags_never_mix(self, tok, recipe_corpora):
        from vlmforge.trainer import stage_batches
        cfg = small_cfg()
        plan, _ = preset_plan("c", steps=(2, 2, 2), batch_size=4)
        for stage in plan.stages:
            batches = stage_batches(stage, recipe_corpora, tok, cfg,
                                    cfg.max_positions, 0)
            tags = {s.stage_tag for _ in range(2) for s in next(batches)}
            expected = {"sft"} if stage.name == "sft" else {"pretrain"}
            assert tags == expected

    def test_sft_demos_derive_from_pairs_without_touching_corpora(self, tok, recipe_corpora):
        from vlmforge.trainer import CAPTION_PROMPT, stage_batches
        cfg = small_cfg()
        corpora = RecipeCorpora(list(recipe_corpora.interleaved), list(recipe_corpora.pairs))
        before = dict(vars(corpora))
        stage = StageSpec("sft", ALL_TRAINABLE, steps=2, lr=1e-3, batch_size=24,
                          text_only_fraction=0.5)
        batch = next(stage_batches(stage, corpora, tok, cfg, cfg.max_positions, 0))
        assert vars(corpora) == before
        visual = {pack_sft((p.image_id, CAPTION_PROMPT, p.caption), tok,
                           cfg.slot_length).tokens.tobytes() for p in corpora.pairs}
        text = {pack_sft((None, "Repeat after me: " + p.caption + " -> ", p.caption), tok,
                         cfg.slot_length).tokens.tobytes() for p in corpora.pairs}
        kinds = [(s.tokens.tobytes() in visual, s.tokens.tobytes() in text) for s in batch]
        assert {(True, False), (False, True)} == set(kinds)


class TestCompareLossCurves:
    def log_with(self, losses, stage="pretrain"):
        return RunLog([LogRecord(i, stage, l, 1e-3, 0, 0) for i, l in enumerate(losses)])

    def test_identity_zero_gap(self):
        log = self.log_with([3.0, 2.0, 1.0])
        report = compare_loss_curves(log, log)
        assert report["mean_gap"] == 0.0
        assert report["final_window_gap"] == 0.0

    def test_constant_offset(self):
        a = self.log_with([1.0, 2.0, 3.0, 4.0])
        b = self.log_with([0.7, 1.7, 2.7, 3.7])
        report = compare_loss_curves(a, b)
        assert report["mean_gap"] == pytest.approx(0.3)
        assert report["final_window_gap"] == pytest.approx(0.3)

    def test_disjoint_ranges_error(self):
        a = self.log_with([1.0])
        b = RunLog([LogRecord(5, "sft", 1.0, 1e-3, 0, 0)])
        with pytest.raises(VlmforgeError):
            compare_loss_curves(a, b)


def test_runlog_csv_round_trip():
    log = RunLog([LogRecord(0, "pretrain", 5.54321987654321, 1e-3, 64, 2),
                  LogRecord(1, "pretrain", 5.1, 2e-3, 128, 4)])
    back = RunLog.from_csv(log.to_csv())
    assert back.to_csv() == log.to_csv()
    assert back.records[0].loss == log.records[0].loss


def test_stage_plan_rejects_unknown_stage():
    with pytest.raises(VlmforgeError):
        StagePlan([StageSpec("warmup", PROJECTOR_ONLY, 1, 1e-3)])


@pytest.mark.parametrize("key,value", [("steps", 0), ("batch_size", 0), ("batch_size", -2)])
def test_stage_spec_rejects_counts_below_one(key, value):
    fields = dict(name="pretrain", policy=PROJECTOR_ONLY, steps=1, lr=1e-3)
    fields[key] = value
    with pytest.raises(VlmforgeError, match=f"{key} must be at least 1, not {value}"):
        StageSpec(**fields)


STAGE_BITS = """
import hashlib, json
from vlmforge.fixtures import FixtureSpec, make_interleaved, make_pairs
from vlmforge.model import Model, ModelConfig, TransformerBlockProjector
from vlmforge.packing import ByteTokenizer
from vlmforge.trainer import ALL_TRAINABLE, RecipeCorpora, StageSpec, run_stage, stage_batches

cfg = ModelConfig(resolution=16, patch=8, vision_dim=16, model_dim=32, ffn_dim=64,
                  vision_layers=1, llm_layers=2, heads=2,
                  projector=TransformerBlockProjector(), max_positions=96, seed=3)
spec = FixtureSpec(n_docs=40, images_per_doc=2, tokens_per_image=28, n_pairs=80, seed=3)
corpora = RecipeCorpora(make_interleaved(spec), make_pairs(spec))
stage = StageSpec("pretrain", ALL_TRAINABLE, 20, 3e-3, batch_size=8)
model = Model(cfg)
log, _ = run_stage(stage, model, stage_batches(stage, corpora, ByteTokenizer(), cfg,
                                               cfg.max_positions, 3))
print(json.dumps({"losses": [r.loss.hex() for r in log.records],
                  "groups": {g: model.group_checksum(g) for g in model.group_names()}}))
"""


def test_stage_bits_do_not_depend_on_blas_threads():
    """The same stage at one BLAS thread and at two gives the same losses
    and parameters, bit for bit: the model pins OpenBLAS to one thread."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": threads,
               "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", STAGE_BITS], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert runs[0] == runs[1]
