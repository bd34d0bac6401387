"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line
so `pytest -v -s` doubles as an acceptance report. The direction-of-effect
tests train real (toy-sized) models, so this file dominates suite runtime.
"""

import dataclasses
import json

import numpy as np
import pytest
from conftest import masked_mean_ce, next_token_targets

from vlmforge.cli import main as cli_main
from vlmforge.corpus import (
    BlendSampler,
    ImageSegment,
    InterleavedDocument,
    PairSample,
    TextSegment,
    pair_as_document,
    subsample_topk,
    to_pairs,
)
from vlmforge.diagnostics import alignment_profile, chamfer_cosine
from vlmforge.evaluation import EvalItem, EvalTask, run_eval
from vlmforge.fixtures import FixtureSpec, fixture_gen, make_interleaved, make_pairs
from vlmforge.model import Model, ModelConfig, TransformerBlockProjector
from vlmforge.packing import (
    ByteTokenizer,
    bind_pixels,
    pack_document,
    pack_sft,
    pixels_for,
    tokens_per_image,
)
from vlmforge.trainer import (
    ALL_TRAINABLE,
    CAPTION_PROMPT,
    PRESET_TEXT_ONLY_FRACTION,
    PROJECTOR_ONLY,
    RecipeCorpora,
    RunLog,
    StagePlan,
    StageSpec,
    batched,
    document_sample_stream,
    preset_plan,
    run_recipe,
    run_stage,
)

from conftest import random_document

TOK = ByteTokenizer()


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:2d}: {status} - {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


def toy_cfg(seed=0, **overrides):
    fields = dict(resolution=16, patch=8, vision_dim=16, model_dim=32, ffn_dim=64,
                  vision_layers=1, llm_layers=2, heads=2,
                  projector=TransformerBlockProjector(), max_positions=96, seed=seed)
    fields.update(overrides)
    return ModelConfig(**fields)


def doc_batches(docs, cfg, batch_size=8, seed=0):
    sampler = BlendSampler([(docs, 1.0)], seed=seed)
    stream = document_sample_stream(iter(sampler), TOK, cfg, cfg.max_positions)
    return batched(stream, batch_size)


def test_criterion_01_freeze_policy_bitwise():
    docs = make_interleaved(FixtureSpec(n_docs=24, images_per_doc=2,
                                        tokens_per_image=16, n_pairs=0, seed=1))
    corpora = RecipeCorpora(docs, [p for d in docs for p in to_pairs(d, "best-sim")])
    plan, projector = preset_plan("a", steps=(50, 40, 10), batch_size=8)
    model = Model(toy_cfg(projector=projector))
    before = {g: model.group_checksum(g) for g in model.group_names()}
    run_recipe(plan, model, corpora, seed=0)
    frozen_ok = (model.group_checksum("llm") == before["llm"]
                 and model.group_checksum("vision") == before["vision"])

    stage0_model = Model(toy_cfg(seed=3))
    init = {g: stage0_model.group_checksum(g) for g in stage0_model.group_names()}
    stage = StageSpec("init-projector", PROJECTOR_ONLY, steps=20, lr=1e-2)
    run_stage(stage, stage0_model, doc_batches(corpora.interleaved, stage0_model.cfg))
    after = {g: stage0_model.group_checksum(g) for g in stage0_model.group_names()}
    stage0_ok = (after["projector"] != init["projector"]
                 and all(after[g] == init[g] for g in ("vision", "llm", "embed", "head")))

    report(1, "frozen parameter groups are bitwise unchanged across 100 steps",
           frozen_ok and stage0_ok)


def test_criterion_02_gradient_oracle():
    cfg = ModelConfig(resolution=16, patch=8, vision_dim=16, model_dim=16,
                      ffn_dim=32, vision_layers=2, llm_layers=2, heads=2,
                      projector=TransformerBlockProjector(), max_positions=48, seed=5)
    model = Model(cfg)
    # BOS + one 4-token image slot + 18 text bytes + EOS = 24 positions
    doc = InterleavedDocument("d", [ImageSegment("g"), TextSegment("gradient oracle ab")])
    [sample] = pack_document(doc, TOK, cfg.slot_length, cfg.max_positions)
    assert len(sample) == 24
    pixels = bind_pixels([sample], cfg.resolution)
    _, grads = model.loss_and_grads(sample, pixels)

    rng = np.random.default_rng(42)
    eps = 1e-3
    worst = 0.0
    for group in model.group_names():
        names = [n for n in model.params if model.group_of(n) == group]
        for _ in range(25):
            name = names[int(rng.integers(0, len(names)))]
            arr = model.params[name]
            idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            lp, _ = model.loss_and_grads(sample, pixels)
            arr[idx] = orig - eps
            lm, _ = model.loss_and_grads(sample, pixels)
            arr[idx] = orig
            fd = (lp - lm) / (2 * eps)
            an = grads[name][idx]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-7)
            worst = max(worst, rel)
    report(2, "analytic gradients match central differences on all groups",
           worst < 1e-3, f"worst relative error {worst:.2e}")


def test_criterion_03_loss_mask_contract():
    cfg = toy_cfg(seed=8)
    model = Model(cfg)
    doc = InterleavedDocument("d", [ImageSegment("m"), TextSegment("mask contract")])
    [sample] = pack_document(doc, TOK, cfg.slot_length, cfg.max_positions)
    pixels = bind_pixels([sample], cfg.resolution)
    logits = model.forward(sample, pixels).logits[:-1]
    targets, mask = next_token_targets(sample)
    base = masked_mean_ce(logits, targets, mask)
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(20):
        mutated = targets.copy()
        for i in np.flatnonzero(mask == 0):
            mutated[i] = rng.integers(0, cfg.vocab_size)
        ok = ok and masked_mean_ce(logits, mutated, mask) == base
    loss, _ = model.loss_and_grads(sample, pixels)
    ok = ok and abs(loss - base) <= 1e-12 * abs(base)
    report(3, "targets outside the loss mask never move the loss, and training "
           "takes that masked mean", ok, f"training loss {loss!r}, masked mean {base!r}")


def test_criterion_04_tokens_per_image():
    got = (tokens_per_image(336, 14, 1), tokens_per_image(224, 14, 1),
           tokens_per_image(336, 14, 2))
    report(4, "image token counts are 576 / 256 / 144 for the reference configs",
           got == (576, 256, 144), f"got {got}")


def best_sim_oracle(doc):
    """Exhaustive scan: highest score wins, ties to the lowest segment index."""
    out = []
    for _, img in doc.image_segments():
        best_idx, best_score = None, None
        for idx in sorted(img.sim_scores):
            score = img.sim_scores[idx]
            if best_score is None or score > best_score:
                best_idx, best_score = idx, score
        out.append((img.image_id, doc.segments[best_idx].text))
    return out


def test_criterion_05_mmc4_pairs_oracle():
    schematic = InterleavedDocument("d", [
        TextSegment("txt1"),
        ImageSegment("im1", {0: 0.1, 2: 0.9, 3: 0.2, 5: 0.3}),
        TextSegment("txt2"),
        TextSegment("txt3"),
        ImageSegment("im2", {0: 0.2, 2: 0.1, 3: 0.3, 5: 0.8}),
        TextSegment("txt4"),
    ])
    pairs = to_pairs(schematic, "best-sim")
    schematic_ok = [(p.image_id, p.caption) for p in pairs] == [
        ("im1", "txt2"), ("im2", "txt4")]

    rng = np.random.default_rng(7)
    mismatches = 0
    fuzzed = 0
    while fuzzed < 1000:
        doc = random_document(rng, f"fz{fuzzed}")
        if any(s.sim_scores is None for _, s in doc.image_segments()):
            continue  # image-only document, best-sim needs scores
        fuzzed += 1
        got = [(p.image_id, p.caption) for p in to_pairs(doc, "best-sim")]
        if got != best_sim_oracle(doc):
            mismatches += 1
    report(5, "image-text pairing matches the exhaustive-scan oracle",
           schematic_ok and mismatches == 0,
           f"{mismatches} mismatches over {fuzzed} documents")


def test_criterion_06_topk_oracle():
    failures = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        # coarse scores force plenty of ties
        pairs = [PairSample(f"p{i:05d}", "c", float(np.round(rng.uniform(0, 1), 2)))
                 for i in range(10_000)]
        rng.shuffle(pairs)
        k = int(rng.integers(1, 10_000))
        expected = sorted(pairs, key=lambda p: (-p.clip_score, p.image_id))[:k]
        got = subsample_topk(pairs, k)
        if [p.image_id for p in got] != [p.image_id for p in expected]:
            failures += 1
    report(6, "top-k subsampling equals full sort-and-truncate, ties included",
           failures == 0, f"{failures} failing seeds of 50")


def test_criterion_07_chamfer_metric():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(7, 12))
    self_ok = abs(chamfer_cosine(A, A) - 1.0) <= 1e-12
    ortho_ok = abs(chamfer_cosine(np.array([[1.0, 0.0]]),
                                  np.array([[0.0, 1.0]]))) <= 1e-12

    def double_loop(X, Y):
        def cos(a, b):
            return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        fwd = np.mean([max(cos(x, y) for y in Y) for x in X])
        bwd = np.mean([max(cos(x, y) for x in X) for y in Y])
        return 0.5 * (fwd + bwd)

    oracle_ok = True
    for _ in range(100):
        X = rng.normal(size=(rng.integers(1, 9), 10))
        Y = rng.normal(size=(rng.integers(1, 9), 10))
        oracle_ok = oracle_ok and abs(chamfer_cosine(X, Y) - double_loop(X, Y)) <= 1e-12

    # power-of-two scales are exact in float64, so invariance is bitwise
    B = rng.normal(size=(5, 12))
    sa = 2.0 ** rng.integers(-4, 5, size=(7, 1))
    sb = 2.0 ** rng.integers(-4, 5, size=(5, 1))
    rescale_ok = chamfer_cosine(A * sa, B * sb) == chamfer_cosine(A, B)

    report(7, "Chamfer cosine hits its oracles and invariances",
           self_ok and ortho_ok and oracle_ok and rescale_ok)


def train_on_docs(docs, cfg, steps, seed, lr=3e-3):
    model = Model(cfg)
    stage = StageSpec("pretrain", ALL_TRAINABLE, steps=steps, lr=lr, batch_size=8)
    log, _ = run_stage(stage, model, doc_batches(docs, cfg, seed=seed))
    return model, log


def test_criterion_08_interleave_beats_pairs():
    results = []
    for seed in range(3):
        spec = FixtureSpec(n_docs=300, images_per_doc=2, tokens_per_image=28,
                           n_pairs=0, seed=seed)
        docs = make_interleaved(spec)
        pair_docs = [pair_as_document(p) for d in docs for p in to_pairs(d, "best-sim")]
        cfg = toy_cfg(seed=seed)
        _, log_docs = train_on_docs(docs, cfg, 2000, seed)
        _, log_pairs = train_on_docs(pair_docs, cfg, 2000, seed)
        mean_docs = float(np.mean(log_docs.losses()[-500:]))
        mean_pairs = float(np.mean(log_pairs.losses()[-500:]))
        results.append((mean_docs, mean_pairs))
    ok = all(d < p for d, p in results)
    detail = "; ".join(f"seed {s}: {d:.3f} vs {p:.3f}"
                       for s, (d, p) in enumerate(results))
    report(8, "interleaved training beats its pairs conversion on final loss",
           ok, detail)


def deepest_alignment(model, docs):
    probe = [s for doc in docs[:8]
             for s in pack_document(doc, TOK, model.cfg.slot_length,
                                    model.cfg.max_positions)]
    pixels = bind_pixels(probe, model.cfg.resolution)
    return alignment_profile(model, probe, pixels).per_layer[-1]


def test_criterion_09_frozen_llm_aligns_no_better():
    results = []
    for seed in range(3):
        spec = FixtureSpec(n_docs=100, images_per_doc=2, tokens_per_image=24,
                           n_pairs=0, seed=seed)
        docs = make_interleaved(spec)
        cfg = toy_cfg(seed=seed)
        values = {}
        for label, policy in (("frozen", PROJECTOR_ONLY), ("trained", ALL_TRAINABLE)):
            model = Model(cfg)
            stage = StageSpec("pretrain", policy, steps=400, lr=3e-3, batch_size=8)
            run_stage(stage, model, doc_batches(docs, cfg, seed=seed))
            values[label] = deepest_alignment(model, docs)
        results.append(values)
    ok = all(v["frozen"] <= v["trained"] for v in results)
    detail = "; ".join(f"seed {s}: {v['frozen']:.3f} <= {v['trained']:.3f}"
                       for s, v in enumerate(results))
    report(9, "frozen-decoder deep alignment never exceeds the trained decoder",
           ok, detail)


def test_criterion_10_recipe_smoke(tmp_path):
    paths = fixture_gen(FixtureSpec(n_docs=40, images_per_doc=2,
                                    tokens_per_image=16, n_pairs=80, seed=2),
                        tmp_path / "fix")
    ok = True
    details = []
    for preset in "abcd":
        logs = []
        for attempt in ("run1", "run2"):
            out = tmp_path / f"{preset}-{attempt}"
            rc = cli_main(["train", "run", "--preset", preset,
                           "--corpus-a", str(paths["interleaved"]),
                           "--corpus-b", str(paths["pairs"]),
                           "--out", str(out), "--steps", "50,200,50",
                           "--seed", "5"])
            ok = ok and rc == 0
            for name in ("init-projector.ckpt", "pretrain.ckpt", "sft.ckpt",
                         "final.ckpt", "runlog.csv", "align.csv", "eval.csv"):
                ok = ok and (out / name).exists()
            log_bytes = (out / "runlog.csv").read_bytes()
            losses = RunLog.from_csv(log_bytes.decode()).losses()
            ok = ok and len(losses) == 300 and np.all(np.isfinite(losses))
            logs.append(log_bytes)
        identical = logs[0] == logs[1]
        ok = ok and identical
        details.append(f"{preset}: rerun {'identical' if identical else 'DIFFERS'}")
    report(10, "presets a-d run the full recipe and rerun byte-identically",
           ok, "; ".join(details))


def test_criterion_11_blend_calibration():
    many = [InterleavedDocument(f"many-{i}",
                                [ImageSegment(f"m{i}-{j}") for j in range(4)]
                                + [TextSegment("t")])
            for i in range(50)]
    single = [InterleavedDocument(f"one-{i}", [ImageSegment(f"s{i}"), TextSegment("t")])
              for i in range(50)]
    sampler = BlendSampler([(many, 0.5), (single, 0.5)], seed=0)
    counts = {"many": 0, "one": 0}
    for _ in range(100_000):
        doc = sampler.draw()
        counts[doc.doc_id.split("-")[0]] += doc.num_images
    share = counts["many"] / (counts["many"] + counts["one"])
    report(11, "1:1 image-proportion blend realizes a 0.50 image share",
           abs(share - 0.5) <= 0.02, f"share {share:.4f}")


def color_task(n_items=200, seed=0):
    colors = ["red", "blue", "green", "gold"]
    rng = np.random.default_rng(seed)
    items, demos = [], []
    for i in range(n_items):
        answer, distractor = (colors[j] for j in rng.choice(4, size=2, replace=False))
        image_id = f"img-{i:03d}"
        items.append(EvalItem(f"item-{i:03d}", "color: ", answer,
                              image_id=image_id, candidates=[answer, distractor]))
        demos.append((image_id, "color: ", answer))
    task = EvalTask("colors", items, [], "candidate-rank")
    return task, demos


def test_criterion_12_eval_chance_band_and_ceiling():
    cfg = toy_cfg(seed=0)
    task, demos = color_task()

    random_model = Model(cfg)
    random_acc = run_eval(random_model, task, 0, 0).accuracy

    overfit = Model(cfg)
    samples = [pack_sft(d, TOK, cfg.slot_length) for d in demos]

    def full_batches():
        while True:
            yield samples

    stage = StageSpec("sft", ALL_TRAINABLE, steps=300, lr=1e-2, warmup=10,
                      batch_size=len(samples))
    run_stage(stage, overfit, full_batches())
    overfit_acc = run_eval(overfit, task, 0, 0).accuracy

    report(12, "random weights score at chance and an overfit model scores 1.0",
           0.40 <= random_acc <= 0.60 and overfit_acc == 1.0,
           f"random {random_acc:.3f}, overfit {overfit_acc:.3f}")


def test_criterion_13_text_only_sft_keeps_text_ability():
    """Paper finding 3: re-blending text-only data into SFT restores the
    LLM's text-only ability. Preset c at 50/200/50 steps, with SFT's
    text-only share at 0 and at the preset's; both arms share every stage
    before SFT. Scored on 64 held-out caption pairs as the text-only demo
    stage_batches builds; their visual caption loss is reported, not held
    to a direction."""
    results = []
    for seed in range(3):
        spec = FixtureSpec(n_docs=40, images_per_doc=2, tokens_per_image=16, n_pairs=80,
                           seed=seed)
        corpora = RecipeCorpora(make_interleaved(spec), make_pairs(spec))
        plan, projector = preset_plan("c", steps=(50, 200, 50))
        cfg = ModelConfig(projector=projector, seed=seed)
        pretrained = Model(cfg)
        run_recipe(StagePlan(plan.stages[:2]), pretrained, corpora, seed)
        held_out = make_pairs(dataclasses.replace(spec, seed=100 + seed))[:64]
        text = [pack_sft((None, "Repeat after me: " + p.caption + " -> ", p.caption), TOK,
                         cfg.slot_length) for p in held_out]
        visual = [pack_sft((p.image_id, CAPTION_PROMPT, p.caption), TOK, cfg.slot_length)
                  for p in held_out]
        pixels = bind_pixels(visual, cfg.resolution)
        losses = {}
        for fraction in (0.0, PRESET_TEXT_ONLY_FRACTION):
            model = Model(cfg, pretrained.params)
            sft = dataclasses.replace(plan.stages[2], text_only_fraction=fraction)
            run_recipe(StagePlan([sft]), model, corpora, seed)
            losses[fraction] = (float(np.mean(model.sequence_loss(text))),
                                float(np.mean(model.sequence_loss(visual, pixels))))
        results.append(losses)
    blended = PRESET_TEXT_ONLY_FRACTION
    ok = all(arms[blended][0] < arms[0.0][0] for arms in results)
    detail = "; ".join(f"seed {s}: text {arms[0.0][0]:.3f} -> {arms[blended][0]:.3f}, "
                       f"visual {arms[0.0][1]:.3f} -> {arms[blended][1]:.3f}"
                       for s, arms in enumerate(results))
    report(13, f"a {blended:.2f} text-only share in SFT lowers held-out text-only loss",
           ok, detail)
