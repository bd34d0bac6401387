import ctypes
import dataclasses
import json
import logging
import platform
import re
import resource
import struct
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import appended, candidate_ce, masked_mean_ce, next_token_targets

from vlmforge import evaluation
from vlmforge import model as model_module
from vlmforge.corpus import ImageSegment, InterleavedDocument, TextSegment
from vlmforge.errors import ConfigMismatchError, VlmforgeError
from vlmforge.model import (
    Downsample,
    Linear,
    Model,
    ModelConfig,
    TransformerBlockProjector,
    _attn_fwd,
    _block_fwd,
    _gelu_fwd,
    _Layout,
    _linear_bwd,
    _ln_bwd,
    _ln_fwd,
    _softmax_,
    _xent_,
)
from vlmforge.packing import (
    IMAGE,
    TEXT,
    ByteTokenizer,
    ImageSlot,
    PackedSample,
    bind_pixels,
    pack_document,
    pack_sft,
    pixels_for,
)


def make_sample(tok, cfg, text="hello model", image_ids=("img-a",)):
    segs = []
    for iid in image_ids:
        segs.append(ImageSegment(iid))
    segs.append(TextSegment(text))
    doc = InterleavedDocument("d", segs)
    [sample] = pack_document(doc, tok, cfg.slot_length, cfg.max_positions)
    return sample


class TestEncodeImage:
    def test_token_count_336(self):
        cfg = ModelConfig(resolution=336, patch=14, vision_dim=8, model_dim=8,
                          ffn_dim=16, vision_layers=1, llm_layers=1, heads=2,
                          max_positions=600, seed=0)
        model = Model(cfg)
        out = model.encode_image(pixels_for("x", 336))
        assert out.shape == (576, 8)

    def test_zero_weights_give_zero_patch_embeddings(self, tiny_cfg):
        model = Model(tiny_cfg)
        model.params["vision.patch.w"][:] = 0
        model.params["vision.patch.b"][:] = 0
        model.params["vision.pos"][:] = 0
        flat = model._patchify(np.zeros((16, 16, 3)))
        entering = flat @ model.params["vision.patch.w"] + model.params["vision.patch.b"] + model.params["vision.pos"]
        assert np.all(entering == 0.0)

    def test_matches_straight_line_reimplementation(self, tiny_model):
        # independent patchify + matmul of the pre-block embedding
        rng = np.random.default_rng(0)
        pixels = rng.random((16, 16, 3))
        p = tiny_model.params
        expected = np.zeros((4, 16))
        for r in range(2):
            for c in range(2):
                patch = pixels[r * 8:(r + 1) * 8, c * 8:(c + 1) * 8, :].reshape(-1)
                expected[r * 2 + c] = patch @ p["vision.patch.w"] + p["vision.patch.b"]
        expected += p["vision.pos"]
        flat = tiny_model._patchify(pixels)
        got = flat @ p["vision.patch.w"] + p["vision.patch.b"] + p["vision.pos"]
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_shape_mismatch(self, tiny_model):
        with pytest.raises(ConfigMismatchError):
            tiny_model.encode_image(np.zeros((8, 8, 3)))


class TestProjector:
    def test_downsample_counts(self):
        cfg = ModelConfig(resolution=336, patch=14, vision_dim=8, model_dim=8,
                          ffn_dim=16, vision_layers=1, llm_layers=1, heads=2,
                          projector=Downsample(2), max_positions=600, seed=0)
        model = Model(cfg)
        out = model.project(np.random.default_rng(0).random((576, 8)))
        assert out.shape == (144, 8)

    def test_linear_identity(self):
        cfg = ModelConfig(vision_dim=16, model_dim=16, projector=Linear(), seed=0)
        model = Model(cfg)
        model.params["projector.w"] = np.eye(16)
        model.params["projector.b"][:] = 0
        x = np.random.default_rng(1).random((cfg.encoder_tokens, 16))
        np.testing.assert_array_equal(model.project(x), x)

    def test_downsample_index_coding_oracle(self):
        # tokens carry their own (row, col); each output must be the affine
        # image of the concatenation of its 2x2 neighborhood
        cfg = ModelConfig(resolution=32, patch=8, vision_dim=4, model_dim=8,
                          ffn_dim=8, vision_layers=1, llm_layers=1, heads=2,
                          projector=Downsample(2), max_positions=64, seed=0)
        model = Model(cfg)
        grid = cfg.encoder_grid
        coded = np.zeros((grid * grid, 4))
        for r in range(grid):
            for c in range(grid):
                coded[r * grid + c] = [r, c, r * grid + c, 1.0]
        out = model.project(coded)
        W = model.params["projector.w"]
        b = model.params["projector.b"]
        for r in range(grid // 2):
            for c in range(grid // 2):
                neighborhood = np.concatenate([
                    coded[(2 * r) * grid + 2 * c],
                    coded[(2 * r) * grid + 2 * c + 1],
                    coded[(2 * r + 1) * grid + 2 * c],
                    coded[(2 * r + 1) * grid + 2 * c + 1],
                ])
                np.testing.assert_allclose(
                    out[r * (grid // 2) + c], neighborhood @ W + b, atol=1e-12)

    def test_parameter_count_audit(self):
        counts = {}
        for variant in (Linear(), Downsample(2), TransformerBlockProjector(2)):
            cfg = ModelConfig(vision_dim=16, model_dim=24, ffn_dim=32,
                              projector=variant, heads=2, seed=0)
            counts[variant.kind] = Model(cfg).buffers["projector"].size
        assert counts["linear"] == 16 * 24 + 24
        assert counts["downsample"] == 4 * 16 * 24 + 24
        assert counts["transformer"] > counts["linear"]

    def test_wrong_token_count(self, tiny_model):
        with pytest.raises(ConfigMismatchError):
            tiny_model.project(np.zeros((7, 16)))


class TestForward:
    def test_causality_probe(self, tiny_model, tok):
        sample = make_sample(tok, tiny_model.cfg, "abcdefgh")
        pixels = bind_pixels([sample], 16)
        base = tiny_model.forward(sample, pixels).logits
        # mutate two future text positions
        mutated = PackedSample(sample.tokens.copy(), sample.modality_mask.copy(),
                               sample.loss_mask.copy(), list(sample.image_slots))
        mutated.tokens[-1] = ord("z")
        mutated.tokens[-2] = ord("q")
        out = tiny_model.forward(mutated, pixels).logits
        np.testing.assert_array_equal(base[:-2], out[:-2])
        assert not np.allclose(base[-1], out[-1])

    def test_causality_over_all_positions(self, tiny_model, tok):
        sample = make_sample(tok, tiny_model.cfg, "abcdef", image_ids=())
        base = tiny_model.forward(sample).logits
        L = len(sample)
        for i in range(1, L):
            mutated = PackedSample(sample.tokens.copy(), sample.modality_mask.copy(),
                                   sample.loss_mask.copy(), [])
            mutated.tokens[i] = (int(mutated.tokens[i]) + 1) % 256
            out = tiny_model.forward(mutated).logits
            np.testing.assert_array_equal(base[:i], out[:i])

    def test_text_only_matches_pure_text_decoder(self, tiny_cfg, tok):
        model = Model(tiny_cfg)
        sample = make_sample(tok, tiny_cfg, "pure text sample", image_ids=())
        got = model.forward(sample).logits
        # an independent decoder sharing only llm/embed/head params
        p = model.params
        x = p["embed.tok"][sample.tokens.astype(int)] + p["embed.pos"][:len(sample)]
        for i in range(tiny_cfg.llm_layers):
            x, _ = _block_fwd(x, p, f"llm.block{i}", tiny_cfg.heads, True, _Layout([len(x)]))
        normed, _ = _ln_fwd(x, p["llm.final_ln.g"], p["llm.final_ln.b"])
        want = normed @ p["head.w"] + p["head.b"]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_reference_forward_oracle(self, tok):
        # straight-line recomputation of the full multimodal forward pass
        cfg = ModelConfig(resolution=16, patch=8, vision_dim=16, model_dim=16,
                          ffn_dim=32, vision_layers=1, llm_layers=2, heads=2,
                          projector=Linear(), max_positions=32, seed=3)
        model = Model(cfg)
        sample = make_sample(tok, cfg, "ref", image_ids=("i",))
        pixels = bind_pixels([sample], 16)
        got = model.forward(sample, pixels).logits

        p = model.params
        flat = model._patchify(pixels["i"])
        v = flat @ p["vision.patch.w"] + p["vision.patch.b"] + p["vision.pos"]
        v, _ = _block_fwd(v, p, "vision.block0", cfg.heads, False, _Layout([len(v)]))
        proj = v @ p["projector.w"] + p["projector.b"]
        x = p["embed.tok"][sample.tokens.astype(int)].copy()
        slot = sample.image_slots[0]
        x[slot.start:slot.start + slot.length] = proj
        x += p["embed.pos"][:len(sample)]
        for i in range(2):
            x, _ = _block_fwd(x, p, f"llm.block{i}", cfg.heads, True, _Layout([len(x)]))
        normed, _ = _ln_fwd(x, p["llm.final_ln.g"], p["llm.final_ln.b"])
        want = normed @ p["head.w"] + p["head.b"]
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_hidden_capture_depth(self, tiny_model, tok):
        sample = make_sample(tok, tiny_model.cfg)
        trace = tiny_model.forward(sample, bind_pixels([sample], 16))
        assert len(trace.hidden) == tiny_model.cfg.llm_layers + 1

    def test_unbound_slot_errors(self, tiny_model, tok):
        sample = make_sample(tok, tiny_model.cfg)
        with pytest.raises(VlmforgeError, match="img-a"):
            tiny_model.forward(sample, {})

    def test_pixel_scaling_does_not_touch_text_path(self, tiny_model, tok):
        sample = make_sample(tok, tiny_model.cfg, "path probe")
        pixels = bind_pixels([sample], 16)
        base = tiny_model.forward(sample, pixels)
        scaled = {k: v * 0.5 for k, v in pixels.items()}
        out = tiny_model.forward(sample, scaled)
        slot = sample.image_slots[0]
        # hidden[0] differs only inside the image slot (pre-mixing)
        diff = np.abs(base.hidden[0] - out.hidden[0]).sum(axis=1)
        changed = diff > 0
        inside = np.zeros(len(sample), dtype=bool)
        inside[slot.start:slot.start + slot.length] = True
        assert changed[inside].all()
        assert not changed[~inside].any()


class TestLossAndGrads:
    def test_uniform_logits_loss(self, tiny_model, tok):
        sample = make_sample(tok, tiny_model.cfg, "abcd", image_ids=())
        tiny_model.params["head.w"][...] = 0.0  # every logit 0: a uniform softmax
        loss, _ = tiny_model.loss_and_grads(sample)
        assert loss == pytest.approx(np.log(260), abs=1e-12)
        assert tiny_model.sequence_loss(sample) == pytest.approx(np.log(260), abs=1e-12)

    def test_mask_contract_bit_identical(self, tok):
        """A batch's scored rows, targets and weights are exactly each
        sample's shifted ones: its row i predicts its token i + 1, weighed by
        that position's loss mask, and no row predicts across two samples."""
        cfg = TestBatchedPath.cfg(Linear())
        batch, pixels = TestBatchedPath.mixed_batch(tok, cfg)
        batch[3].loss_mask[5:9] = 0  # positions inside a sample that carry no loss
        one = np.zeros(1, dtype=np.uint8)
        batch.insert(2, PackedSample(np.array([tok.bos], dtype=np.uint32), one, one))
        model = Model(cfg)
        rows, targets, weights = model._forward(batch, pixels, False, scored=True).scored
        want = {"rows": [], "targets": [], "weights": []}
        offset = 0
        for sample in batch:
            shifted, mask = next_token_targets(sample)
            kept = np.flatnonzero(mask)
            want["rows"].append(offset + kept)
            want["targets"].append(shifted[kept])
            want["weights"].append(mask[kept].astype(np.float64))
            offset += len(sample)
        for name, got in (("rows", rows), ("targets", targets), ("weights", weights)):
            assert np.array_equal(got, np.concatenate(want[name])), name
        assert weights.dtype == np.float64

    def test_all_masked_flagged_zero(self, tiny_model, tok, caplog):
        sample = make_sample(tok, tiny_model.cfg, "x", image_ids=())
        sample.loss_mask[:] = 0
        loss, grads = tiny_model.loss_and_grads(sample)
        assert loss == 0.0
        assert all(np.all(g == 0) for g in grads.values())

    def test_modality_isolation(self, tiny_model, tok):
        sample = make_sample(tok, tiny_model.cfg, "no images here", image_ids=())
        _, grads = tiny_model.loss_and_grads(sample)
        for name, g in grads.items():
            group = name.split(".")[0]
            if group in ("vision", "projector"):
                assert np.all(g == 0.0), name
            elif group == "head":
                assert np.any(g != 0.0), name

    @staticmethod
    def assert_matches_finite_differences(model, sample, pixels):
        _, grads = model.loss_and_grads(sample, pixels)
        rng = np.random.default_rng(42)
        eps = 1e-5
        for group in model.group_names():
            names = [n for n in model.params if model.group_of(n) == group]
            for _ in range(8):
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
                denom = max(abs(fd), abs(an), 1e-7)
                assert abs(fd - an) / denom < 1e-3, (name, idx, fd, an)

    @pytest.mark.parametrize("variant", [Linear(), TransformerBlockProjector(2), Downsample(2)])
    def test_finite_difference_all_groups(self, tok, variant):
        cfg = ModelConfig(resolution=16, patch=8, vision_dim=16, model_dim=16,
                          ffn_dim=32, vision_layers=1, llm_layers=1, heads=2,
                          projector=variant, max_positions=48, seed=5)
        sample = make_sample(tok, cfg, "grad check!", image_ids=("a", "b"))
        self.assert_matches_finite_differences(Model(cfg), sample, bind_pixels([sample], 16))

    def test_finite_difference_with_one_row_vision_layer_norms(self, tok):
        """An image of one patch is one encoder row and one slot row, so the
        vision and projector LayerNorms train on single rows, the path that
        takes each row's statistics as scalars."""
        cfg = ModelConfig(resolution=8, patch=8, vision_dim=16, model_dim=16,
                          ffn_dim=32, vision_layers=1, llm_layers=1, heads=2,
                          projector=TransformerBlockProjector(2), max_positions=48, seed=5)
        assert cfg.encoder_tokens == cfg.slot_length == 1
        sample = make_sample(tok, cfg, "grad check!", image_ids=("a",))
        self.assert_matches_finite_differences(Model(cfg), sample, bind_pixels([sample], 8))

    def test_batch_loss_is_position_weighted_mean(self, tiny_model, tok):
        a = make_sample(tok, tiny_model.cfg, "short", image_ids=())
        b = make_sample(tok, tiny_model.cfg, "a considerably longer sample", image_ids=())
        loss_batch, _ = tiny_model.loss_and_grads([a, b])
        ta, ma = next_token_targets(a)
        tb, mb = next_token_targets(b)
        ca = masked_mean_ce(tiny_model.forward(a).logits[:-1], ta, ma) * ma.sum()
        cb = masked_mean_ce(tiny_model.forward(b).logits[:-1], tb, mb) * mb.sum()
        want = (ca + cb) / (ma.sum() + mb.sum())
        assert loss_batch == pytest.approx(want, rel=1e-12)


class TestGenerate:
    def test_max_new_zero(self, tiny_model, tok):
        sample = make_sample(tok, tiny_model.cfg, "prefix", image_ids=())
        assert tiny_model.generate(sample, max_new=0) == []

    def test_max_new_zero_refuses_what_prefill_refuses(self, tiny_model, tok):
        good = make_sample(tok, tiny_model.cfg, "prefix", image_ids=("img",))
        pixels = bind_pixels([good], tiny_model.cfg.resolution)
        cases = [(PackedSample(good.tokens[:0], good.modality_mask[:0], good.loss_mask[:0]),
                  pixels),  # empty
                 (dataclasses.replace(good, loss_mask=good.loss_mask[:-1]), pixels),
                 (dataclasses.replace(good, image_slots=[]), pixels),  # IMAGE rows, no slot
                 (good, {}),  # an unbound slot
                 (good, {"img": pixels["img"][:8, :8]})]  # pixels of another resolution
        for sample, pix in cases:
            with pytest.raises(VlmforgeError) as refused:
                tiny_model.prefill(sample, pix)
            with pytest.raises(type(refused.value), match=re.escape(str(refused.value))):
                tiny_model.generate(sample, pix, max_new=0)
        assert tiny_model.generate(good, pixels, max_new=0) == []

    @pytest.mark.parametrize("max_new", [-1, -3])
    def test_negative_max_new_rejected_before_prefill(self, tiny_model, tok, monkeypatch, max_new):
        sample = make_sample(tok, tiny_model.cfg, "prefix", image_ids=())
        calls = []
        monkeypatch.setattr(tiny_model, "prefill", lambda *args: calls.append(args))
        with pytest.raises(ConfigMismatchError, match="max_new"):
            tiny_model.generate(sample, max_new=max_new)
        assert calls == []

    def test_deterministic(self, tiny_model, tok):
        sample = make_sample(tok, tiny_model.cfg, "prefix", image_ids=())
        a = tiny_model.generate(sample, max_new=8)
        b = tiny_model.generate(sample, max_new=8)
        assert a == b

    def test_overflow_guard(self, tiny_model, tok):
        sample = make_sample(tok, tiny_model.cfg, "p" * 40, image_ids=())
        with pytest.raises(ConfigMismatchError):
            tiny_model.generate(sample, max_new=1000)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, tok):
        cfg = ModelConfig(seed=9, dtype="float32")
        model = Model(cfg)
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(path)
        loaded = Model.load_checkpoint(path)
        assert loaded.cfg == cfg
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])

    def test_cfg_mismatch_rejected(self, tmp_path):
        model = Model(ModelConfig(seed=1))
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(path)
        with pytest.raises(ConfigMismatchError):
            Model.load_checkpoint(path, expect_cfg=ModelConfig(seed=2))

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"junk")
        with pytest.raises(VlmforgeError):
            Model.load_checkpoint(path)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        Model(ModelConfig(seed=1)).save_checkpoint(path)
        data = path.read_bytes()
        (cfg_len,) = struct.unpack("<I", data[12:16])
        buffers_at = 16 + cfg_len  # the group buffers follow the config
        cuts = {"magic": 5, "header": 12, "config": 16 + cfg_len // 2,
                "first buffer": buffers_at + 3, "last byte": len(data) - 1}
        for cut in cuts.values():
            path.write_bytes(data[:cut])
            with pytest.raises(VlmforgeError, match="truncated|not a VLMCKPT"):
                Model.load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        model = Model(ModelConfig(seed=1))
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(path)
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        assert path.stat().st_mode == plain.stat().st_mode
        before = path.read_bytes()
        # the last group buffer (vision, groups sorted) cannot be converted to
        # float, so the write fails after the header and the other buffers
        model.buffers["vision"] = np.array(["not a number"])
        with pytest.raises(ValueError):
            model.save_checkpoint(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "plain"]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_round_trip_is_exact_at_the_model_dtype(self, tmp_path, dtype):
        model = Model(ModelConfig(seed=9, projector=TransformerBlockProjector(), dtype=dtype))
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(path)
        loaded = Model.load_checkpoint(path)
        assert loaded.cfg == model.cfg
        assert loaded.params.keys() == model.params.keys()
        for name, arr in model.params.items():
            assert loaded.params[name].dtype == arr.dtype, name
            assert np.array_equal(loaded.params[name], arr), name

    def test_checkpoint_holds_only_config_and_buffers(self, tmp_path):
        model = Model(ModelConfig(seed=3))
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(path)
        data = path.read_bytes()
        (cfg_len,) = struct.unpack("<I", data[12:16])
        assert data[16 + cfg_len:] == b"".join(
            model.buffers[g].astype("<f8").tobytes() for g in sorted(model.buffers))
        assert b"embed.tok" not in data

    def test_undecodable_config_rejected_naming_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        Model(ModelConfig(seed=1)).save_checkpoint(path)
        data = path.read_bytes()
        path.write_bytes(data[:16] + b"}" + data[17:])  # the config JSON's first byte
        with pytest.raises(VlmforgeError, match="bad checkpoint config") as exc:
            Model.load_checkpoint(path)
        assert str(path) in str(exc.value)

    def test_config_that_implies_more_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        Model(ModelConfig(seed=1)).save_checkpoint(path)
        data = path.read_bytes()
        (cfg_len,) = struct.unpack("<I", data[12:16])
        cfg = json.loads(data[16 : 16 + cfg_len])
        cfg["vocab_size"] = 10**9  # the file holds far fewer bytes than this implies
        raw = json.dumps(cfg, sort_keys=True).encode()
        path.write_bytes(data[:12] + struct.pack("<I", len(raw)) + raw + data[16 + cfg_len:])
        with pytest.raises(VlmforgeError, match="truncated checkpoint"):
            Model.load_checkpoint(path)


class TestGivenParams:
    def test_wrong_name_rejected(self):
        params = dict(Model(ModelConfig(seed=2)).params)
        params["embed.position"] = params.pop("embed.pos")
        with pytest.raises(ConfigMismatchError, match="embed.pos"):
            Model(ModelConfig(seed=2), params)

    def test_wrong_shape_rejected(self):
        cfg = ModelConfig(seed=2)
        params = dict(Model(cfg).params)
        params["llm.block0.attn.wq"] = np.zeros(cfg.model_dim)  # would broadcast into (D, D)
        with pytest.raises(ConfigMismatchError, match="llm.block0.attn.wq"):
            Model(cfg, params)


class TestConfigJson:
    @pytest.mark.parametrize("variant", [Linear(), TransformerBlockProjector(4), Downsample(1)])
    def test_round_trip(self, variant):
        cfg = ModelConfig(projector=variant, seed=3)
        assert ModelConfig.from_json(cfg.to_json()) == cfg

    def test_partial_objects_take_defaults(self):
        assert ModelConfig.from_json({}) == ModelConfig()
        assert (ModelConfig.from_json({"projector": "downsample", "seed": 2})
                == ModelConfig(projector=Downsample(), seed=2))
        assert (ModelConfig.from_json({"projector": {"kind": "transformer", "heads": 4}})
                == ModelConfig(projector=TransformerBlockProjector(heads=4)))

    @pytest.mark.parametrize("obj", [
        [1, 2],
        {"model_dims": 8},
        {"projector": "conv"},
        {"projector": 3},
        {"projector": {"heads": 2}},
        {"projector": {"kind": "linear", "factor": 2}},
    ])
    def test_malformed_rejected(self, obj):
        with pytest.raises(ConfigMismatchError):
            ModelConfig.from_json(obj)


class TestConfigSizes:
    @pytest.mark.parametrize("key,value", [
        ("resolution", 0), ("patch", 0), ("vision_dim", 0), ("model_dim", -4),
        ("ffn_dim", 0), ("heads", 0), ("vocab_size", 0), ("max_positions", 0),
        ("vision_layers", -1), ("llm_layers", -1),
    ])
    def test_size_below_minimum_rejected(self, key, value):
        message = f"^{key} must be at least [01], not {value}$"
        with pytest.raises(ConfigMismatchError, match=message):
            ModelConfig(**{key: value})
        with pytest.raises(ConfigMismatchError, match=key):
            ModelConfig.from_json({key: value})

    @pytest.mark.parametrize("projector,key", [
        (TransformerBlockProjector(heads=0), "projector heads"),
        (Downsample(factor=0), "projector factor"),
    ])
    def test_projector_size_below_one_rejected(self, projector, key):
        with pytest.raises(ConfigMismatchError, match=f"^{key} must be at least 1, not 0$"):
            ModelConfig(projector=projector)

    def test_zero_layers_accepted(self):
        cfg = ModelConfig(vision_layers=0, llm_layers=0)
        assert (cfg.vision_layers, cfg.llm_layers) == (0, 0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(1, 32), (300, 32), (528, 16)])
def test_layer_norm_equals_ndarray_mean_reference(dtype, shape):
    rng = np.random.default_rng(3)
    x, dout = (rng.normal(size=shape).astype(dtype) for _ in range(2))
    g, b = (rng.normal(size=shape[-1]).astype(dtype) for _ in range(2))
    eps = 1e-5
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    dxhat = dout * g
    want_dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                     - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    out, cache = _ln_fwd(x, g, b)
    assert out.dtype == dtype
    assert np.array_equal(out, xhat * g + b)
    assert np.array_equal(_ln_bwd(dout, cache, None, "ln"), want_dx)


@settings(max_examples=200, deadline=None)
@given(dtype=st.sampled_from([np.float64, np.float32]), rows=st.integers(2, 6),
       width=st.sampled_from([16, 32, 48, 64]), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 50.0), shift=st.floats(-3.0, 3.0))
def test_one_row_layer_norm_is_its_row_of_the_batched_one(dtype, rows, width, seed, scale, shift):
    """A single row's scalar statistics give, bit for bit, what that row
    gets inside a batch of rows: output, xhat and inv forward; and backward
    from its scalar cache, the dx and g and b gradients of its (1, 1) one."""
    rng = np.random.default_rng(seed)
    x = ((rng.normal(size=(rows, width)) + shift) * scale).astype(dtype)
    dout = rng.normal(size=(rows, width)).astype(dtype)
    g, b = (rng.normal(size=width).astype(dtype) for _ in range(2))
    out, (xhat, inv, _) = _ln_fwd(x, g, b)
    for i in range(rows):
        row = slice(i, i + 1)
        out_i, cache_i = _ln_fwd(x[row], g, b)
        assert type(cache_i[1]) is np.dtype(dtype).type  # a scalar, not a (1, 1) array
        assert out_i.dtype == dtype
        assert np.array_equal(out_i, out[row])
        assert np.array_equal(cache_i[0], xhat[row])
        assert np.array_equal(cache_i[1], inv[i, 0])
        grads = [{"ln.g": np.zeros_like(g), "ln.b": np.zeros_like(b)} for _ in range(2)]
        dx = [_ln_bwd(dout[row], cache, into, "ln")
              for cache, into in zip([cache_i, (xhat[row], inv[row], g)], grads)]
        assert dx[0].dtype == dtype
        assert np.array_equal(dx[0], dx[1])
        for name in ("ln.g", "ln.b"):
            assert np.array_equal(grads[0][name], grads[1][name])


@settings(max_examples=100, deadline=None)
@given(dtype=st.sampled_from([np.float64, np.float32]), rows=st.integers(1, 9),
       width=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 50.0))
def test_hot_reductions_equal_ndarray_method_references(dtype, rows, width, seed, scale):
    """`_softmax_`, `_xent_`, `_ln_bwd` and `_linear_bwd` reduce through
    np.maximum.reduce and np.add.reduce; each gives, bit for bit, what its
    form with ndarray.max and ndarray.sum gives."""
    rng = np.random.default_rng(seed)
    a, dout, xhat = ((rng.normal(size=(rows, width)) * scale).astype(dtype) for _ in range(3))
    masked = a.copy()
    masked[:, 1:][rng.random((rows, width - 1)) < 0.3] = -np.inf  # as a causal mask leaves it
    want = masked - masked.max(axis=-1, keepdims=True)
    np.exp(want, out=want)
    want /= want.sum(axis=-1, keepdims=True)
    assert np.array_equal(_softmax_(masked.copy()), want)

    targets = rng.integers(0, width, size=rows)
    picked_rows = np.arange(rows)
    want = a - a.max(axis=-1, keepdims=True)
    picked = want[picked_rows, targets]
    np.exp(want, out=want)
    z = want.sum(axis=-1)
    want /= z[:, None]
    want[picked_rows, targets] -= 1.0
    logits = a.copy()
    assert np.array_equal(_xent_(logits, targets), np.log(z) - picked)
    assert np.array_equal(logits, want)

    g = rng.normal(size=width).astype(dtype)
    grads = {"ln.g": np.zeros(width, dtype), "ln.b": np.zeros(width, dtype),
             "w": np.zeros((width, width), dtype), "b": np.zeros(width, dtype)}
    _ln_bwd(dout, (xhat, dtype(1.5), g), grads, "ln")
    _linear_bwd(dout, a, None, grads, "w", "b", need_dx=False)
    assert np.array_equal(grads["ln.g"], (dout * xhat).sum(axis=0))
    assert np.array_equal(grads["ln.b"], dout.sum(axis=0))
    assert np.array_equal(grads["b"], dout.sum(axis=0))


class TestParameterBuffers:
    def test_params_are_views_into_sorted_group_buffers(self):
        model = Model(ModelConfig(seed=2))
        assert list(model.buffers) == sorted(model.buffers) == model.group_names()
        for group, buf in model.buffers.items():
            names = [n for n in model.params if model.group_of(n) == group]
            assert names == sorted(names)
            assert buf.ndim == 1 and buf.flags.c_contiguous
            assert buf.size == sum(model.params[n].size for n in names)
            for name in names:
                assert np.shares_memory(model.params[name], buf), name
            assert np.array_equal(np.concatenate([model.params[n] for n in names], axis=None),
                                  buf)

    def test_given_params_are_copied(self):
        params = Model(ModelConfig(seed=2)).params
        given = {n: a.copy() for n, a in reversed(params.items())}
        model = Model(ModelConfig(seed=2), given)
        for name, arr in given.items():
            assert not np.shares_memory(model.params[name], arr), name
            assert np.array_equal(model.params[name], params[name]), name
        given["head.w"][:] = 0.0
        assert np.array_equal(model.params["head.w"], params["head.w"])

    def test_loaded_checkpoint_params_are_buffer_views(self, tmp_path):
        path = tmp_path / "m.ckpt"
        Model(ModelConfig(seed=9, dtype="float32")).save_checkpoint(path)
        loaded = Model.load_checkpoint(path)
        for name, arr in loaded.params.items():
            assert arr.dtype == np.float32
            assert np.shares_memory(arr, loaded.buffers[loaded.group_of(name)]), name


def test_init_is_seed_deterministic():
    a = Model(ModelConfig(seed=4)).params
    b = Model(ModelConfig(seed=4)).params
    c = Model(ModelConfig(seed=5)).params
    assert all(np.array_equal(a[n], b[n]) for n in a)
    assert any(not np.array_equal(a[n], c[n]) for n in a)


class TestBatchedPath:
    """The batched pass against single-sample calls and the freeze-aware backward."""

    @staticmethod
    def cfg(variant):
        return ModelConfig(resolution=16, patch=8, vision_dim=16, model_dim=32,
                           ffn_dim=64, vision_layers=1, llm_layers=2, heads=2,
                           projector=variant, max_positions=96, seed=11)

    @staticmethod
    def mixed_batch(tok, cfg):
        def pair(image_id, caption):
            doc = InterleavedDocument(image_id, [ImageSegment(image_id), TextSegment(caption)])
            [sample] = pack_document(doc, tok, cfg.slot_length, cfg.max_positions)
            return sample

        caption = "a caption of 22 bytes."
        batch = [
            pair("pair-a", caption),
            pair("pair-b", caption[::-1]),
            make_sample(tok, cfg, "two images, one document", image_ids=("doc-1", "doc-2")),
            make_sample(tok, cfg, "text only, no image at all", image_ids=()),
            pair("shared", "the first use of it"),
            make_sample(tok, cfg, "the shared image again", image_ids=("doc-3", "shared")),
        ]
        return batch, bind_pixels(batch, cfg.resolution)

    @staticmethod
    def assert_equals_weighted_single_sample_calls(model, batch, pixels):
        loss, grads = model.loss_and_grads(batch, pixels)
        weights = [float(next_token_targets(s)[1].sum()) for s in batch]
        want_loss = 0.0
        want = {name: np.zeros_like(g) for name, g in grads.items()}
        for sample, weight in zip(batch, weights):
            single_loss, single = model.loss_and_grads(sample, pixels)
            want_loss += weight * single_loss / sum(weights)
            for name, g in single.items():
                want[name] += weight * g / sum(weights)
        assert abs(loss - want_loss) <= 1e-10 * abs(want_loss)
        # key biases have an analytically zero gradient, so their arrays hold
        # rounding noise only; the floor keeps them from dividing noise by noise
        floor = 1e-10 * max(np.abs(g).max() for g in want.values())
        for name, g in want.items():
            assert np.abs(grads[name] - g).max() <= max(1e-10 * np.abs(g).max(), floor), name

    @pytest.mark.parametrize("variant", [Linear(), TransformerBlockProjector(2), Downsample(2)])
    def test_batch_equals_weighted_single_sample_calls(self, tok, variant):
        cfg = self.cfg(variant)
        batch, pixels = self.mixed_batch(tok, cfg)
        if cfg.slot_length == 4:
            assert [len(s) for s in batch[:2]] == [28, 28]
        self.assert_equals_weighted_single_sample_calls(Model(cfg), batch, pixels)

    @pytest.mark.parametrize("policy", ["PROJECTOR_ONLY", "ALL_TRAINABLE"])
    def test_trainable_groups_only_and_bitwise_equal(self, tok, policy):
        from vlmforge import trainer

        trainable = getattr(trainer, policy).trainable
        cfg = self.cfg(TransformerBlockProjector(2))
        model = Model(cfg)
        batch, pixels = self.mixed_batch(tok, cfg)
        loss_all, every = model.loss_and_grads(batch, pixels)
        loss, grads = model.loss_and_grads(batch, pixels, trainable=trainable)
        assert loss == loss_all
        assert set(grads) == {n for n in model.params if model.group_of(n) in trainable}
        for name, g in grads.items():
            assert np.array_equal(g, every[name]), name

    @pytest.mark.parametrize("variant", [Linear(), TransformerBlockProjector(2), Downsample(2)])
    def test_image_stack_equals_per_image_calls(self, variant):
        cfg = self.cfg(variant)
        model = Model(cfg)
        stack = np.stack([pixels_for(f"img-{i}", cfg.resolution) for i in range(5)])
        encoded = model.encode_image(stack)
        projected = model.project(encoded)
        assert encoded.shape == (5, cfg.encoder_tokens, cfg.vision_dim)
        assert projected.shape == (5, cfg.slot_length, cfg.model_dim)
        for i in range(5):
            single = model.encode_image(stack[i])
            np.testing.assert_allclose(encoded[i], single, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(projected[i], model.project(single),
                                       rtol=1e-12, atol=1e-15)

    def test_batched_sequence_loss_equals_single_calls(self, tok):
        cfg = self.cfg(TransformerBlockProjector(2))
        model = Model(cfg)
        batch, pixels = self.mixed_batch(tok, cfg)
        losses = model.sequence_loss(batch, pixels)
        assert losses.shape == (len(batch),)
        for sample, got in zip(batch, losses):
            assert got == pytest.approx(model.sequence_loss(sample, pixels), rel=1e-12)

    @pytest.mark.parametrize("entry", ["sequence_loss", "loss_and_grads"])
    def test_empty_sample_rejected_before_any_block(self, tok, monkeypatch, entry):
        """The entries that read a loss mask refuse an empty sample, masks
        shorter than the tokens on either side, and a mask value other than
        0 and 1 before any block runs; the gate table in
        test_sample_contract.py holds these cases for every entry."""
        model = Model(self.cfg(Linear()))
        tokens = np.array([tok.bos, 1, 2, 3, 4], dtype=np.uint32)

        def masks(n, *values):
            return np.array(values or [0] * n, dtype=np.uint8)

        doc = InterleavedDocument("d", [ImageSegment("img"), TextSegment("ABCD")])
        [imaged] = pack_document(doc, tok, model.cfg.slot_length, model.cfg.max_positions)
        pixels = bind_pixels([imaged], model.cfg.resolution)
        image_loss = imaged.loss_mask | (imaged.modality_mask == IMAGE)
        cases = [(PackedSample(tokens[:0], masks(0), masks(0)), "empty sample"),
                 (PackedSample(tokens, masks(4), masks(5)), "mask lengths"),
                 (PackedSample(tokens, masks(5), masks(3)), "mask lengths"),
                 (PackedSample(tokens, masks(5, 0, 3, 0, 0, 0), masks(5, 0, 1, 1, 1, 1)),
                  "modality mask holds"),
                 (PackedSample(tokens, masks(5), masks(5, 0, 2, 1, 1, 1)), "loss mask holds"),
                 (dataclasses.replace(imaged, loss_mask=image_loss.astype(np.uint8)),
                  "loss mask must be 0 at IMAGE positions"),
                 (PackedSample(tokens, masks(5), masks(5, 1, 1, 1, 1, 1)),
                  "loss mask must be 0 at position 0")]
        calls = []
        monkeypatch.setattr(model_module, "_block_fwd", lambda *args: calls.append(args[2]))
        for sample, message in cases:
            with pytest.raises(ConfigMismatchError, match=message):
                getattr(model, entry)(sample, pixels)
        assert calls == []

    @pytest.mark.parametrize("entry", ["sequence_loss", "loss_and_grads"])
    def test_image_slots_must_match_the_sample(self, tok, monkeypatch, entry):
        """IMAGE positions are exactly the rows of the sample's own slots, each
        covered once, in a batch of the default config: a slot past its
        sample's end, first or last in the batch, a negative slot start,
        overlapping slots and IMAGE rows with no slot are refused before
        any block runs."""
        model = Model(ModelConfig())
        S = model.cfg.slot_length
        tokens = np.array([tok.bos, *tok.encode("ABCDEFGH")], dtype=np.uint32)

        def sample(n, image_rows, *slots):
            modality = np.zeros(n, dtype=np.uint8)
            modality[list(image_rows)] = IMAGE
            loss = np.ones(n, dtype=np.uint8) - modality
            loss[0] = 0
            return PackedSample(tokens[:n], modality, loss,
                                [ImageSlot(start, S, "img") for start in slots])

        text = sample(5, [])
        past_end = sample(5, [3, 4], 3)
        cases = [([sample(5, [1])], "IMAGE positions"),
                 ([past_end, text], "out of bounds"),
                 ([text, past_end], "out of bounds"),
                 ([sample(5, [0, 1, 2, 3], -1)], "out of bounds"),
                 ([sample(9, range(1, 3 + S), 1, 3)], "IMAGE positions"),  # overlapping slots
                 ([sample(9, range(1, 1 + S)), text], "IMAGE positions")]  # slot-less IMAGE rows
        pixels = {"img": pixels_for("img", model.cfg.resolution)}
        calls = []
        monkeypatch.setattr(model_module, "_block_fwd", lambda *args: calls.append(args[2]))
        for batch, message in cases:
            with pytest.raises(ConfigMismatchError, match=message):
                getattr(model, entry)(batch, pixels)
        assert calls == []

    def test_training_step_fuses_each_attention_block_once(self, tok, monkeypatch,
                                                           in_process_halves):
        """Backward reuses the QKV weights its forward fused: each of the
        batch's two halves fuses each block once."""
        cfg = self.cfg(TransformerBlockProjector(2))
        batch, pixels = self.mixed_batch(tok, cfg)
        fused, qkv_weights = [], model_module._qkv_weights
        monkeypatch.setattr(model_module, "_qkv_weights",
                            lambda p, prefix: (fused.append(prefix), qkv_weights(p, prefix))[1])
        Model(cfg).loss_and_grads(batch, pixels)  # every group trains, the encoder too
        assert sorted(fused) == sorted(2 * ["llm.block0.attn", "llm.block1.attn",
                                            "projector.block.attn", "vision.block0.attn"])

    def test_float32_gradients(self, tok):
        cfg = dataclasses.replace(self.cfg(TransformerBlockProjector(2)), dtype="float32")
        model = Model(cfg)
        batch, pixels = self.mixed_batch(tok, cfg)
        loss, grads = model.loss_and_grads(batch, pixels)
        assert np.isfinite(loss)
        assert all(g.dtype == np.float32 for g in grads.values())
        assert model.forward(batch[2], pixels).logits.dtype == np.float32

    @pytest.mark.parametrize("dtype", ["bf16", "float16", "fp32", ""])
    def test_unknown_dtype_rejected(self, dtype):
        with pytest.raises(ConfigMismatchError, match="dtype"):
            ModelConfig(dtype=dtype)


class TestGroupedAttention:
    """Mixed-length batches attend within equal-length groups, with no padding."""

    LENGTHS = (28, 66, 28, 40, 66, 40)

    @classmethod
    def interleaved_batch(cls, tok, cfg):
        # one image per 28- or 40-position sample, two per 66-position one
        batch = []
        for i, length in enumerate(cls.LENGTHS):
            images = tuple(f"img-{i}-{j}" for j in range(1 + (length == 66)))
            text = "x" * (length - 2 - cfg.slot_length * len(images))
            batch.append(make_sample(tok, cfg, text, image_ids=images))
        assert tuple(len(s) for s in batch) == cls.LENGTHS
        return batch, bind_pixels(batch, cfg.resolution)

    def test_layout_groups_by_length(self):
        layout = _Layout(self.LENGTHS)
        assert layout.N == sum(self.LENGTHS)
        starts = np.cumsum(self.LENGTHS) - self.LENGTHS
        for L, B, rows in layout.groups:
            members = [s for s, n in zip(starts, self.LENGTHS) if n == L]
            assert B == len(members)
            assert np.array_equal(rows, np.concatenate([np.arange(s, s + L) for s in members]))
        assert [L for L, _, _ in layout.groups] == [28, 40, 66]
        assert _Layout([5, 5, 5]).groups == [(5, 3, None)]

    def test_forward_equals_single_sample_calls(self, tok):
        cfg = TestBatchedPath.cfg(TransformerBlockProjector(2))
        model = Model(cfg)
        batch, pixels = self.interleaved_batch(tok, cfg)
        traces = model.forward(batch, pixels)
        for sample, trace in zip(batch, traces):
            want = model.forward(sample, pixels).logits
            assert np.abs(trace.logits - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("variant", [Linear(), TransformerBlockProjector(2), Downsample(2)])
    def test_loss_and_grads_equal_weighted_single_sample_calls(self, tok, variant):
        cfg = TestBatchedPath.cfg(variant)
        batch, pixels = self.interleaved_batch(tok, cfg)
        TestBatchedPath.assert_equals_weighted_single_sample_calls(Model(cfg), batch, pixels)

    @pytest.mark.parametrize("causal", [False, True])
    def test_attention_over_mixed_lengths_equals_per_sequence_calls(self, causal):
        cfg = TestBatchedPath.cfg(Linear())
        p = Model(cfg).params
        x = np.random.default_rng(5).normal(size=(sum(self.LENGTHS), cfg.model_dim))
        got, _ = _attn_fwd(x, p, "llm.block0.attn", cfg.heads, causal, _Layout(self.LENGTHS))
        start = 0
        for n in self.LENGTHS:
            want, _ = _attn_fwd(x[start : start + n], p, "llm.block0.attn", cfg.heads, causal,
                                _Layout([n]))
            np.testing.assert_allclose(got[start : start + n], want, rtol=1e-12, atol=1e-14)
            start += n


class TestKVCache:
    """Prefill and extend against the uncached forward they replace."""

    @staticmethod
    def two_image_sample(tok, cfg):
        sample = make_sample(tok, cfg, "two images, then the text", image_ids=("doc-1", "doc-2"))
        return sample, bind_pixels([sample], cfg.resolution)

    @staticmethod
    def reference_generate(model, prefix, pixels, max_new):
        """Greedy decoding by a full forward per token."""
        out = []
        for _ in range(max_new):
            logits = model.forward(appended(prefix, out), pixels).logits
            nxt = int(np.argmax(logits[-1]))
            if nxt == ByteTokenizer().eos:
                break
            out.append(nxt)
        return out

    @staticmethod
    def head(sample, n):
        """The first n positions of `sample`, with the image slots that fit."""
        return PackedSample(sample.tokens[:n], sample.modality_mask[:n], sample.loss_mask[:n],
                            [slot for slot in sample.image_slots if slot.start + slot.length <= n])

    @pytest.mark.parametrize("variant", [Linear(), TransformerBlockProjector(2), Downsample(2)])
    def test_prefill_then_extend_equals_forward(self, tok, variant):
        cfg = TestBatchedPath.cfg(variant)
        model = Model(cfg)
        sample, pixels = self.two_image_sample(tok, cfg)
        text_start = max(slot.start + slot.length for slot in sample.image_slots)
        # the prefill stops on the last IMAGE row, inside the text, on the
        # row before the last, or after BOS alone (an extension feeds text
        # rows only, so that sample has no image)
        cases = [(sample, pixels, split) for split in
                 (text_start, text_start + 7, len(sample) - 1)]
        cases.append((make_sample(tok, cfg, "text after BOS", image_ids=()), {}, 1))
        for sample, pixels, split in cases:
            want = model.forward(sample, pixels).logits
            kv, last = model.prefill(self.head(sample, split), pixels)
            got = np.vstack([last, model.extend(kv, sample.tokens[split:])])
            assert kv.length == len(sample)
            err = np.abs(got - want[split - 1 :]).max()
            assert err <= 1e-12 * np.abs(want).max(), (split, err)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_generate_equals_reference_loop(self, tok, dtype):
        cfg = dataclasses.replace(TestBatchedPath.cfg(TransformerBlockProjector(2)), dtype=dtype)
        model = Model(cfg)
        prefix, pixels = self.two_image_sample(tok, cfg)
        max_new = 12
        want = self.reference_generate(model, prefix, pixels, max_new)
        assert len(want) == max_new
        assert model.generate(prefix, pixels, max_new) == want
        # EOS scores as a token first generated at step `stop`, plus a margin,
        # so greedy decoding now stops with EOS there or earlier
        stop = next(i for i in range(4, max_new) if want[i] not in want[:i])
        eos, w, b = tok.eos, model.params["head.w"], model.params["head.b"]
        w[:, eos] = w[:, want[stop]]
        b[eos] = b[want[stop]] + 1e-3
        want = self.reference_generate(model, prefix, pixels, max_new)
        assert 0 < len(want) < max_new
        assert model.generate(prefix, pixels, max_new) == want

    @staticmethod
    def four_shot_prefix(tok, cfg):
        """A 4-shot context: five images, each followed by its text."""
        items = [evaluation.EvalItem(f"item-{i}", "color: ", ("red", "blue", "gold")[i % 3],
                                     image_id=f"img-{i}") for i in range(9)]
        prefix = evaluation.build_kshot(items[0], 4, items[1:], 3, tok, cfg.slot_length,
                                        cfg.max_positions)
        assert len(prefix.image_slots) == 5
        return prefix, {it.image_id: pixels_for(it.image_id, cfg.resolution) for it in items}

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_generate_equals_prefill_and_public_extend_loop(self, tok, monkeypatch, dtype):
        cfg = dataclasses.replace(TestBatchedPath.cfg(TransformerBlockProjector(2)), dtype=dtype)
        model = Model(cfg)
        prefix, pixels = self.four_shot_prefix(tok, cfg)
        seen = []  # the logits every step of generate decides on
        prefill, extend = model.prefill, model._extend
        with monkeypatch.context() as patch:
            patch.setattr(model, "prefill",
                          lambda *a: (out := prefill(*a), seen.append(out[1]))[0])
            patch.setattr(model, "_extend",
                          lambda *a: (out := extend(*a), seen.append(out[0]))[0])
            got = model.generate(prefix, pixels, max_new=16)
        assert len(got) == 16
        kv, logits = model.prefill(prefix, pixels)
        want = [logits]
        for token in got[:-1]:
            want.append(model.extend(kv, [token])[0])
        assert got == [int(np.argmax(row)) for row in want]
        assert len(seen) == len(want)
        for step, (a, b) in enumerate(zip(seen, want)):
            assert a.dtype == b.dtype == cfg.np_dtype
            assert np.array_equal(a, b), step

    def test_generate_fuses_and_lays_out_once_per_call(self, tok, monkeypatch):
        """Per-call work is not redone per token: the QKV fusions and layout
        constructions of a generate call do not grow with max_new."""
        cfg = TestBatchedPath.cfg(TransformerBlockProjector(2))
        model = Model(cfg)
        prefix, pixels = self.two_image_sample(tok, cfg)
        counts = {"fuse": 0, "layout": 0}
        qkv_weights, layout_init = model_module._qkv_weights, _Layout.__init__

        def fuse(*args):
            counts["fuse"] += 1
            return qkv_weights(*args)

        def init(self, *args, **kwargs):
            counts["layout"] += 1
            layout_init(self, *args, **kwargs)

        monkeypatch.setattr(model_module, "_qkv_weights", fuse)
        monkeypatch.setattr(_Layout, "__init__", init)
        model.generate(prefix, pixels, max_new=2)  # builds any layout shared across calls
        per_call = []
        for max_new in (4, 20):
            counts.update(fuse=0, layout=0)
            assert len(model.generate(prefix, pixels, max_new)) == max_new
            per_call.append(dict(counts))
        assert per_call[0] == per_call[1]
        # the vision block, the projector block and each decoder block, once
        assert per_call[0]["fuse"] == cfg.vision_layers + 1 + cfg.llm_layers

    def test_extend_keeps_its_checks(self, tok, monkeypatch):
        cfg = TestBatchedPath.cfg(Linear())
        model = Model(cfg)
        prefix, pixels = self.two_image_sample(tok, cfg)
        kv, _ = model.prefill(prefix, pixels)
        calls = []
        monkeypatch.setattr(model_module, "_block_fwd", lambda *args: calls.append(args[2]))
        # -1 would otherwise index embed.tok from its end: the PAD row
        for ids in ([-1], [65, -3], [cfg.vocab_size]):
            with pytest.raises(ConfigMismatchError, match="vocabulary"):
                model.extend(kv, ids)
        with pytest.raises(ConfigMismatchError, match="max_positions"):
            model.extend(kv, [65] * (cfg.max_positions - kv.length + 1))
        assert calls == [] and kv.length == len(prefix)


def decoder_rows(monkeypatch, call):
    """`call()`'s result, and (name, output rows) of each decoder block it ran."""
    calls, block_fwd = [], model_module._block_fwd

    def counting(x, p, name, *args, **kwargs):
        out = block_fwd(x, p, name, *args, **kwargs)
        if name.startswith("llm."):
            calls.append((name, len(out[0])))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(model_module, "_block_fwd", counting)
        result = call()
    return result, calls


def one_pass_losses(monkeypatch, model, prefix, ids, pixels):
    """`continuation_losses`, checked to run each decoder block once: the
    prefix and every continuation share one decoder pass, and its last block
    outputs only the rows the head reads, the prefix's last and every
    continuation row."""
    losses, calls = decoder_rows(monkeypatch,
                                 lambda: model.continuation_losses(prefix, ids, pixels))
    layers, scored = model.cfg.llm_layers, sum(len(c) for c in ids)
    assert [name for name, _ in calls] == [f"llm.block{i}" for i in range(layers)]
    assert [rows for _, rows in calls] == [len(prefix) + scored] * (layers - 1) + [1 + scored]
    return losses


class TestLastBlockRows:
    """A pass with a KVCache runs the last decoder block's query side only
    on the rows the head reads; every other pass, on every row."""

    @pytest.mark.parametrize("entry", ["continuation_losses", "prefill", "loss_and_grads",
                                       "forward"])
    def test_last_block_output_rows(self, tok, monkeypatch, in_process_halves, entry):
        cfg = TestBatchedPath.cfg(TransformerBlockProjector(2))
        model = Model(cfg)
        sample, pixels = TestKVCache.two_image_sample(tok, cfg)
        short = make_sample(tok, cfg, "short", image_ids=())
        ids = [tok.encode(c) for c in ("red", "x", "a longer candidate")]
        layers = cfg.llm_layers
        call, rows = {
            "continuation_losses": (lambda: model.continuation_losses(sample, ids, pixels),
                                    [len(sample) + sum(map(len, ids))] * (layers - 1)
                                    + [1 + sum(map(len, ids))]),
            "prefill": (lambda: model.prefill(sample, pixels),
                        [len(sample)] * (layers - 1) + [1]),
            # a training batch's two halves are passes of their own, and the
            # longer sample goes to the second
            "loss_and_grads": (lambda: model.loss_and_grads([sample, short], pixels),
                               [len(short)] * layers + [len(sample)] * layers),
            "forward": (lambda: model.forward([sample, short], pixels),
                        [len(sample) + len(short)] * layers),
        }[entry]
        _, calls = decoder_rows(monkeypatch, call)
        assert [n for _, n in calls] == rows

    def test_without_decoder_blocks_the_final_layer_norm_is_cut(self, tok):
        cfg = dataclasses.replace(TestBatchedPath.cfg(Linear()), llm_layers=0)
        model = Model(cfg)
        prefix, pixels = TestKVCache.two_image_sample(tok, cfg)
        ids = [tok.encode(c) for c in ("red", "x", "a longer candidate")]
        want = candidate_ce(model, prefix, ids, pixels)
        np.testing.assert_allclose(model.continuation_losses(prefix, ids, pixels), want,
                                   rtol=1e-12, atol=0)
        _, last = model.prefill(prefix, pixels)
        np.testing.assert_allclose(last, model.forward(prefix, pixels).logits[-1],
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_prefill_caches_every_row(self, tok, dtype):
        """The last block's keys and values cover every prefix row, as the
        uncached forward's hidden states give them."""
        cfg = dataclasses.replace(TestBatchedPath.cfg(TransformerBlockProjector(2)), dtype=dtype)
        model = Model(cfg)
        prefix, pixels = TestKVCache.four_shot_prefix(tok, cfg)
        kv, _ = model.prefill(prefix, pixels)
        hidden = model.forward(prefix, pixels).hidden
        P, dh, p = len(prefix), cfg.model_dim // cfg.heads, model.params
        tol = 1e-12 if dtype == "float64" else 1e-5
        for i in range(cfg.llm_layers):
            h, _ = _ln_fwd(hidden[i], p[f"llm.block{i}.ln1.g"], p[f"llm.block{i}.ln1.b"])
            for buf, name in ((kv.k[i], "k"), (kv.v[i], "v")):
                want = h @ p[f"llm.block{i}.attn.w{name}"] + p[f"llm.block{i}.attn.b{name}"]
                want = want.reshape(P, cfg.heads, dh).transpose(1, 0, 2)
                np.testing.assert_allclose(buf[:, :P], want, rtol=tol, atol=tol * np.abs(want).max())


class TestContinuationLosses:
    """Candidate ranking scores every continuation in one decoder pass, equal
    to the uncached reference: the `forward` logits of the appended sequence."""

    # a 1-token candidate, equal-length duplicates and a long one
    CANDIDATES = ("red", "x", "blue", "gold", "blue", "a longer candidate")

    # the two-image sample, its BOS alone (the head reads row 0), and its
    # positions up to its last IMAGE row
    PREFIXES = ("two-image", "bos-only", "image-last")

    @staticmethod
    def prefix(kind, tok, cfg):
        sample, pixels = TestKVCache.two_image_sample(tok, cfg)
        text_start = max(slot.start + slot.length for slot in sample.image_slots)
        n = {"two-image": len(sample), "bos-only": 1, "image-last": text_start}[kind]
        return TestKVCache.head(sample, n), pixels

    def test_five_candidates_take_one_decoder_pass(self, tok, monkeypatch):
        cfg = TestBatchedPath.cfg(TransformerBlockProjector(2))
        prefix, pixels = TestKVCache.two_image_sample(tok, cfg)
        ids = [tok.encode(c) for c in ("red", "blue", "green", "gold", "grey")]
        losses = one_pass_losses(monkeypatch, Model(cfg), prefix, ids, pixels)
        assert losses.shape == (5,)

    @pytest.mark.parametrize("variant", [Linear(), TransformerBlockProjector(2), Downsample(2)])
    def test_mixed_lengths_equal_reference_in_any_order(self, tok, monkeypatch, variant):
        cfg = TestBatchedPath.cfg(variant)
        model = Model(cfg)
        ids = [tok.encode(c) for c in self.CANDIDATES]
        for kind in self.PREFIXES:
            prefix, pixels = self.prefix(kind, tok, cfg)
            losses = one_pass_losses(monkeypatch, model, prefix, ids, pixels)
            np.testing.assert_allclose(losses, candidate_ce(model, prefix, ids, pixels),
                                       rtol=1e-12, atol=0, err_msg=kind)
            # a continuation never attends over another, so order moves no bit
            reversed_ = model.continuation_losses(prefix, ids[::-1], pixels)[::-1]
            assert np.array_equal(reversed_, losses), kind
            order = [3, 0, 5, 2, 4, 1]
            shuffled = model.continuation_losses(prefix, [ids[i] for i in order], pixels)
            assert np.array_equal(shuffled, losses[order]), kind

    def test_float32_equals_a_cached_decode_per_candidate(self, tok, monkeypatch):
        """In float32 the reference rounds differently in the prefix rows: a
        full forward gives their softmax P + n entries, a decode after the
        prefix P. Each candidate decoded alone after a prefill rounds as the
        shared pass does."""
        cfg = dataclasses.replace(TestBatchedPath.cfg(TransformerBlockProjector(2)),
                                  dtype="float32")
        model = Model(cfg)
        ids = [tok.encode(c) for c in self.CANDIDATES]
        # a BOS-only prefix is left out: its last block cuts no row, yet one
        # candidate of a batched group rounds one float32 ulp (2.1e-8
        # relative) apart from its decode alone
        for kind in ("two-image", "image-last"):
            prefix, pixels = self.prefix(kind, tok, cfg)
            losses = one_pass_losses(monkeypatch, model, prefix, ids, pixels)
            cached = []
            for c in ids:
                kv, last = model.prefill(prefix, pixels)
                logits = np.vstack([last, model.extend(kv, c)[:-1]])
                cached.append(sum(float(ce) for ce in _xent_(logits, np.asarray(c))) / len(c))
            np.testing.assert_allclose(losses, cached, rtol=1e-12, atol=0, err_msg=kind)
            np.testing.assert_allclose(losses, candidate_ce(model, prefix, ids, pixels),
                                       rtol=1e-6, atol=0, err_msg=kind)
            reversed_ = model.continuation_losses(prefix, ids[::-1], pixels)[::-1]
            assert np.array_equal(reversed_, losses), kind

    @pytest.mark.parametrize("where", [0, -1])
    def test_out_of_vocabulary_id_rejected_before_any_block(self, tok, monkeypatch, where):
        cfg = TestBatchedPath.cfg(TransformerBlockProjector(2))
        prefix, pixels = TestKVCache.two_image_sample(tok, cfg)
        bad = tok.encode("blue")
        bad[where] = cfg.vocab_size
        calls = []
        monkeypatch.setattr(model_module, "_block_fwd", lambda *args: calls.append(args[2]))
        with pytest.raises(ConfigMismatchError, match="vocabulary"):
            Model(cfg).continuation_losses(prefix, [tok.encode("red"), bad], pixels)
        assert calls == []

    @pytest.mark.parametrize("ids", [[-3], [65, -1]])
    def test_negative_id_rejected_before_any_block(self, tok, monkeypatch, ids):
        """A negative id would index embed.tok from its end and score as
        the id vocab_size + id; the sample contract refuses it first."""
        cfg = TestBatchedPath.cfg(TransformerBlockProjector(2))
        prefix, pixels = TestKVCache.two_image_sample(tok, cfg)
        calls = []
        monkeypatch.setattr(model_module, "_block_fwd", lambda *args: calls.append(args[2]))
        with pytest.raises(ConfigMismatchError,
                           match=r"^tokens must be integers in \[0, 2\*\*32\)"):
            Model(cfg).continuation_losses(prefix, [ids, tok.encode("red")], pixels)
        assert calls == []

    def test_no_continuation_rejected(self, tok):
        cfg = TestBatchedPath.cfg(Linear())
        prefix, pixels = TestKVCache.two_image_sample(tok, cfg)
        with pytest.raises(VlmforgeError, match="no continuation"):
            Model(cfg).continuation_losses(prefix, [], pixels)


class TestFreedMemoryStaysInHeap:
    """Importing the model fixes glibc's heap thresholds, so a training step
    reuses the memory the last one freed instead of faulting it back in."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt only")
    def test_steady_state_steps_barely_fault(self, tok):
        from vlmforge import trainer

        cfg = TestBatchedPath.cfg(TransformerBlockProjector())
        # the benchmark's pretrain mix: 29-position caption pairs, 66-position
        # two-image documents
        batch = [make_sample(tok, cfg, "p" * 23, image_ids=(f"pair-{i}",)) for i in range(4)]
        batch += [make_sample(tok, cfg, "d" * 56, image_ids=(f"doc-{i}-a", f"doc-{i}-b"))
                  for i in range(4)]
        assert sorted({len(s) for s in batch}) == [29, 66]
        pixels = bind_pixels(batch, cfg.resolution)
        model = Model(cfg)
        policy = trainer.ALL_TRAINABLE  # every group but vision, as in the benchmark
        opt = trainer.AdamW(model, policy, 1e-3)

        def step():
            _, grads = model.loss_and_grads(batch, pixels, trainable=policy.trainable)
            opt.step(grads, 1e-3)

        for _ in range(3):
            step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            step()
        per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10
        assert per_step < 50, f"{per_step} minor page faults per step"

    def test_sets_both_thresholds(self, monkeypatch):
        from vlmforge import model as model_mod

        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert model_mod._keep_freed_memory()
        assert calls == [(-3, model_mod.HEAP_MMAP_THRESHOLD), (-1, model_mod.HEAP_TRIM_THRESHOLD)]

    @pytest.mark.parametrize("libc", [
        pytest.param(OSError("no C library"), id="no-library"),
        pytest.param(types.SimpleNamespace(), id="no-mallopt"),
        pytest.param(types.SimpleNamespace(mallopt=lambda param, value: 0), id="refused"),
    ])
    def test_without_mallopt_returns_quietly(self, monkeypatch, libc):
        from vlmforge import model as model_mod

        def cdll(name):
            if isinstance(libc, OSError):
                raise libc
            return libc

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert model_mod._keep_freed_memory() is False


class TestOneBlasThread:
    """Importing the model pins every OpenBLAS it finds to one thread, so a
    run's bits do not depend on OMP_NUM_THREADS."""

    @staticmethod
    def fake_openblas(*names):
        """A library exporting `names`, each a function that records its
        calls and returns 1; and the list of calls."""
        calls = []

        def export(name):
            def fn(*args):
                calls.append((name, args))
                return 1
            return fn

        return types.SimpleNamespace(**{name: export(name) for name in names}), calls

    @pytest.mark.parametrize("prefix, suffix", [("scipy_", "64_"), ("", "64_"), ("", ""),
                                                ("scipy_", "")])
    def test_pins_each_build_under_its_export_name(self, monkeypatch, prefix, suffix):
        from vlmforge import model as model_mod

        setter, getter = (f"{prefix}openblas_{verb}_num_threads{suffix}" for verb in ("set", "get"))
        lib, calls = self.fake_openblas(setter, getter)
        setattr(lib, f"{prefix}openblas_get_corename{suffix}", lambda: b"Haswell")
        monkeypatch.setattr(model_mod, "_loaded_openblas", lambda: [("/lib/libopenblas.so", lib)])
        assert model_mod._one_blas_thread()
        assert calls == [(setter, (1,)), (getter, ())]
        record = model_mod.blas_record()
        assert record["threads"] == {"libopenblas.so": 1}
        assert record["kernels"] == {"libopenblas.so": "Haswell"}

    @pytest.mark.parametrize("libs", [[], [("/lib/libopenblas.so", types.SimpleNamespace())]],
                             ids=["no-openblas", "no-setter"])
    def test_without_a_setter_logs_and_returns_false(self, monkeypatch, caplog, libs):
        from vlmforge import model as model_mod

        monkeypatch.setattr(model_mod, "_loaded_openblas", lambda: libs)
        with caplog.at_level(logging.INFO, logger="vlmforge.model"):
            assert model_mod._one_blas_thread() is False
        assert "no OpenBLAS thread setter found" in caplog.text

    def test_manifest_names_each_librarys_kernel(self, tmp_path):
        """A run's bits depend on the kernel OpenBLAS chose for the CPU too:
        a manifest names one for every library it counts threads for."""
        from vlmforge.manifest import write_manifest

        anchor = tmp_path / "out.txt"
        anchor.write_text("x")
        blas = json.loads(Path(write_manifest(anchor, "test", {}, None, [], [anchor]))
                          .read_text())["blas"]
        assert blas["kernels"].keys() == blas["threads"].keys()
        assert all(blas["kernels"].values())

    def test_numpys_openblas_runs_one_thread(self):
        from vlmforge import model as model_mod

        record = model_mod.blas_record()
        if not record["threads"]:
            pytest.skip("no OpenBLAS with a thread count is loaded")
        assert set(record["threads"].values()) == {1}
