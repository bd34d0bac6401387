import ctypes
import dataclasses
import json
import platform
import resource
import struct
import types

import numpy as np
import pytest

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
    _ln_bwd,
    _ln_fwd,
)
from vlmforge.packing import (
    IMAGE,
    TEXT,
    ByteTokenizer,
    ImageSlot,
    PackedSample,
    append_text,
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
            counts[variant.kind] = Model(cfg).param_count("projector")
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
            x, _ = _block_fwd(x, p, f"llm.block{i}", tiny_cfg.heads, causal=True)
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
        v, _ = _block_fwd(v, p, "vision.block0", cfg.heads, causal=False)
        proj = v @ p["projector.w"] + p["projector.b"]
        x = p["embed.tok"][sample.tokens.astype(int)].copy()
        slot = sample.image_slots[0]
        x[slot.start:slot.start + slot.length] = proj
        x += p["embed.pos"][:len(sample)]
        for i in range(2):
            x, _ = _block_fwd(x, p, f"llm.block{i}", cfg.heads, causal=True)
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
        trace = tiny_model.forward(sample)
        trace.logits = np.zeros_like(trace.logits)
        targets, mask = tiny_model.shifted_targets(sample)
        loss = tiny_model.loss_from_trace(trace, targets, mask)
        assert loss == pytest.approx(np.log(260), abs=1e-12)

    def test_mask_contract_bit_identical(self, tiny_model, tok):
        sample = make_sample(tok, tiny_model.cfg, "mask contract")
        pixels = bind_pixels([sample], 16)
        trace = tiny_model.forward(sample, pixels)
        targets, mask = tiny_model.shifted_targets(sample)
        base = tiny_model.loss_from_trace(trace, targets, mask)
        perturbed = targets.copy()
        rng = np.random.default_rng(0)
        for i in np.flatnonzero(mask == 0):
            perturbed[i] = rng.integers(0, 260)
        assert tiny_model.loss_from_trace(trace, perturbed, mask) == base

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

    @pytest.mark.parametrize("variant", [Linear(), TransformerBlockProjector(2), Downsample(2)])
    def test_finite_difference_all_groups(self, tok, variant):
        cfg = ModelConfig(resolution=16, patch=8, vision_dim=16, model_dim=16,
                          ffn_dim=32, vision_layers=1, llm_layers=1, heads=2,
                          projector=variant, max_positions=48, seed=5)
        model = Model(cfg)
        sample = make_sample(tok, cfg, "grad check!", image_ids=("a", "b"))
        pixels = bind_pixels([sample], 16)
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

    def test_batch_loss_is_position_weighted_mean(self, tiny_model, tok):
        a = make_sample(tok, tiny_model.cfg, "short", image_ids=())
        b = make_sample(tok, tiny_model.cfg, "a considerably longer sample", image_ids=())
        loss_batch, _ = tiny_model.loss_and_grads([a, b])
        ta, ma = tiny_model.shifted_targets(a)
        tb, mb = tiny_model.shifted_targets(b)
        ca = tiny_model.loss_from_trace(tiny_model.forward(a), ta, ma) * ma.sum()
        cb = tiny_model.loss_from_trace(tiny_model.forward(b), tb, mb) * mb.sum()
        want = (ca + cb) / (ma.sum() + mb.sum())
        assert loss_batch == pytest.approx(want, rel=1e-12)


class TestGenerate:
    def test_max_new_zero(self, tiny_model, tok):
        sample = make_sample(tok, tiny_model.cfg, "prefix", image_ids=())
        assert tiny_model.generate(sample, max_new=0) == []

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
    out, cache = _ln_fwd(x, g, b, eps)
    assert out.dtype == dtype
    assert np.array_equal(out, xhat * g + b)
    assert np.array_equal(_ln_bwd(dout, cache, None, "ln"), want_dx)


class TestParameterBuffers:
    def test_params_are_views_into_sorted_group_buffers(self):
        model = Model(ModelConfig(seed=2))
        assert list(model.buffers) == sorted(model.buffers) == model.group_names()
        for group, buf in model.buffers.items():
            names = [n for n in model.params if model.group_of(n) == group]
            assert names == sorted(names)
            assert buf.ndim == 1 and buf.flags.c_contiguous
            assert buf.size == model.param_count(group)
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
        weights = [model.shifted_targets(s)[1].sum() for s in batch]
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
            want, _ = _attn_fwd(x[start : start + n], p, "llm.block0.attn", cfg.heads, causal)
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
            logits = model.forward(append_text(prefix, out, loss=False), pixels).logits
            nxt = int(np.argmax(logits[-1]))
            if nxt == ByteTokenizer().eos:
                break
            out.append(nxt)
        return out

    @pytest.mark.parametrize("variant", [Linear(), TransformerBlockProjector(2), Downsample(2)])
    def test_prefill_then_extend_equals_forward(self, tok, variant):
        cfg = TestBatchedPath.cfg(variant)
        model = Model(cfg)
        sample, pixels = self.two_image_sample(tok, cfg)
        want = model.forward(sample, pixels).logits
        text_start = max(slot.start + slot.length for slot in sample.image_slots)
        for split in (text_start, text_start + 7, len(sample) - 1):
            head = PackedSample(sample.tokens[:split], sample.modality_mask[:split],
                                sample.loss_mask[:split], sample.image_slots)
            kv, last = model.prefill(head, pixels)
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
