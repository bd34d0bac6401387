import dataclasses

import numpy as np
import pytest

from vlmforge.corpus import ImageSegment, InterleavedDocument, TextSegment
from vlmforge.diagnostics import AlignmentProfile, alignment_profile, chamfer_cosine
from vlmforge.errors import VlmforgeError
from vlmforge.model import Model
from vlmforge.packing import IMAGE, TEXT, PackedSample, bind_pixels, pack_document


def double_loop_chamfer(A, B):
    """Exhaustive O(|A||B|) reference with explicit cosine per pair."""
    def cos(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    fwd = np.mean([max(cos(a, b) for b in B) for a in A])
    bwd = np.mean([max(cos(a, b) for a in A) for b in B])
    return 0.5 * (fwd + bwd)


class TestChamferCosine:
    def test_self_set_is_one(self):
        A = np.random.default_rng(0).normal(size=(6, 5))
        assert chamfer_cosine(A, A) == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_singletons(self):
        e1 = np.array([[1.0, 0.0]])
        e2 = np.array([[0.0, 1.0]])
        assert chamfer_cosine(e1, e2) == pytest.approx(0.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            A = rng.normal(size=(rng.integers(1, 9), 16))
            B = rng.normal(size=(rng.integers(1, 9), 16))
            assert chamfer_cosine(A, B) == pytest.approx(double_loop_chamfer(A, B), abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            A = rng.normal(size=(4, 8))
            B = rng.normal(size=(7, 8))
            v = chamfer_cosine(A, B)
            assert v == chamfer_cosine(B, A)
            assert -1.0 <= v <= 1.0

    def test_positive_rescaling_invariance_bitwise(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(5, 8))
        B = rng.normal(size=(6, 8))
        base = chamfer_cosine(A, B)
        # power-of-two scales keep the multiply and the norm division exact,
        # so the comparison can be bitwise rather than approximate
        scales_a = 2.0 ** rng.integers(-3, 4, size=(5, 1))
        scales_b = 2.0 ** rng.integers(-3, 4, size=(6, 1))
        assert chamfer_cosine(A * scales_a, B * scales_b) == base

    def test_monotone_under_set_growth(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(5, 8))
        B = rng.normal(size=(5, 8))
        ua = A / np.linalg.norm(A, axis=1, keepdims=True)
        ub = B / np.linalg.norm(B, axis=1, keepdims=True)
        base_term = (ua @ ub.T).max(axis=1).mean()
        grown = np.vstack([B, rng.normal(size=(1, 8))])
        ug = grown / np.linalg.norm(grown, axis=1, keepdims=True)
        assert (ua @ ug.T).max(axis=1).mean() >= base_term

    def test_zero_vector_names_index(self):
        A = np.ones((3, 4))
        A[1] = 0.0
        with pytest.raises(VlmforgeError, match="index 1"):
            chamfer_cosine(A, np.ones((2, 4)))

    def test_empty_set_rejected(self):
        with pytest.raises(VlmforgeError):
            chamfer_cosine(np.zeros((0, 4)), np.ones((2, 4)))


class _StubModel:
    """Duck-typed model returning canned hidden states per layer."""

    def __init__(self, hidden_builder):
        self.hidden_builder = hidden_builder

    def hidden_states(self, samples, pixels=None):
        return [self.hidden_builder(s) for s in samples]


class _Watched(np.ndarray):
    """A parameter that records, as (name, ufunc), every ufunc it enters."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.calls.append((self.name, ufunc.__name__))
        return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)


def mixed_batch(tok, cfg):
    """Four image-text samples of different lengths and a text-only one, and
    their pixels."""
    docs = [InterleavedDocument(f"d{i}", [ImageSegment(f"i{i}"), TextSegment("x" * (3 + 5 * i)),
                                          ImageSegment(f"j{i}")])
            for i in range(4)]
    docs.append(InterleavedDocument("t", [TextSegment("text only")]))
    samples = [s for d in docs for s in pack_document(d, tok, cfg.slot_length, cfg.max_positions)]
    return samples, bind_pixels(samples, cfg.resolution)


def mixed_sample(n_image=3, n_text=5):
    L = n_image + n_text
    modality = np.array([IMAGE] * n_image + [TEXT] * n_text, dtype=np.uint8)
    return PackedSample(np.zeros(L, dtype=np.uint32), modality,
                        np.zeros(L, dtype=np.uint8), [], "pretrain")


class TestAlignmentProfile:
    def test_identical_modalities_give_one(self):
        def builder(sample):
            rng = np.random.default_rng(0)
            base = rng.normal(size=(3, 8))
            rows = np.vstack([base, base, base[:2]])  # text rows copy image rows
            return [rows.copy() for _ in range(3)]

        profile = alignment_profile(_StubModel(builder), [mixed_sample(3, 5)], {})
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in profile.per_layer)
        assert profile.sample_count == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        layers = [rng.normal(size=(8, 6)) for _ in range(3)]
        base = alignment_profile(_StubModel(lambda s: [l.copy() for l in layers]),
                                 [mixed_sample()], {})
        scaled = alignment_profile(_StubModel(lambda s: [4.0 * l for l in layers]),
                                   [mixed_sample()], {})
        assert scaled.per_layer == base.per_layer

    def test_single_modality_batch_rejected(self):
        sample = mixed_sample(0, 5)
        rng = np.random.default_rng(2)
        stub = _StubModel(lambda s: [rng.normal(size=(5, 4))])
        with pytest.raises(VlmforgeError):
            alignment_profile(stub, [sample], {})

    def test_real_model_profile_shape(self, tiny_model, tok):
        doc = InterleavedDocument("d", [ImageSegment("i"), TextSegment("hello")])
        samples = pack_document(doc, tok, tiny_model.cfg.slot_length, 64)
        pixels = bind_pixels(samples, 16)
        profile = alignment_profile(tiny_model, samples, pixels)
        assert len(profile.per_layer) == tiny_model.cfg.llm_layers + 1
        assert all(np.isfinite(v) for v in profile.per_layer)

    def test_batched_profile_is_mean_of_single_sample_profiles(self, tiny_model, tok):
        samples, pixels = mixed_batch(tok, tiny_model.cfg)
        batched = alignment_profile(tiny_model, samples, pixels)
        singles = [alignment_profile(tiny_model, [s], pixels).per_layer
                   for s in samples if (s.modality_mask == TEXT).any()
                   and (s.modality_mask == IMAGE).any()]
        assert batched.sample_count == len(singles) == 4
        np.testing.assert_allclose(batched.per_layer, np.mean(singles, axis=0),
                                   rtol=0, atol=1e-12)

    def test_layers_equal_chamfer_cosine_bitwise(self, tiny_model, tok):
        """The one-pass profile against `chamfer_cosine` layer by layer."""
        doc = InterleavedDocument("d", [ImageSegment("i"), TextSegment("some text"),
                                        ImageSegment("j"), TextSegment("more")])
        [sample] = pack_document(doc, tok, tiny_model.cfg.slot_length, 64)
        pixels = bind_pixels([sample], 16)
        visual, textual = sample.modality_mask == IMAGE, sample.modality_mask == TEXT
        want = [chamfer_cosine(layer[visual], layer[textual])
                for layer in tiny_model.forward(sample, pixels).hidden]
        assert alignment_profile(tiny_model, [sample], pixels).per_layer == want

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_batch_layers_equal_chamfer_cosine_bitwise(self, tiny_cfg, tok, dtype):
        """A mixed batch's one-pass profile against the mean of `chamfer_cosine`
        over each two-modality sample's `forward` hidden states, layer by
        layer, at either dtype."""
        model = Model(dataclasses.replace(tiny_cfg, dtype=dtype))
        samples, pixels = mixed_batch(tok, model.cfg)
        sums, used = 0.0, 0
        for sample, trace in zip(samples, model.forward(samples, pixels)):
            visual, textual = sample.modality_mask == IMAGE, sample.modality_mask == TEXT
            if visual.any() and textual.any():
                sums += np.array([chamfer_cosine(layer[visual], layer[textual])
                                  for layer in trace.hidden])
                used += 1
        profile = alignment_profile(model, samples, pixels)
        assert profile.sample_count == used == 4
        assert profile.per_layer == [float(v / used) for v in sums]

    def test_profile_runs_no_final_layer_norm_and_no_head(self, tiny_model, tok):
        """The probe's pass stops at the last block, while `forward` still
        normalises its output and runs the head on it."""
        samples, pixels = mixed_batch(tok, tiny_model.cfg)
        calls = []
        for name in ("llm.final_ln.g", "head.w"):
            watched = tiny_model.params[name].view(_Watched)
            watched.name, watched.calls = name, calls
            tiny_model.params[name] = watched
        alignment_profile(tiny_model, samples, pixels)
        assert calls == []
        tiny_model.forward(samples, pixels)
        assert calls == [("llm.final_ln.g", "multiply"), ("head.w", "matmul")]

    @pytest.mark.parametrize("zeros, message", [
        ([(0, 1)], "A: zero vector at index 1"),
        ([(1, 4)], "B: zero vector at index 1"),
        ([(1, 2), (0, 6)], "B: zero vector at index 3"),  # the first layer's comes first
        ([(0, 3), (0, 2)], "A: zero vector at index 2"),  # and A before B in a layer
    ])
    def test_zero_vector_names_set_and_index(self, zeros, message):
        layers = [np.random.default_rng(5).normal(size=(8, 6)) for _ in range(3)]
        for layer, row in zeros:
            layers[layer][row] = 0.0
        with pytest.raises(VlmforgeError, match=message):
            alignment_profile(_StubModel(lambda s: layers), [mixed_sample(3, 5)], {})

    def test_csv_output(self):
        profile = AlignmentProfile([0.1, 0.2], 4)
        lines = profile.to_csv().strip().split("\n")
        assert lines[0] == "layer,chamfer_cos,n"
        assert lines[1] == "0,0.1,4"
