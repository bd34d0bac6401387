import numpy as np
import pytest

from vlmforge.diagnostics import AlignmentProfile, alignment_profile, chamfer_cosine
from vlmforge.errors import VlmforgeError
from vlmforge.model import ForwardTrace
from vlmforge.packing import IMAGE, TEXT, PackedSample


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

    def test_one_sided_variants(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(3, 6))
        B = rng.normal(size=(4, 6))
        sym = chamfer_cosine(A, B, "symmetric")
        ab = chamfer_cosine(A, B, "a-to-b")
        ba = chamfer_cosine(A, B, "b-to-a")
        assert sym == pytest.approx(0.5 * (ab + ba), abs=1e-15)


class _StubModel:
    """Duck-typed model returning canned hidden states per layer."""

    def __init__(self, hidden_builder):
        self.hidden_builder = hidden_builder

    def forward(self, sample, pixels=None):
        hidden = self.hidden_builder(sample)
        L = len(sample)
        return ForwardTrace(np.zeros((L, 4)), hidden)


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
        from vlmforge.corpus import ImageSegment, InterleavedDocument, TextSegment
        from vlmforge.packing import bind_pixels, pack_document

        doc = InterleavedDocument("d", [ImageSegment("i"), TextSegment("hello")])
        samples = pack_document(doc, tok, tiny_model.cfg.slot_length, 64)
        pixels = bind_pixels(samples, 16)
        profile = alignment_profile(tiny_model, samples, pixels)
        assert len(profile.per_layer) == tiny_model.cfg.llm_layers + 1
        assert all(np.isfinite(v) for v in profile.per_layer)

    def test_csv_output(self):
        profile = AlignmentProfile([0.1, 0.2], 4)
        lines = profile.to_csv().strip().split("\n")
        assert lines[0] == "layer,chamfer_cos,n"
        assert lines[1] == "0,0.1,4"
