import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlmforge.corpus import ImageSegment, InterleavedDocument, TextSegment, reformat_images_first
from vlmforge.errors import ConfigMismatchError, ShardFormatError
from vlmforge.packing import (
    IMAGE,
    TEXT,
    ByteTokenizer,
    ImageSlot,
    PackedSample,
    bind_pixels,
    check_batch,
    config_hash,
    pack_document,
    pack_sft,
    pixels_for,
    read_shard,
    tokens_per_image,
    write_shard,
)

from conftest import random_document


class TestTokenizer:
    def test_special_ids_distinct_and_dense(self, tok):
        specials = {tok.bos, tok.eos, tok.img, tok.pad}
        assert len(specials) == 4
        assert all(256 <= s < tok.vocab_size for s in specials)

    @given(st.text(max_size=200))
    def test_round_trip(self, s):
        tok = ByteTokenizer()
        assert tok.decode(tok.encode(s)) == s

    def test_decode_skips_specials(self, tok):
        ids = [tok.bos] + tok.encode("hi") + [tok.img, tok.eos]
        assert tok.decode(ids) == "hi"


class TestTokensPerImage:
    @pytest.mark.parametrize("res,patch,ds,expected", [
        (336, 14, 1, 576),
        (224, 14, 1, 256),
        (336, 14, 2, 144),
        (16, 8, 1, 4),
        (16, 8, 2, 1),
    ])
    def test_counts(self, res, patch, ds, expected):
        assert tokens_per_image(res, patch, ds) == expected

    def test_divisibility_errors(self):
        with pytest.raises(ConfigMismatchError):
            tokens_per_image(336, 13, 1)
        with pytest.raises(ConfigMismatchError):
            tokens_per_image(336, 14, 5)


class TestPackDocument:
    def test_direct_construction(self, tok):
        doc = InterleavedDocument("d", [ImageSegment("im1"), TextSegment("a b")])
        [sample] = pack_document(doc, tok, slot_length=4, max_len=32)
        expect = [tok.bos] + [tok.img] * 4 + tok.encode("a b") + [tok.eos]
        assert list(sample.tokens) == expect
        assert list(sample.modality_mask) == [TEXT] + [IMAGE] * 4 + [TEXT] * 4
        assert list(sample.loss_mask) == [0, 0, 0, 0, 0, 1, 1, 1, 1]
        assert sample.image_slots == [ImageSlot(1, 4, "im1")]
        check_batch([sample])

    def test_text_only_doc(self, tok):
        doc = InterleavedDocument("d", [TextSegment("xyz")])
        [sample] = pack_document(doc, tok, 4, 32)
        assert not sample.image_slots
        assert (sample.modality_mask == TEXT).all()
        assert list(sample.loss_mask) == [0, 1, 1, 1, 1]

    def test_split_round_trip(self, tok):
        rng = np.random.default_rng(8)
        for trial in range(50):
            doc = random_document(rng, f"d{trial}", with_sims=False)
            n_img = doc.num_images
            text = "".join(s.text for s in doc.segments if isinstance(s, TextSegment))
            samples = pack_document(doc, tok, 4, max_len=16)
            for s in samples:
                check_batch([s])
                assert all(slot.length == 4 for slot in s.image_slots)
            decoded = "".join(tok.decode(s.tokens[s.modality_mask == TEXT]) for s in samples)
            assert decoded == text
            assert sum(len(s.image_slots) for s in samples) == n_img

    def test_never_splits_inside_a_slot(self, tok):
        doc = InterleavedDocument("d", [
            TextSegment("x" * 10), ImageSegment("a"),
            ImageSegment("b"), TextSegment("y" * 10)])
        samples = pack_document(doc, tok, slot_length=6, max_len=12)
        for s in samples:
            check_batch([s])
            assert all(slot.length == 6 for slot in s.image_slots)

    def test_slot_exceeding_max_len_errors(self, tok):
        doc = InterleavedDocument("d", [ImageSegment("a"), TextSegment("t")])
        with pytest.raises(ConfigMismatchError):
            pack_document(doc, tok, slot_length=30, max_len=16)

    def test_reformat_preserves_token_multiset(self, tok):
        rng = np.random.default_rng(14)
        for trial in range(30):
            doc = random_document(rng, f"d{trial}", with_sims=False)
            a = pack_document(doc, tok, 4, 64)
            b = pack_document(reformat_images_first(doc), tok, 4, 64)
            text_a = sorted(t for s in a for t in s.tokens[s.modality_mask == TEXT])
            text_b = sorted(t for s in b for t in s.tokens[s.modality_mask == TEXT])
            assert text_a == text_b
            assert (sum(len(s.image_slots) for s in a)
                    == sum(len(s.image_slots) for s in b))

    def test_image_count_invariant(self, tok):
        rng = np.random.default_rng(30)
        for trial in range(30):
            doc = random_document(rng, f"d{trial}", with_sims=False)
            for s in pack_document(doc, tok, 4, 40):
                assert int((s.modality_mask == IMAGE).sum()) == 4 * len(s.image_slots)


class TestPackSft:
    def test_text_only_demo(self, tok):
        s = pack_sft((None, "Q: 2+2? ", "4"), tok, 4)
        assert not s.image_slots
        assert (s.modality_mask == TEXT).all()
        # loss only on answer + EOS
        assert int(s.loss_mask.sum()) == 2
        assert list(s.tokens[-2:]) == tok.encode("4") + [tok.eos]

    def test_image_demo_one_token_answer(self, tok):
        s = pack_sft(("img", "what? ", "y"), tok, 4)
        assert len(s.image_slots) == 1
        assert int(s.loss_mask.sum()) == 2
        check_batch([s])
        assert s.image_slots[0].length == 4

    def test_loss_never_on_image_positions_fuzz(self, tok):
        rng = np.random.default_rng(99)
        for trial in range(1000):
            has_image = bool(rng.random() < 0.5)
            prompt = "".join(chr(97 + c) for c in rng.integers(0, 26, size=rng.integers(1, 20)))
            answer = "".join(chr(97 + c) for c in rng.integers(0, 26, size=rng.integers(1, 10)))
            s = pack_sft((f"i{trial}" if has_image else None, prompt, answer), tok, 4)
            assert not np.any((s.loss_mask == 1) & (s.modality_mask == IMAGE))
            check_batch([s])
            assert all(slot.length == 4 for slot in s.image_slots)

    def test_empty_prompt_rejected(self, tok):
        with pytest.raises(ValueError):
            pack_sft((None, "", "a"), tok, 4)


def random_samples(rng, n, tok):
    out = []
    for i in range(n):
        doc = random_document(rng, f"d{i}", with_sims=False)
        out.extend(pack_document(doc, tok, 4, 48))
    return out


class TestShardIO:
    def test_round_trip_identity(self, tmp_path, tok):
        rng = np.random.default_rng(1)
        samples = random_samples(rng, 300, tok)
        assert len(samples) > 100
        path = tmp_path / "x.shard"
        vh, ch = tok.vocab_hash(), config_hash(16, 8, 1)
        n = write_shard(samples, path, vh, ch)
        assert n == len(samples)
        back = list(read_shard(path, vh, ch))
        assert len(back) == len(samples)
        for a, b in zip(samples, back):
            assert np.array_equal(a.tokens, b.tokens)
            assert np.array_equal(a.modality_mask, b.modality_mask)
            assert np.array_equal(a.loss_mask, b.loss_mask)
            assert a.image_slots == b.image_slots
            assert a.stage_tag == b.stage_tag

    def test_truncated_file_names_offset(self, tmp_path, tok):
        rng = np.random.default_rng(2)
        samples = random_samples(rng, 5, tok)
        path = tmp_path / "x.shard"
        write_shard(samples, path, tok.vocab_hash(), config_hash(16, 8, 1))
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(ShardFormatError, match="byte"):
            list(read_shard(path, tok.vocab_hash(), config_hash(16, 8, 1)))

    def test_vocab_hash_mismatch_refused(self, tmp_path, tok):
        path = tmp_path / "x.shard"
        write_shard([], path, tok.vocab_hash(), config_hash(16, 8, 1))
        with pytest.raises(ShardFormatError, match="vocab"):
            list(read_shard(path, b"\x00" * 32, config_hash(16, 8, 1)))

    def test_cfg_hash_mismatch_refused(self, tmp_path, tok):
        path = tmp_path / "x.shard"
        write_shard([], path, tok.vocab_hash(), config_hash(16, 8, 1))
        with pytest.raises(ShardFormatError, match="config"):
            list(read_shard(path, tok.vocab_hash(), config_hash(16, 8, 2)))

    # a bad sample length, stage tag and slot are refused through `diag align`
    # in test_cli.py, and every malformed sample in test_sample_contract.py
    @pytest.mark.parametrize("corruption,message", [
        ("image id", "utf-8"),
        ("trailing bytes", "fields end at byte"),
    ])
    def test_corrupt_record_refused(self, tmp_path, tok, corruption, message):
        sample = pack_sft(("img", "what? ", "y"), tok, 4)
        L = len(sample)
        path = tmp_path / "x.shard"
        write_shard([sample], path, tok.vocab_hash(), config_hash(16, 8, 1))
        data = bytearray(path.read_bytes())  # header 76 B, record length, record
        if corruption == "image id":
            data[85 + 6 * L + 4 + 10] = 0xFF
        elif corruption == "trailing bytes":
            struct.pack_into("<I", data, 76, len(data) - 80 + 2)
            data += b"\x00\x00"
        path.write_bytes(bytes(data))
        with pytest.raises(ShardFormatError, match=message):
            list(read_shard(path, tok.vocab_hash(), config_hash(16, 8, 1)))

    def test_hashes_are_required(self, tmp_path, tok):
        path = tmp_path / "x.shard"
        write_shard([], path, tok.vocab_hash(), config_hash(16, 8, 1))
        for hashes in ((), (tok.vocab_hash(),)):
            with pytest.raises(TypeError):
                read_shard(path, *hashes)

    def test_not_a_shard(self, tmp_path, tok):
        path = tmp_path / "x.shard"
        path.write_bytes(b"definitely not a shard")
        with pytest.raises(ShardFormatError):
            list(read_shard(path, tok.vocab_hash(), config_hash(16, 8, 1)))


class TestPixels:
    def test_deterministic_and_in_range(self):
        a = pixels_for("img-1", 16)
        b = pixels_for("img-1", 16)
        assert np.array_equal(a, b)
        assert a.shape == (16, 16, 3)
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert not np.array_equal(a, pixels_for("img-2", 16))

    def test_bind_covers_all_slots(self, tok):
        doc = InterleavedDocument("d", [ImageSegment("p"), TextSegment("t"),
                                        ImageSegment("q")])
        samples = pack_document(doc, tok, 4, 64)
        pixels = bind_pixels(samples, 16)
        assert set(pixels) == {"p", "q"}
