import json
import logging

import numpy as np
import pytest

from vlmforge.corpus import (
    BlendSampler,
    ImageSegment,
    InterleavedDocument,
    PairSample,
    TextSegment,
    compute_stats,
    document_to_json,
    pair_as_document,
    parse_corpus,
    reformat_images_first,
    subsample_topk,
    to_pairs,
)
from vlmforge.errors import CorpusFormatError
from vlmforge.fixtures import FixtureSpec, make_interleaved, make_pairs
from vlmforge.packing import ByteTokenizer
from vlmforge.seeding import child_seed

from conftest import random_document


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestParseCorpus:
    def test_minimal_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, ['{"doc_id":"d0","segments":[{"text":"hello"}]}'])
        docs = list(parse_corpus(path, "interleaved-jsonl"))
        assert len(docs) == 1
        assert docs[0].segments == [TextSegment("hello")]

    def test_empty_file(self, tmp_path, tok):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        docs = list(parse_corpus(path, "interleaved-jsonl"))
        assert docs == []
        stats = compute_stats(docs, tok)
        assert stats.num_docs == 0 and stats.num_images == 0
        assert stats.images_per_sample == 0.0
        assert stats.tokens_per_image is None

    def test_malformed_line_skipped_with_line_number(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        write_lines(path, [
            '{"doc_id":"d0","segments":[{"text":"a"}]}',
            "not json",
            '{"doc_id":"d1","segments":[{"text":"b"}]}',
        ])
        with caplog.at_level(logging.WARNING, logger="vlmforge.corpus"):
            docs = list(parse_corpus(path, "interleaved-jsonl"))
        assert [d.doc_id for d in docs] == ["d0", "d1"]
        skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        assert len(skipped) == 1 and ":line 2:" in skipped[0]

    def test_non_utf8_line_skipped_or_raised_with_its_number(self, tmp_path, caplog):
        path = tmp_path / "p.jsonl"
        path.write_bytes(b'{"image_id": "a", "caption": "one", "clip_score": 0.5}\n'
                         b'{"image_id": "b", "caption": "tw\xff", "clip_score": 0.5}\n'
                         b'{"image_id": "c", "caption": "thr\xc3\xa9\xe2", "clip_score": 0.5}\n'
                         b'{"image_id": "d", "caption": "caf\xc3\xa9", "clip_score": 0.5}\n')
        with caplog.at_level(logging.WARNING, logger="vlmforge.corpus"):
            pairs = list(parse_corpus(path, "pairs-jsonl"))
        assert [(p.image_id, p.caption) for p in pairs] == [("a", "one"), ("d", "caf\xe9")]
        skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        assert [m.split(": skipped")[0] for m in skipped] == [f"{path}:line 2", f"{path}:line 3"]
        assert "byte 0xff" in skipped[0] and "byte 0xe2" in skipped[1]
        with pytest.raises(CorpusFormatError, match="not UTF-8") as err:
            list(parse_corpus(path, "pairs-jsonl", strict=True))
        assert err.value.line_no == 2

    def test_strict_mode_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, ['{"doc_id":"d0"}'])
        with pytest.raises(CorpusFormatError) as err:
            list(parse_corpus(path, "interleaved-jsonl", strict=True))
        assert err.value.line_no == 1

    def test_duplicate_doc_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = '{"doc_id":"d0","segments":[{"text":"a"}]}'
        write_lines(path, [rec, rec])
        with pytest.raises(CorpusFormatError):
            list(parse_corpus(path, "interleaved-jsonl", strict=True))

    def test_pairs_and_empty_caption_drop(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(path, [
            '{"image_id":"i0","caption":"a cat","clip_score":0.5}',
            '{"image_id":"i1","caption":"   ","clip_score":0.9}',
        ])
        pairs = list(parse_corpus(path, "pairs-jsonl"))
        assert pairs == [PairSample("i0", "a cat", 0.5)]

    @pytest.mark.parametrize("format,line", [
        ("interleaved-jsonl",
         '{"doc_id":"d","segments":[{"image_id":"x","sim_scores":[1]},{"text":"hi"}]}'),
        ("interleaved-jsonl", '{"doc_id":"d","segments":["text here"]}'),
        ("interleaved-jsonl",
         '{"doc_id":"d","segments":[{"image_id":"x","sim_scores":{"1":null}},{"text":"hi"}]}'),
        ("pairs-jsonl", '{"image_id":"a","caption":"b","clip_score":null}'),
    ], ids=["sim-scores-list", "segment-string", "sim-score-null", "clip-score-null"])
    def test_wrongly_typed_value_is_schema_error(self, tmp_path, caplog, format, line):
        """Skipped with its line number, or raised with it under strict, as
        every other malformed line is."""
        good = ('{"doc_id":"d0","segments":[{"text":"a"}]}' if format == "interleaved-jsonl"
                else '{"image_id":"i0","caption":"a","clip_score":"0.5"}')
        path = tmp_path / "c.jsonl"
        write_lines(path, [good, line])
        with caplog.at_level(logging.WARNING, logger="vlmforge.corpus"):
            assert len(list(parse_corpus(path, format))) == 1
        skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        assert len(skipped) == 1 and ":line 2:" in skipped[0]
        with pytest.raises(CorpusFormatError) as err:
            list(parse_corpus(path, format, strict=True))
        assert err.value.line_no == 2

    def test_non_finite_clip_score_is_schema_error(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_lines(path, ['{"image_id":"i0","caption":"a","clip_score":NaN}'])
        with pytest.raises(CorpusFormatError):
            list(parse_corpus(path, "pairs-jsonl", strict=True))

    def test_table2_shape_fixture(self, tmp_path, tok):
        # 10 documents, 40 total images -> 4.0 images per sample
        lines = []
        for d in range(10):
            segs = []
            for i in range(4):
                segs.append({"image_id": f"d{d}i{i}"})
                segs.append({"text": "some text"})
            lines.append(json.dumps({"doc_id": f"d{d}", "segments": segs}))
        path = tmp_path / "c.jsonl"
        write_lines(path, lines)
        stats = compute_stats(parse_corpus(path, "interleaved-jsonl"), tok)
        assert stats.images_per_sample == 4.0


class TestComputeStats:
    def test_constructed_mean_tokens_per_image(self, tok):
        # 100 one-image docs, captions of 22 or 23 bytes mixed to mean 22.7
        docs = []
        for i in range(100):
            length = 23 if i < 70 else 22
            docs.append(InterleavedDocument(
                f"d{i}", [ImageSegment(f"i{i}"), TextSegment("x" * length)]))
        stats = compute_stats(docs, tok)
        assert stats.tokens_per_image == pytest.approx(22.7, abs=0.05)

    def test_small_arithmetic(self, tok):
        doc = InterleavedDocument(
            "d", [ImageSegment("a"), ImageSegment("a"), TextSegment("0123456789")])
        stats = compute_stats([doc], tok)
        assert stats.images_per_sample == 2
        assert stats.tokens_per_image == 5

    def test_matches_brute_force_recount(self, tok):
        rng = np.random.default_rng(11)
        docs = [random_document(rng, f"d{i}") for i in range(60)]
        stats = compute_stats(docs, tok)
        # independent line-by-line recount
        n_img = n_tok = 0
        for doc in docs:
            for seg in doc.segments:
                if isinstance(seg, ImageSegment):
                    n_img += 1
                else:
                    n_tok += len(seg.text.encode("utf-8"))
        assert stats.num_docs == 60
        assert stats.num_images == n_img
        assert stats.total_text_tokens == n_tok


class TestToPairs:
    def schematic_doc(self):
        # <txt1><im1><txt2><txt3><im2><txt4>; im1 best-matches txt2, im2 txt4
        return InterleavedDocument("d", [
            TextSegment("txt1"),
            ImageSegment("im1", {0: 0.1, 2: 0.9, 3: 0.2, 5: 0.3}),
            TextSegment("txt2"),
            TextSegment("txt3"),
            ImageSegment("im2", {0: 0.2, 2: 0.1, 3: 0.3, 5: 0.8}),
            TextSegment("txt4"),
        ])

    def test_schematic_best_sim(self):
        pairs = to_pairs(self.schematic_doc(), "best-sim")
        assert [(p.image_id, p.caption) for p in pairs] == [
            ("im1", "txt2"), ("im2", "txt4")]

    def test_zero_images(self):
        doc = InterleavedDocument("d", [TextSegment("only text")])
        assert to_pairs(doc, "best-sim") == []
        assert to_pairs(doc, "adjacent-next") == []

    def test_adjacent_next_drops_trailing_image(self):
        doc = InterleavedDocument("d", [
            ImageSegment("i0"), TextSegment("a"),
            ImageSegment("i1"), TextSegment("b"),
            ImageSegment("i2"),
        ])
        pairs = to_pairs(doc, "adjacent-next")
        assert [(p.image_id, p.caption) for p in pairs] == [("i0", "a"), ("i1", "b")]

    def test_adjacent_next_against_exhaustive_scan(self):
        rng = np.random.default_rng(5)
        for trial in range(200):
            doc = random_document(rng, f"d{trial}")
            pairs = to_pairs(doc, "adjacent-next")
            got = {p.image_id: p.caption for p in pairs}
            for idx, seg in enumerate(doc.segments):
                if not isinstance(seg, ImageSegment):
                    continue
                following = [j for j in range(idx + 1, len(doc.segments))
                             if isinstance(doc.segments[j], TextSegment)]
                if following:
                    assert got[seg.image_id] == doc.segments[min(following)].text
                else:
                    assert seg.image_id not in got

    def test_best_sim_tie_breaks_to_lowest_index(self):
        doc = InterleavedDocument("d", [
            ImageSegment("i", {1: 0.5, 2: 0.5}),
            TextSegment("first"), TextSegment("second"),
        ])
        assert to_pairs(doc, "best-sim")[0].caption == "first"

    def test_best_sim_missing_scores_names_image(self):
        doc = InterleavedDocument("d", [ImageSegment("naked"), TextSegment("t")])
        with pytest.raises(CorpusFormatError, match="naked"):
            to_pairs(doc, "best-sim")

    def test_captions_are_byte_equal_to_source_segments(self):
        rng = np.random.default_rng(17)
        for trial in range(100):
            doc = random_document(rng, f"d{trial}")
            source_texts = {s.text for s in doc.segments if isinstance(s, TextSegment)}
            for policy in ("best-sim", "adjacent-next"):
                try:
                    pairs = to_pairs(doc, policy)
                except CorpusFormatError:
                    continue
                assert all(p.caption in source_texts for p in pairs)


class TestReformatImagesFirst:
    def test_schematic(self):
        doc = InterleavedDocument("d", [
            ImageSegment("im1"), TextSegment("txt1"),
            ImageSegment("im2"), TextSegment("txt2"),
        ])
        out = reformat_images_first(doc)
        kinds = [type(s).__name__ for s in out.segments]
        assert kinds == ["ImageSegment", "ImageSegment", "TextSegment", "TextSegment"]
        assert [s.image_id for s in out.segments[:2]] == ["im1", "im2"]
        assert [s.text for s in out.segments[2:]] == ["txt1", "txt2"]

    def test_text_only_identity(self):
        doc = InterleavedDocument("d", [TextSegment("a"), TextSegment("b")])
        assert reformat_images_first(doc).segments == doc.segments

    def test_stable_partition_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            doc = random_document(rng, f"d{trial}", n_segments=8, with_sims=False)
            out = reformat_images_first(doc)
            images = [s for s in doc.segments if isinstance(s, ImageSegment)]
            texts = [s for s in doc.segments if isinstance(s, TextSegment)]
            assert out.segments == images + texts

    def test_idempotent_and_multiset_preserving(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            doc = random_document(rng, f"d{trial}", with_sims=True)
            once = reformat_images_first(doc)
            once.validate()
            twice = reformat_images_first(once)
            assert twice.segments == once.segments
            def key(seg):
                return (seg.text if isinstance(seg, TextSegment) else seg.image_id)
            assert sorted(map(key, once.segments)) == sorted(map(key, doc.segments))

    def test_sim_scores_remapped_to_valid_text_segments(self):
        doc = InterleavedDocument("d", [
            TextSegment("t0"), ImageSegment("i", {0: 0.9, 3: 0.1}),
            ImageSegment("j", {3: 0.7}), TextSegment("t1"),
        ])
        out = reformat_images_first(doc)
        out.validate()
        assert to_pairs(out, "best-sim")[0].caption == "t0"


class TestSubsampleTopk:
    def pairs(self, scores, ids=None):
        ids = ids or [f"i{n}" for n in range(len(scores))]
        return [PairSample(i, "cap", s) for i, s in zip(ids, scores)]

    def test_small_sort(self):
        out = subsample_topk(self.pairs([0.9, 0.1, 0.5]), 2)
        assert [p.clip_score for p in out] == [0.9, 0.5]

    def test_k_at_least_n(self):
        pairs = self.pairs([0.3, 0.1])
        assert len(subsample_topk(pairs, 10)) == 2

    def test_k_zero_and_negative(self):
        assert subsample_topk(self.pairs([0.5]), 0) == []
        with pytest.raises(ValueError):
            subsample_topk([], -1)

    def test_non_finite_rejected(self):
        pairs = self.pairs([0.5, float("nan"), 0.9])
        out = subsample_topk(pairs, 3)
        assert len(out) == 2

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(2)
        scores = rng.choice(np.round(rng.random(50), 3), size=10_000)  # many ties
        pairs = self.pairs(list(scores), ids=[f"id{n:05d}" for n in range(10_000)])
        got = subsample_topk(iter(pairs), 250)
        want = sorted(pairs, key=lambda p: (-p.clip_score, p.image_id))[:250]
        assert got == want

    def test_score_monotone_boundary(self):
        rng = np.random.default_rng(4)
        pairs = self.pairs(list(rng.random(200)))
        out = subsample_topk(pairs, 50)
        excluded = set(p.image_id for p in pairs) - set(p.image_id for p in out)
        max_excluded = max(p.clip_score for p in pairs if p.image_id in excluded)
        assert min(p.clip_score for p in out) >= max_excluded


class TestBlendSampler:
    def docs_with_images(self, prefix, n_docs, n_images):
        docs = []
        for d in range(n_docs):
            segs = []
            for i in range(n_images):
                segs.append(ImageSegment(f"{prefix}{d}i{i}"))
                segs.append(TextSegment("t"))
            docs.append(InterleavedDocument(f"{prefix}{d}", segs))
        return docs

    def test_image_proportions_converge(self):
        a = self.docs_with_images("a", 10, 4)
        b = self.docs_with_images("b", 10, 1)
        sampler = BlendSampler([(a, 0.5), (b, 0.5)], seed=123)
        counts = {"a": 0, "b": 0}
        for _ in range(100_000):
            doc = sampler.draw()
            counts[doc.doc_id[0]] += doc.num_images
        share_a = counts["a"] / (counts["a"] + counts["b"])
        assert abs(share_a - 0.5) < 0.02

    def test_single_source(self):
        a = self.docs_with_images("a", 3, 1)
        sampler = BlendSampler([(a, 1.0)], seed=0)
        assert all(sampler.draw().doc_id.startswith("a") for _ in range(50))

    def test_seed_determinism(self):
        a = self.docs_with_images("a", 5, 2)
        b = self.docs_with_images("b", 5, 3)
        draws = []
        for _ in range(2):
            sampler = BlendSampler([(a, 0.4), (b, 0.6)], seed=7)
            draws.append([sampler.draw().doc_id for _ in range(1000)])
        assert draws[0] == draws[1]

    @pytest.mark.parametrize("blend", ["pretrain", "random"])
    def test_draws_are_generator_choice(self, blend):
        """A draw searches the CDF built once for the same uniform double
        `Generator.choice(p=...)` would take: 100,000 draws pick the same
        sources, and leave the generator in the same state, as choice's.
        The pretrain blend is the recipe's: documents of two images and
        caption pairs at equal image shares."""
        if blend == "pretrain":
            spec = FixtureSpec(n_docs=40, images_per_doc=2, tokens_per_image=16, n_pairs=80,
                               seed=2)
            sources = [make_interleaved(spec), [pair_as_document(p) for p in make_pairs(spec)]]
            proportions = [0.5, 0.5]
        else:
            rng = np.random.default_rng(9)
            sources = [self.docs_with_images(f"s{i}-", 3, int(n))
                       for i, n in enumerate(rng.integers(0, 5, 4))]
            proportions = list(rng.dirichlet(np.ones(4)))
        for i, docs in enumerate(sources):
            for doc in docs:
                doc.doc_id = f"{i}:{doc.doc_id}"
        seed = child_seed(5, "pretrain")
        sampler = BlendSampler(list(zip(sources, proportions)), seed)
        rates = [share / (sum(d.num_images for d in docs) / len(docs) or 1.0)
                 for docs, share in zip(sources, proportions)]
        p = np.asarray([r / sum(rates) for r in rates])
        choice = np.random.default_rng(seed)
        drawn = [int(sampler.draw().doc_id.split(":")[0]) for _ in range(100_000)]
        assert drawn == [int(choice.choice(len(p), p=p)) for _ in range(100_000)]
        assert sampler._rng.bit_generator.state == choice.bit_generator.state

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            BlendSampler([([], 1.0)], seed=0)

    def test_bad_proportions_rejected(self):
        a = self.docs_with_images("a", 1, 1)
        with pytest.raises(ValueError):
            BlendSampler([(a, 0.4), (a, 0.4)], seed=0)
        with pytest.raises(ValueError):
            BlendSampler([(a, -0.5), (a, 1.5)], seed=0)


def test_document_json_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    docs = [random_document(rng, f"d{i}") for i in range(20)]
    path = tmp_path / "c.jsonl"
    with open(path, "w") as fh:
        for doc in docs:
            fh.write(json.dumps(document_to_json(doc)) + "\n")
    back = list(parse_corpus(path, "interleaved-jsonl", strict=True))
    assert back == docs
