"""Interleaved and paired image-text corpora.

Documents are ordered lists of text and image segments (web-interleaved
style); pair corpora are isolated (image, caption, clip_score) records.
This module parses the jsonl formats, computes corpus statistics, breaks
interleaved documents into pairs, reorders segments for the images-first
ablation, keeps the top-k pairs by clip score, and blends multiple corpora
into one deterministic document stream at target image proportions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import CorpusFormatError, VlmforgeError
from .manifest import parse_json

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TextSegment:
    text: str


@dataclass(frozen=True)
class ImageSegment:
    image_id: str
    # maps segment index (within the owning document) of a text segment
    # to a similarity score in [-1, 1]
    sim_scores: dict[int, float] | None = None


Segment = TextSegment | ImageSegment


@dataclass
class InterleavedDocument:
    doc_id: str
    segments: list[Segment]
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        if not self.segments:
            raise CorpusFormatError(f"document {self.doc_id!r} has no segments")
        for i, seg in enumerate(self.segments):
            if isinstance(seg, TextSegment):
                if not seg.text.strip():
                    raise CorpusFormatError(
                        f"document {self.doc_id!r}: text segment {i} is empty"
                    )
            elif isinstance(seg, ImageSegment):
                if seg.sim_scores is not None:
                    for key in seg.sim_scores:
                        if not (0 <= key < len(self.segments)) or not isinstance(
                            self.segments[key], TextSegment
                        ):
                            raise CorpusFormatError(
                                f"document {self.doc_id!r}: sim_scores key {key} "
                                f"does not index a text segment"
                            )
            else:
                raise CorpusFormatError(
                    f"document {self.doc_id!r}: segment {i} has unknown type"
                )

    def text_segments(self) -> list[tuple[int, TextSegment]]:
        return [(i, s) for i, s in enumerate(self.segments) if isinstance(s, TextSegment)]

    def image_segments(self) -> list[tuple[int, ImageSegment]]:
        return [(i, s) for i, s in enumerate(self.segments) if isinstance(s, ImageSegment)]

    @property
    def num_images(self) -> int:
        return sum(1 for s in self.segments if isinstance(s, ImageSegment))


@dataclass(frozen=True)
class PairSample:
    image_id: str
    caption: str
    clip_score: float


@dataclass
class CorpusStats:
    num_docs: int = 0
    num_images: int = 0
    total_text_tokens: int = 0

    @property
    def images_per_sample(self) -> float:
        return self.num_images / self.num_docs if self.num_docs else 0.0

    @property
    def tokens_per_image(self) -> float | None:
        # undefined (not a crash) for image-free corpora
        if self.num_images == 0:
            return None
        return self.total_text_tokens / self.num_images

    def as_dict(self) -> dict:
        return {
            "num_docs": self.num_docs,
            "num_images": self.num_images,
            "total_text_tokens": self.total_text_tokens,
            "images_per_sample": self.images_per_sample,
            "tokens_per_image": self.tokens_per_image,
        }


def _score(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise CorpusFormatError(f"{what} must be a number, not {value!r}") from None


def _segment_from_json(obj: dict) -> Segment:
    if not isinstance(obj, dict):
        raise CorpusFormatError(f"a segment must be a JSON object, not {obj!r}")
    if "text" in obj:
        if not isinstance(obj["text"], str):
            raise CorpusFormatError("segment 'text' must be a string")
        return TextSegment(obj["text"])
    if "image_id" in obj:
        if not isinstance(obj["image_id"], str):
            raise CorpusFormatError("segment 'image_id' must be a string")
        sims = obj.get("sim_scores")
        if sims is not None:
            if not isinstance(sims, dict):
                raise CorpusFormatError(f"'sim_scores' must be a JSON object, not {sims!r}")
            sims = {int(k): _score(v, "a sim score") for k, v in sims.items()}
        return ImageSegment(obj["image_id"], sims)
    raise CorpusFormatError("segment needs 'text' or 'image_id'")


def _document_from_json(obj: dict) -> InterleavedDocument:
    if not isinstance(obj.get("doc_id"), str):
        raise CorpusFormatError("record is missing string 'doc_id'")
    segs = obj.get("segments")
    if not isinstance(segs, list):
        raise CorpusFormatError("record is missing list 'segments'")
    meta = {} if obj.get("meta") is None else obj["meta"]
    if not isinstance(meta, dict):
        raise CorpusFormatError(f"'meta' must be a JSON object, not {meta!r}")
    doc = InterleavedDocument(
        doc_id=obj["doc_id"],
        segments=[_segment_from_json(s) for s in segs],
        meta=meta,
    )
    doc.validate()
    return doc


def _pair_from_json(obj: dict) -> PairSample:
    for key, kind in (("image_id", str), ("caption", str)):
        if not isinstance(obj.get(key), kind):
            raise CorpusFormatError(f"pair record is missing string {key!r}")
    if "clip_score" not in obj:
        raise CorpusFormatError("pair record is missing 'clip_score'")
    score = _score(obj["clip_score"], "'clip_score'")
    if not math.isfinite(score):
        raise CorpusFormatError(f"clip_score is not finite: {obj['clip_score']!r}")
    return PairSample(obj["image_id"], obj["caption"], score)


def document_to_json(doc: InterleavedDocument) -> dict:
    segs: list[dict] = []
    for seg in doc.segments:
        if isinstance(seg, TextSegment):
            segs.append({"text": seg.text})
        else:
            rec: dict = {"image_id": seg.image_id}
            if seg.sim_scores is not None:
                rec["sim_scores"] = {str(k): v for k, v in seg.sim_scores.items()}
            segs.append(rec)
    out = {"doc_id": doc.doc_id, "segments": segs}
    if doc.meta:
        out["meta"] = doc.meta
    return out


def pair_to_json(pair: PairSample) -> dict:
    return {"image_id": pair.image_id, "caption": pair.caption, "clip_score": pair.clip_score}


def _check_utf8(line: str) -> None:
    """Refuse a line read with errors="surrogateescape" that held bytes
    that are not UTF-8."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CorpusFormatError(f"byte {ord(line[exc.start]) - 0xDC00:#04x} at "
                                    f"character {exc.start} is not UTF-8") from None


def parse_corpus(
    path,
    format: str,
    strict: bool = False,
) -> Iterator[InterleavedDocument | PairSample]:
    """Stream records from a jsonl corpus file in file order.

    Malformed lines are logged with their line number and skipped; in strict
    mode the first bad line raises CorpusFormatError instead. Empty-caption
    pairs are dropped with a counter (web-scale noise, not an error).
    """
    if format not in ("interleaved-jsonl", "pairs-jsonl"):
        raise ValueError(f"unknown corpus format {format!r}")
    seen_ids: set[str] = set()
    dropped_captions = 0
    # bytes that are not UTF-8 decode to lone surrogates, which valid UTF-8
    # never yields, so a bad line fails on its own and the rest still parse
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                _check_utf8(line)
                obj = parse_json(line)
                if not isinstance(obj, dict):
                    raise CorpusFormatError("line is not a JSON object")
                if format == "interleaved-jsonl":
                    record = _document_from_json(obj)
                    if record.doc_id in seen_ids:
                        raise CorpusFormatError(f"duplicate doc_id {record.doc_id!r}")
                    seen_ids.add(record.doc_id)
                else:
                    record = _pair_from_json(obj)
                    if not record.caption.strip():
                        dropped_captions += 1
                        continue
            except (VlmforgeError, ValueError) as exc:  # ValueError: int() of a sim_scores key
                if strict:
                    raise CorpusFormatError(str(exc), line_no=line_no, path=str(path)) from exc
                logger.warning("%s:line %d: skipped malformed record: %s", path, line_no, exc)
                continue
            yield record
    if dropped_captions:
        logger.info("%s: dropped %d empty-caption pairs", path, dropped_captions)


def compute_stats(corpus: Iterable[InterleavedDocument | PairSample], tokenizer) -> CorpusStats:
    """Count documents, images, and text tokens under the given tokenizer.

    Pair samples count as one-image documents so both corpus kinds report the
    same statistics (Table-2 style: images per sample, text tokens per image).
    """
    stats = CorpusStats()
    for record in corpus:
        stats.num_docs += 1
        if isinstance(record, PairSample):
            stats.num_images += 1
            stats.total_text_tokens += len(tokenizer.encode(record.caption))
        else:
            stats.num_images += record.num_images
            for _, seg in record.text_segments():
                stats.total_text_tokens += len(tokenizer.encode(seg.text))
    return stats


def to_pairs(doc: InterleavedDocument, policy: str = "best-sim") -> list[PairSample]:
    """Break an interleaved document into (image, text segment) pairs.

    best-sim pairs each image with its highest-scoring text segment (ties go
    to the lowest segment index); adjacent-next pairs it with the first text
    segment that follows it, dropping trailing images with none. Interleave
    order is discarded; each image yields at most one pair.
    """
    if policy not in ("best-sim", "adjacent-next"):
        raise ValueError(f"unknown pairing policy {policy!r}")
    pairs: list[PairSample] = []
    for img_idx, img in doc.image_segments():
        if policy == "best-sim":
            if not img.sim_scores:
                raise CorpusFormatError(
                    f"document {doc.doc_id!r}: image {img.image_id!r} has no "
                    f"sim_scores, required by best-sim"
                )
            best_idx = min(
                img.sim_scores, key=lambda k: (-img.sim_scores[k], k)
            )
            seg = doc.segments[best_idx]
            pairs.append(PairSample(img.image_id, seg.text, img.sim_scores[best_idx]))
        else:
            follow = next(
                (
                    s
                    for i, s in enumerate(doc.segments)
                    if i > img_idx and isinstance(s, TextSegment)
                ),
                None,
            )
            if follow is not None:
                pairs.append(PairSample(img.image_id, follow.text, 1.0))
    return pairs


def reformat_images_first(doc: InterleavedDocument) -> InterleavedDocument:
    """Stable-partition segments: all images (source order), then all text.

    sim_scores keys are remapped to the text segments' new indices so the
    reordered document stays valid.
    """
    images = [s for s in doc.segments if isinstance(s, ImageSegment)]
    texts = [s for s in doc.segments if isinstance(s, TextSegment)]
    old_text_indices = [i for i, s in enumerate(doc.segments) if isinstance(s, TextSegment)]
    remap = {old: len(images) + new for new, old in enumerate(old_text_indices)}
    remapped_images: list[Segment] = []
    for img in images:
        sims = img.sim_scores
        if sims is not None:
            sims = {remap[k]: v for k, v in sims.items()}
        remapped_images.append(ImageSegment(img.image_id, sims))
    return InterleavedDocument(doc.doc_id, remapped_images + texts, dict(doc.meta))


def subsample_topk(pairs: Iterable[PairSample], k: int) -> list[PairSample]:
    """Keep the k pairs with the highest clip scores.

    Ties break by ascending image_id; output is sorted score-descending.
    Non-finite scores are rejected with a diagnostic and do not compete.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    kept: list[PairSample] = []
    for pair in pairs:
        if not math.isfinite(pair.clip_score):
            logger.warning("rejecting pair %r: non-finite clip_score", pair.image_id)
            continue
        kept.append(pair)
    kept.sort(key=lambda p: (-p.clip_score, p.image_id))
    return kept[:k]


class BlendSampler:
    """Infinite deterministic blend of document sources at image proportions.

    Proportions are over *images*, not documents: a source whose documents
    carry more images is drawn proportionally less often so its share of
    emitted images converges to the target. Documents within a source are
    cycled in file order; the source choice per draw is the only randomness.
    """

    def __init__(
        self,
        sources: list[tuple[list[InterleavedDocument], float]],
        seed: int,
    ):
        if not sources:
            raise ValueError("at least one source is required")
        proportions = [p for _, p in sources]
        if any(p <= 0 for p in proportions):
            raise ValueError("proportions must be positive")
        if abs(sum(proportions) - 1.0) > 1e-9:
            raise ValueError(f"proportions must sum to 1, got {sum(proportions)}")
        self._docs: list[list[InterleavedDocument]] = []
        doc_rates = []
        for docs, proportion in sources:
            docs = list(docs)
            if not docs:
                raise ValueError("empty source corpus")
            images_per_sample = sum(d.num_images for d in docs) / len(docs)
            if images_per_sample == 0:
                # text-only source: proportion over images is meaningless,
                # fall back to document-rate weighting
                images_per_sample = 1.0
            self._docs.append(docs)
            doc_rates.append(proportion / images_per_sample)
        total = sum(doc_rates)
        # the CDF `Generator.choice(p=...)` would rebuild on every draw: the
        # same uniform double searched in it gives choice's draw, bit for bit
        self._cdf = np.asarray([r / total for r in doc_rates]).cumsum()
        self._cdf /= self._cdf[-1]
        self._cursors = [0] * len(sources)
        self._rng = np.random.default_rng(seed)

    def draw(self) -> InterleavedDocument:
        src = int(self._cdf.searchsorted(self._rng.random(), side="right"))
        docs = self._docs[src]
        doc = docs[self._cursors[src] % len(docs)]
        self._cursors[src] += 1
        return doc

    def __iter__(self) -> Iterator[InterleavedDocument]:
        while True:
            yield self.draw()


def pair_as_document(pair: PairSample) -> InterleavedDocument:
    """View a pair sample as a two-segment document (image before its text)."""
    return InterleavedDocument(
        doc_id=f"pair:{pair.image_id}",
        segments=[ImageSegment(pair.image_id), TextSegment(pair.caption)],
    )
