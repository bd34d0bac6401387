"""Synthetic corpus generation.

Emits an interleaved-jsonl corpus (MMC4-shaped: several images per document,
text segments following their image) and a pairs-jsonl corpus (COYO-shaped:
one short alt-text caption per image). Text is ASCII, so byte-level token
counts hit the per-image token targets exactly. Each document repeats one
random topic string through its text segments, which makes later segments
predictable from earlier ones: the long-range structure the interleave
ablations rely on.
"""

from __future__ import annotations

import json
import math
import string
from dataclasses import dataclass
from pathlib import Path

from .corpus import ImageSegment, InterleavedDocument, PairSample, TextSegment
from .corpus import document_to_json, pair_to_json
from .errors import VlmforgeError
from .manifest import atomic_open
from .seeding import substream


PAIR_LONG_FRACTION = 0.7  # share of captions at the longer length: mean 22.7 bytes
TOPIC_LENGTH = 6  # letters in each document's or caption's topic string


@dataclass
class FixtureSpec:
    n_docs: int = 100
    images_per_doc: int = 4
    tokens_per_image: float = 122.5
    n_pairs: int = 200
    pair_caption_lengths: tuple[int, int] = (22, 23)
    seed: int = 0

    def validate(self) -> None:
        if self.n_docs <= 0 or self.n_pairs < 0:
            raise VlmforgeError("n_docs must be positive, n_pairs non-negative")
        if self.images_per_doc <= 0:
            raise VlmforgeError("images_per_doc must be positive")
        if not math.isfinite(self.tokens_per_image):
            raise VlmforgeError(f"tokens_per_image must be finite, not {self.tokens_per_image}")
        if self.tokens_per_image < 1:
            raise VlmforgeError("tokens_per_image target below 1 is unreachable")
        if min(self.pair_caption_lengths) < TOPIC_LENGTH:
            raise VlmforgeError("pair captions shorter than the topic are unreachable")


def _topic(rng) -> str:
    letters = string.ascii_lowercase
    return "".join(letters[i] for i in rng.integers(0, len(letters), size=TOPIC_LENGTH))


def _filled_text(topic: str, n_bytes: int) -> str:
    """`topic topic topic ...` truncated to exactly n_bytes ASCII bytes."""
    unit = topic + " "
    text = (unit * (n_bytes // len(unit) + 1))[:n_bytes]
    if not text.strip():
        text = topic[: n_bytes - 1] + "x" if n_bytes > 1 else "x"
    return text


def make_interleaved(spec: FixtureSpec) -> list[InterleavedDocument]:
    spec.validate()
    rng = substream(spec.seed, "fixtures/interleaved")
    docs = []
    for d in range(spec.n_docs):
        topic = _topic(rng)
        n_img = spec.images_per_doc
        total_bytes = round(spec.tokens_per_image * n_img)
        base, extra = divmod(total_bytes, n_img)
        segments: list = []
        text_indices = [2 * i + 1 for i in range(n_img)]
        for i in range(n_img):
            image_id = f"mmc4-{spec.seed}-{d:05d}-{i}"
            best = text_indices[i]
            sims = {}
            for j, idx in enumerate(text_indices):
                if idx == best:
                    sims[idx] = round(0.8 + 0.19 * float(rng.random()), 6)
                else:
                    sims[idx] = round(0.1 + 0.4 * float(rng.random()), 6)
            segments.append(ImageSegment(image_id, sims))
            seg_bytes = base + (1 if i < extra else 0)
            segments.append(TextSegment(_filled_text(topic, seg_bytes)))
        docs.append(InterleavedDocument(f"doc-{spec.seed}-{d:05d}", segments,
                                        {"source": "fixture"}))
    return docs


def make_pairs(spec: FixtureSpec) -> list[PairSample]:
    spec.validate()
    rng = substream(spec.seed, "fixtures/pairs")
    short, long = sorted(spec.pair_caption_lengths)
    n_long = round(spec.n_pairs * PAIR_LONG_FRACTION)
    pairs = []
    for i in range(spec.n_pairs):
        topic = _topic(rng)
        length = long if i < n_long else short
        caption = _filled_text(topic, length)
        score = round(float(rng.uniform(0.0, 1.0)), 6)
        pairs.append(PairSample(f"coyo-{spec.seed}-{i:06d}", caption, score))
    return pairs


def fixture_gen(spec: FixtureSpec, out_dir) -> dict[str, Path]:
    """Write both fixture corpora, each atomically; byte-identical for
    identical (spec, seed). A spec that fails validation writes nothing."""
    spec.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    interleaved_path = out_dir / "interleaved.jsonl"
    pairs_path = out_dir / "pairs.jsonl"
    with atomic_open(interleaved_path) as fh:
        for doc in make_interleaved(spec):
            fh.write(json.dumps(document_to_json(doc), sort_keys=True) + "\n")
    with atomic_open(pairs_path) as fh:
        for pair in make_pairs(spec):
            fh.write(json.dumps(pair_to_json(pair), sort_keys=True) + "\n")
    return {"interleaved": interleaved_path, "pairs": pairs_path}
