"""Cross-modal embedding alignment profiles.

At every decoder layer, hidden states are split by modality and compared
with a Chamfer-style nearest-neighbor aggregation of pairwise cosine
similarities. Higher means the visual and textual token distributions
occupy closer directions at that depth.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import VlmforgeError
from .packing import IMAGE, TEXT, PackedSample

VARIANTS = ("symmetric", "a-to-b", "b-to-a")


@dataclass
class AlignmentProfile:
    per_layer: list[float]  # one value per captured layer (embedding + blocks)
    sample_count: int
    variant: str = "symmetric"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("layer", "chamfer_cos", "n"))
        for layer, value in enumerate(self.per_layer):
            writer.writerow((layer, repr(value), self.sample_count))
        return buf.getvalue()


def _unit_rows(vectors: np.ndarray, label: str) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise VlmforgeError(f"{label}: expected a non-empty 2-D set of vectors")
    norms = np.linalg.norm(vectors, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise VlmforgeError(f"{label}: zero vector at index {int(zero[0])}")
    return vectors / norms[:, None]


def chamfer_cosine(A, B, variant: str = "symmetric") -> float:
    """Chamfer aggregation of pairwise cosine similarity between two sets.

    symmetric: mean over A of best match in B, averaged with the reverse
    direction. The one-sided variants keep only one direction.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    ua = _unit_rows(A, "A")
    ub = _unit_rows(B, "B")
    sims = ua @ ub.T
    a_to_b = float(sims.max(axis=1).mean())
    b_to_a = float(sims.max(axis=0).mean())
    if variant == "a-to-b":
        return a_to_b
    if variant == "b-to-a":
        return b_to_a
    return 0.5 * (a_to_b + b_to_a)


def alignment_profile(
    model,
    samples: list[PackedSample],
    pixels: dict[str, np.ndarray],
    variant: str = "symmetric",
) -> AlignmentProfile:
    """Per-layer cross-modal Chamfer cosine, averaged over the batch.

    Samples missing either modality contribute nothing; a batch with no
    two-modality sample is an error.
    """
    sums: np.ndarray | None = None
    used = 0
    for sample in samples:
        visual = sample.modality_mask == IMAGE
        textual = sample.modality_mask == TEXT
        if not visual.any() or not textual.any():
            continue
        trace = model.forward(sample, pixels)
        values = [
            chamfer_cosine(layer[visual], layer[textual], variant)
            for layer in trace.hidden
        ]
        if sums is None:
            sums = np.zeros(len(values))
        sums += values
        used += 1
    if used == 0:
        raise VlmforgeError("alignment_profile: no sample carries both modalities")
    return AlignmentProfile(
        per_layer=[float(v / used) for v in sums],
        sample_count=used,
        variant=variant,
    )
