"""Cross-modal embedding alignment profiles.

At every decoder layer, hidden states are split by modality and compared
with a Chamfer-style nearest-neighbor aggregation of pairwise cosine
similarities. Higher means the visual and textual token distributions
occupy closer directions at that depth.

The hidden states come from `Model.hidden_states`: the embedding and every
decoder block's output of one batched pass, the pass `Model.forward` runs,
without the final LayerNorm or the head, which no profile reads.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import VlmforgeError
from .packing import IMAGE, TEXT, PackedSample

@dataclass
class AlignmentProfile:
    per_layer: list[float]  # one value per captured layer (embedding + blocks)
    sample_count: int

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


def chamfer_cosine(A, B) -> float:
    """Symmetric Chamfer aggregation of pairwise cosine similarity between two
    sets: the mean over A of its best match in B, averaged with the reverse."""
    ua = _unit_rows(A, "A")
    ub = _unit_rows(B, "B")
    sims = ua @ ub.T
    a_to_b = float(sims.max(axis=1).mean())
    b_to_a = float(sims.max(axis=0).mean())
    return 0.5 * (a_to_b + b_to_a)


def _layer_chamfer(hidden: np.ndarray, visual, textual) -> np.ndarray:
    """`chamfer_cosine(layer[visual], layer[textual])` for every layer of a
    (layers, L, D) stack, bit for bit, with each row normalised once and
    every layer's similarities taken as one batched matmul. A zero vector
    raises the error `chamfer_cosine` would raise first."""
    hidden = hidden.astype(np.float64, copy=False)
    # the ufuncs behind np.linalg.norm, ndarray.max and ndarray.mean, called
    # directly: the same bits without those functions' Python overhead
    norms = np.sqrt(np.add.reduce(hidden * hidden, axis=-1))
    if not norms.all():
        for layer in norms:
            for label, rows in (("A", layer[visual]), ("B", layer[textual])):
                zero = np.flatnonzero(rows == 0.0)
                if zero.size:
                    raise VlmforgeError(f"{label}: zero vector at index {int(zero[0])}")
    unit = hidden / norms[..., None]
    sims = unit[:, visual] @ unit[:, textual].transpose(0, 2, 1)
    a_to_b = np.add.reduce(np.maximum.reduce(sims, axis=2), axis=1) / sims.shape[1]
    b_to_a = np.add.reduce(np.maximum.reduce(sims, axis=1), axis=1) / sims.shape[2]
    return 0.5 * (a_to_b + b_to_a)


def alignment_profile(
    model,
    samples: list[PackedSample],
    pixels: dict[str, np.ndarray],
) -> AlignmentProfile:
    """Per-layer cross-modal Chamfer cosine, averaged over the batch.

    Samples missing either modality contribute nothing; the others run
    through the model as one batch. A batch with no two-modality sample is
    an error.
    """
    used, masks = [], []
    for sample in samples:
        visual = sample.modality_mask == IMAGE
        textual = sample.modality_mask == TEXT
        if visual.any() and textual.any():
            used.append(sample)
            masks.append((visual, textual))
    if not used:
        raise VlmforgeError("alignment_profile: no sample carries both modalities")
    sums = 0.0
    for (visual, textual), hidden in zip(masks, model.hidden_states(used, pixels)):
        sums += _layer_chamfer(np.stack(hidden), visual, textual)
    return AlignmentProfile(
        per_layer=[float(v / len(used)) for v in sums],
        sample_count=len(used),
    )
