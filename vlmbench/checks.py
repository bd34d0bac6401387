"""Output checks, each against an independent computation or a property.

Every check takes the observed outputs of a run (plus the model, where it
must recompute) and returns a list of failure messages; an empty list is a
pass. The self-test perturbs one observation at a time and expects the
matching check to fail, so a check that cannot fail is caught.
"""

from __future__ import annotations

import math

import numpy as np

from vlmforge.model import Model
from vlmforge.packing import TEXT, ByteTokenizer, PackedSample

TOK = ByteTokenizer()

FIRST_LOSS_TOL = 0.05  # |first loss - ln(vocab)|; near-uniform logits at 0.02-scale init
GRAD_REL_TOL = 1e-3
GRAD_FLOOR = 1e-7
ALIGN_TOL = 1e-12
TIE_GAP = 1e-9  # closer than this, either choice is a correct argmin/argmax


def finite_losses(losses) -> list[str]:
    bad = [i for i, loss in enumerate(losses) if not math.isfinite(loss)]
    return [f"non-finite loss at steps {bad[:5]}"] if bad else []


def first_loss(losses, vocab_size: int) -> list[str]:
    expected = math.log(vocab_size)
    if abs(losses[0] - expected) > FIRST_LOSS_TOL:
        return [f"first-step loss {losses[0]:.4f} is not within {FIRST_LOSS_TOL} "
                f"of ln({vocab_size}) = {expected:.4f}"]
    return []


def loss_decreases(losses, window: int) -> list[str]:
    first = float(np.mean(losses[:window]))
    last = float(np.mean(losses[-window:]))
    if not last < first:
        return [f"final-window mean loss {last:.4f} is not below first-window {first:.4f}"]
    return []


def gradients(entries) -> list[str]:
    """entries: (name, index, central difference, analytic gradient)."""
    failures = []
    for name, idx, fd, an in entries:
        rel = abs(fd - an) / max(abs(fd), abs(an), GRAD_FLOOR)
        if rel > GRAD_REL_TOL:
            failures.append(f"gradient of {name}{list(idx)}: analytic {an:.6e} vs "
                            f"central difference {fd:.6e} (relative error {rel:.2e})")
    return failures


def trained_positions(rounds) -> list[str]:
    """rounds: (positions the benchmark counted, final `tokens` of the run log)."""
    return [f"round {i}: benchmark counted {counted} trained positions, run log says {logged}"
            for i, (counted, logged) in enumerate(rounds) if counted != logged]


def freeze(before: dict, after: dict, trainable) -> list[str]:
    failures = []
    for group in sorted(before):
        changed = before[group] != after[group]
        if group in trainable and not changed:
            failures.append(f"trainable group {group!r} did not change")
        if group not in trainable and changed:
            failures.append(f"frozen group {group!r} changed")
    return failures


def checkpoint(saved: dict, reloaded: dict) -> list[str]:
    """Reloaded parameters equal the saved ones to float32 rounding or better."""
    if sorted(saved) != sorted(reloaded):
        return ["checkpoint parameter names differ"]
    failures = []
    for name, arr in saved.items():
        back = reloaded[name]
        if back.shape != arr.shape:
            failures.append(f"checkpoint shape of {name} changed")
        elif np.any(np.abs(back - arr) > np.abs(arr) * 2.0**-24):
            worst = float(np.max(np.abs(back - arr)))
            failures.append(f"checkpoint of {name} off by {worst:.3e}, beyond float32 rounding")
    return failures


def _mean_candidate_ce(model: Model, context: PackedSample, pixels, candidate: str) -> float:
    """Own log-softmax over Model.forward logits of context + candidate."""
    ids = np.asarray(TOK.encode(candidate), dtype=np.uint32)
    L = len(context)
    sample = PackedSample(
        np.concatenate([context.tokens, ids]),
        np.concatenate([context.modality_mask, np.full(len(ids), TEXT, dtype=np.uint8)]),
        np.zeros(L + len(ids), dtype=np.uint8),
        list(context.image_slots),
        context.stage_tag,
    )
    logits = model.forward(sample, pixels).logits[L - 1 : L - 1 + len(ids)]
    top = logits.max(axis=1)
    logz = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
    return float(np.mean(logz - logits[np.arange(len(ids)), ids.astype(np.int64)]))


def rankings(model: Model, records, pixels) -> list[str]:
    """records: (item, packed context, prediction) from evaluation.score_item."""
    failures = []
    for item, context, prediction in records:
        ces = [_mean_candidate_ce(model, context, pixels, c) for c in item.candidates]
        best = int(np.argmin(ces))
        tied = {c for c, ce in zip(item.candidates, ces) if ce - ces[best] < TIE_GAP}
        if prediction not in tied:
            failures.append(f"item {item.item_id}: chose {prediction!r}, argmin of mean "
                            f"cross-entropy is {item.candidates[best]!r} ({ces})")
    return failures


def generations(model: Model, records, pixels, max_new: int) -> list[str]:
    """records: (prefix, generated ids); each id is the argmax of a full forward."""
    failures = []
    for prefix, generated in records:
        tokens = list(prefix.tokens.astype(int))
        modality = list(prefix.modality_mask.astype(int))
        steps = len(generated) + (1 if len(generated) < max_new else 0)
        for i in range(steps):
            sample = PackedSample(np.asarray(tokens, dtype=np.uint32),
                                  np.asarray(modality, dtype=np.uint8),
                                  np.zeros(len(tokens), dtype=np.uint8),
                                  list(prefix.image_slots), prefix.stage_tag)
            last = model.forward(sample, pixels).logits[-1]
            want = generated[i] if i < len(generated) else TOK.eos
            if last[want] < last.max() - TIE_GAP:
                failures.append(f"generated token {i} is {want}, argmax is {int(np.argmax(last))}")
                break
            tokens.append(want)
            modality.append(TEXT)
    return failures


def _brute_chamfer(A, B) -> float:
    def cos(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    a_to_b = np.mean([max(cos(a, b) for b in B) for a in A])
    b_to_a = np.mean([max(cos(a, b) for a in A) for b in B])
    return 0.5 * (a_to_b + b_to_a)


def alignment(model: Model, samples, pixels, profiles) -> list[str]:
    """Each sample's per-layer values equal a double-loop Chamfer cosine over
    Model.forward hidden states."""
    failures = []
    for i, (sample, profile) in enumerate(zip(samples, profiles)):
        visual = sample.modality_mask != TEXT
        hidden = model.forward(sample, pixels).hidden
        want = [_brute_chamfer(h[visual], h[~visual]) for h in hidden]
        if profile.sample_count != 1 or len(profile.per_layer) != len(want):
            failures.append(f"alignment of sample {i}: {profile.sample_count} samples, "
                            f"{len(profile.per_layer)} layers, expected 1 and {len(want)}")
            continue
        for layer, (got, ref) in enumerate(zip(profile.per_layer, want)):
            if not -1.0 <= got <= 1.0:
                failures.append(f"alignment of sample {i} layer {layer}: {got} outside [-1, 1]")
            if abs(got - ref) > ALIGN_TOL:
                failures.append(f"alignment of sample {i} layer {layer}: {got!r} "
                                f"vs brute force {ref!r}")
    if len(profiles) != len(samples):
        failures.append(f"{len(profiles)} alignment profiles for {len(samples)} samples")
    return failures


def repeats(label: str, first, later) -> list[str]:
    """Identical inputs and weights must give identical outputs on every pass."""
    bad = sum(1 for other in later if other != first)
    return [f"{label}: {bad} of {len(later)} repeated passes differ from the first"] if bad else []
