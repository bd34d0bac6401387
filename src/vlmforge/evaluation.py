"""k-shot in-context evaluation on toy tasks.

A task is a list of (image?, prompt, answer) items plus a disjoint demo
pool. For k-shot scoring, k seeded demos are packed as [image, prompt,
answer] blocks in front of the query's [image, prompt]. Two metrics:
exact-match greedy decoding and candidate ranking by mean per-token
cross-entropy.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigMismatchError, VlmforgeError
from .model import fields_from_json
from .packing import ByteTokenizer, ImageSlot, PackedSample, TEXT, IMAGE
from .seeding import substream

METRICS = ("exact-match", "candidate-rank")
MAX_NEW_TOKENS = 32  # exact-match generation budget per item


@dataclass
class EvalItem:
    item_id: str
    prompt: str
    answer: str
    image_id: str | None = None
    candidates: list[str] | None = None


@dataclass
class EvalTask:
    name: str
    items: list[EvalItem]
    demo_pool: list[EvalItem]
    metric: str = "candidate-rank"

    def validate(self) -> None:
        if self.metric not in METRICS:
            raise VlmforgeError(f"unknown metric {self.metric!r}")
        pool_ids = {d.item_id for d in self.demo_pool}
        for item in self.items:
            if item.item_id in pool_ids:
                raise VlmforgeError(
                    f"item {item.item_id!r} appears in both items and demo_pool"
                )
            if self.metric == "candidate-rank":
                if not item.candidates:
                    raise VlmforgeError(f"item {item.item_id!r} has no candidates")
                if item.answer not in item.candidates:
                    raise VlmforgeError(
                        f"item {item.item_id!r}: answer not among candidates"
                    )


@dataclass
class EvalReport:
    task: str
    k: int
    records: list[tuple[str, str, int]] = field(default_factory=list)  # id, prediction, correct

    @property
    def accuracy(self) -> float:
        if not self.records:
            return 0.0
        return sum(c for _, _, c in self.records) / len(self.records)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("item_id", "prediction", "correct"))
        for item_id, prediction, correct in self.records:
            writer.writerow((item_id, prediction, correct))
        return buf.getvalue()


def _append_block(ids, modality, slots, tok, slot_length, image_id, text):
    if image_id is not None:
        slots.append(ImageSlot(len(ids), slot_length, image_id))
        ids.extend([tok.img] * slot_length)
        modality.extend([IMAGE] * slot_length)
    encoded = tok.encode(text)
    ids.extend(encoded)
    modality.extend([TEXT] * len(encoded))


def build_kshot(
    item: EvalItem,
    k: int,
    demo_pool: list[EvalItem],
    seed: int,
    tok: ByteTokenizer,
    slot_length: int,
    max_positions: int,
) -> PackedSample:
    """Pack k seeded demos then the query context (no query answer).

    Demo blocks are [image slot, prompt, answer, EOS]; the query contributes
    [image slot, prompt]. k=0 yields the bare query. Demo selection is
    uniform without replacement, seeded per item.
    """
    if k > len(demo_pool):
        raise VlmforgeError(f"k={k} exceeds demo pool size {len(demo_pool)}")
    rng = substream(seed, f"eval/{item.item_id}")
    chosen = [demo_pool[i] for i in rng.choice(len(demo_pool), size=k, replace=False)]
    ids: list[int] = [tok.bos]
    modality: list[int] = [TEXT]
    slots: list[ImageSlot] = []
    for demo in chosen:
        _append_block(ids, modality, slots, tok, slot_length, demo.image_id,
                      demo.prompt + demo.answer)
        ids.append(tok.eos)
        modality.append(TEXT)
    _append_block(ids, modality, slots, tok, slot_length, item.image_id, item.prompt)
    if len(ids) > max_positions:
        raise ConfigMismatchError(
            f"k-shot context of {len(ids)} tokens exceeds max_positions "
            f"{max_positions}; use a smaller k or a larger model context"
        )
    return PackedSample(
        np.asarray(ids, dtype=np.uint32),
        np.asarray(modality, dtype=np.uint8),
        np.zeros(len(ids), dtype=np.uint8),
        slots,
        "sft",
    )


def _with_candidate(packed, tok, candidate: str) -> PackedSample:
    """The context followed by the candidate's tokens, which alone carry loss."""
    cand_ids = tok.encode(candidate)
    if not cand_ids:
        raise VlmforgeError("empty candidate string")
    L = len(packed)
    tokens = np.concatenate([packed.tokens, np.asarray(cand_ids, dtype=np.uint32)])
    modality = np.concatenate(
        [packed.modality_mask, np.full(len(cand_ids), TEXT, dtype=np.uint8)]
    )
    loss = np.zeros(len(tokens), dtype=np.uint8)
    loss[L:] = 1
    return PackedSample(tokens, modality, loss, list(packed.image_slots), packed.stage_tag)


def score_item(
    model,
    packed: PackedSample,
    pixels,
    metric: str,
    item: EvalItem,
    tok: ByteTokenizer,
) -> tuple[str, int]:
    """Return (prediction, correct bit) for one packed query context.

    Exact match generates at most MAX_NEW_TOKENS tokens, fewer when the context
    leaves less room in `max_positions`. Candidate ranking scores every
    candidate of the item in one batch, so the context images are encoded
    once.
    """
    if metric == "exact-match":
        room = model.cfg.max_positions - len(packed)
        generated = model.generate(packed, pixels, max_new=min(MAX_NEW_TOKENS, room))
        prediction = tok.decode(generated)
        correct = int(" ".join(prediction.split()) == " ".join(item.answer.split()))
        return prediction, correct
    if metric == "candidate-rank":
        if not item.candidates:
            raise VlmforgeError("candidate-rank requires a candidate list")
        scored = [_with_candidate(packed, tok, cand) for cand in item.candidates]
        losses = model.sequence_loss(scored, pixels)
        best = int(np.argmin(losses))  # ties break toward the first listed
        prediction = item.candidates[best]
        return prediction, int(prediction == item.answer)
    raise VlmforgeError(f"unknown metric {metric!r}")


def run_eval(
    model,
    task: EvalTask,
    k: int,
    seed: int,
    pixels: dict[str, np.ndarray],
    tok: ByteTokenizer | None = None,
) -> EvalReport:
    """Score every item at k shots and aggregate accuracy deterministically."""
    task.validate()
    tok = tok or ByteTokenizer()
    report = EvalReport(task.name, k)
    for item in sorted(task.items, key=lambda it: it.item_id):
        packed = build_kshot(
            item, k, task.demo_pool, seed, tok,
            model.cfg.slot_length, model.cfg.max_positions,
        )
        prediction, correct = score_item(model, packed, pixels, task.metric, item, tok)
        report.records.append((item.item_id, prediction, correct))
    return report


# ---------------------------------------------------------------------------
# task file format: jsonl with a header record, then one record per item


def _item_from_json(obj) -> EvalItem:
    fields = fields_from_json(EvalItem, obj)
    fields["item_id"] = str(fields["item_id"])
    return EvalItem(**fields)


def load_task(path) -> EvalTask:
    """Load a task file; the header names the metric and the demo-pool file."""
    import os

    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise VlmforgeError(f"{path}: empty task file")
    header = json.loads(lines[0])
    if "metric" not in header or "name" not in header:
        raise VlmforgeError(f"{path}: first record must name the task and metric")
    items = [_item_from_json(json.loads(line)) for line in lines[1:]]
    demo_pool: list[EvalItem] = []
    pool_ref = header.get("demo_pool")
    if pool_ref:
        pool_path = os.path.join(os.path.dirname(os.fspath(path)), pool_ref)
        with open(pool_path, "r", encoding="utf-8") as fh:
            demo_pool = [
                _item_from_json(json.loads(line)) for line in fh if line.strip()
            ]
    task = EvalTask(header["name"], items, demo_pool, header["metric"])
    task.validate()
    return task


def save_task(task: EvalTask, path, demo_pool_name: str | None = None) -> None:
    import os

    def dump(item: EvalItem) -> str:
        obj = {"item_id": item.item_id, "prompt": item.prompt, "answer": item.answer}
        if item.image_id is not None:
            obj["image_id"] = item.image_id
        if item.candidates is not None:
            obj["candidates"] = item.candidates
        return json.dumps(obj)

    header = {"name": task.name, "metric": task.metric}
    if task.demo_pool:
        demo_pool_name = demo_pool_name or (os.path.basename(os.fspath(path)) + ".demos")
        header["demo_pool"] = demo_pool_name
        pool_path = os.path.join(os.path.dirname(os.fspath(path)), demo_pool_name)
        with open(pool_path, "w", encoding="utf-8") as fh:
            for demo in task.demo_pool:
                fh.write(dump(demo) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for item in task.items:
            fh.write(dump(item) + "\n")
