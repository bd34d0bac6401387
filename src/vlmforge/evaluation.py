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
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigMismatchError, VlmforgeError
from .manifest import parse_json, read_utf8
from .model import fields_from_json
from .packing import ByteTokenizer, PackedSample, bind_pixels, pack_context
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
            cands = item.candidates
            if cands is None:
                if self.metric == "candidate-rank":
                    raise VlmforgeError(f"item {item.item_id!r} has no candidates")
            elif not (isinstance(cands, list) and cands
                      and all(isinstance(c, str) and c for c in cands)):
                raise VlmforgeError(
                    f"item {item.item_id!r}: 'candidates' must be a non-empty list "
                    f"of non-empty strings, not {cands!r}"
                )
            elif self.metric == "candidate-rank" and item.answer not in cands:
                raise VlmforgeError(f"item {item.item_id!r}: answer not among candidates")


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
    if not 0 <= k <= len(demo_pool):
        raise VlmforgeError(f"k={k} is not between 0 and the demo pool size {len(demo_pool)}")
    rng = substream(seed, f"eval/{item.item_id}")
    chosen = [demo_pool[i] for i in rng.choice(len(demo_pool), size=k, replace=False)]
    blocks = [(d.image_id, d.prompt + d.answer) for d in chosen]
    packed = pack_context(blocks + [(item.image_id, item.prompt)], tok, slot_length)
    if len(packed) > max_positions:
        raise ConfigMismatchError(
            f"k-shot context of {len(packed)} tokens exceeds max_positions "
            f"{max_positions}; use a smaller k or a larger model context"
        )
    return packed


def score_item(
    model,
    packed: PackedSample,
    pixels,
    metric: str,
    item: EvalItem,
    tok: ByteTokenizer,
) -> tuple[str, int]:
    """Return (prediction, correct bit) for one packed query context.

    Either metric encodes the item's images once and decodes the context
    once. Exact match then generates from the model's KV cache, at most
    MAX_NEW_TOKENS tokens, fewer when the context leaves less room in
    `max_positions`. Candidate ranking scores every candidate in the
    context's own decoder pass, each one continuing the context without
    attending over another.
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
        losses = model.continuation_losses(
            packed, [tok.encode(cand) for cand in item.candidates], pixels)
        best = int(np.argmin(losses))  # ties break toward the first listed
        prediction = item.candidates[best]
        return prediction, int(prediction == item.answer)
    raise VlmforgeError(f"unknown metric {metric!r}")


def run_eval(model, task: EvalTask, k: int, seed: int) -> EvalReport:
    """Score every item at k shots and aggregate accuracy deterministically;
    each item's context is bound to its images' pixels at the model's resolution."""
    task.validate()
    tok = ByteTokenizer()
    report = EvalReport(task.name, k)
    for item in sorted(task.items, key=lambda it: it.item_id):
        packed = build_kshot(
            item, k, task.demo_pool, seed, tok,
            model.cfg.slot_length, model.cfg.max_positions,
        )
        pixels = bind_pixels([packed], model.cfg.resolution)
        prediction, correct = score_item(model, packed, pixels, task.metric, item, tok)
        report.records.append((item.item_id, prediction, correct))
    return report


# ---------------------------------------------------------------------------
# task file format: jsonl with a header record, then one record per item


@dataclass
class TaskHeader:
    """A task file's first record: the task's name and metric, and the file
    of its demo pool, beside the task file (absent: no demos)."""

    name: str
    metric: str
    demo_pool: str | None = None


def _read_jsonl(path) -> list[tuple[int, str]]:
    """The non-blank lines of `path` with their 1-based line numbers."""
    lines = read_utf8(path).split("\n")
    return [(line_no, line) for line_no, line in enumerate(lines, start=1) if line.strip()]


def _record(path, line_no: int, line: str, cls):
    """Line `line_no` of `path` as a `cls`; a bad record raises VlmforgeError
    naming the file and line."""
    try:
        return cls(**fields_from_json(cls, parse_json(line)))
    except VlmforgeError as exc:
        raise VlmforgeError(f"{path}:line {line_no}: {exc}") from None


def load_task(path) -> EvalTask:
    """Load a task file: a TaskHeader record, then one EvalItem per line."""
    lines = _read_jsonl(path)
    if not lines:
        raise VlmforgeError(f"{path}: empty task file")
    header = _record(path, *lines[0], TaskHeader)
    items = [_record(path, *entry, EvalItem) for entry in lines[1:]]
    demo_pool: list[EvalItem] = []
    if header.demo_pool:
        pool_path = os.path.join(os.path.dirname(os.fspath(path)), header.demo_pool)
        demo_pool = [_record(pool_path, *entry, EvalItem) for entry in _read_jsonl(pool_path)]
    task = EvalTask(header.name, items, demo_pool, header.metric)
    task.validate()
    return task
