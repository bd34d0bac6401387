import json
import os
import struct
import time

import numpy as np
import pytest

from vlmforge import halves
from vlmforge.corpus import ImageSegment, InterleavedDocument, TextSegment
from vlmforge.evaluation import EvalItem, EvalTask
from vlmforge.model import Model, ModelConfig, TransformerBlockProjector
from vlmforge.packing import (
    SHARD_MAGIC,
    SHARD_VERSION,
    TEXT,
    ByteTokenizer,
    PackedSample,
    encode_record,
)


@pytest.fixture
def tok():
    return ByteTokenizer()


@pytest.fixture
def tiny_cfg():
    return ModelConfig(
        resolution=16, patch=8, vision_dim=16, model_dim=16, ffn_dim=32,
        vision_layers=2, llm_layers=2, heads=2, vocab_size=260,
        projector=TransformerBlockProjector(heads=2), max_positions=64, seed=7,
    )


@pytest.fixture
def tiny_model(tiny_cfg):
    return Model(tiny_cfg)


@pytest.fixture
def in_process_halves(monkeypatch):
    """Both halves of every batch run in this process, as with no worker,
    so that patched model internals see both."""
    monkeypatch.setattr(halves._PROCESS, "ready", lambda: None)


def ready_worker(timeout_s: float = 60.0) -> halves._Worker:
    """This process's training worker, once started; skips where there is
    none to start."""
    if not halves._two_cpus():
        pytest.skip("one CPU: no training worker")
    deadline = time.monotonic() + timeout_s
    while (worker := halves._PROCESS.ready()) is None:
        assert not halves._PROCESS.failed, "the training worker failed"
        assert time.monotonic() < deadline, "the training worker did not start"
        time.sleep(0.05)
    return worker


def write_raw_shard(path, samples, vocab_hash: bytes, cfg_hash: bytes) -> list[int]:
    """A shard of `samples` as `encode_record` lays them out, none checked,
    so that a sample `write_shard` refuses can reach `read_shard`; returns
    each record's byte offset."""
    offsets, data = [], bytearray(SHARD_MAGIC + struct.pack("<I", SHARD_VERSION) + vocab_hash
                                  + cfg_hash)
    for sample in samples:
        record = encode_record(sample)
        offsets.append(len(data))
        data += struct.pack("<I", len(record)) + record
    path.write_bytes(bytes(data))
    return offsets


def appended(prefix: PackedSample, ids, loss: bool = False) -> PackedSample:
    """`prefix` followed by the TEXT tokens `ids`, its slots unchanged; with
    `loss` the appended tokens alone carry loss, without it no position does."""
    n = len(ids)
    loss_mask = np.zeros(len(prefix) + n, dtype=np.uint8)
    loss_mask[len(prefix):] = loss
    return PackedSample(np.concatenate([prefix.tokens, np.asarray(ids, dtype=np.uint32)]),
                        np.concatenate([prefix.modality_mask, np.full(n, TEXT, dtype=np.uint8)]),
                        loss_mask, list(prefix.image_slots), prefix.stage_tag)


def row_ce(logits, targets):
    """Each logits row's cross-entropy against its target, by a log-softmax
    of its own."""
    top = logits.max(axis=1)
    logz = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
    return logz - logits[np.arange(len(targets)), np.asarray(targets, dtype=np.int64)]


def masked_mean_ce(logits, targets, mask) -> float:
    """The `mask`-weighted mean of each row's cross-entropy; 0 if nothing
    is masked in."""
    mask = np.asarray(mask, dtype=np.float64)
    return float(row_ce(logits, targets) @ mask / mask.sum()) if mask.sum() else 0.0


def next_token_targets(sample: PackedSample):
    """Row i's target, the token at i + 1, and its weight, that position's
    loss mask; the last row has neither."""
    return sample.tokens[1:].astype(np.int64), sample.loss_mask[1:]


def candidate_ce(model, prefix: PackedSample, candidates, pixels) -> np.ndarray:
    """Each candidate's mean cross-entropy after `prefix`, from the
    `Model.forward` logits of the appended sequence: the uncached reference
    for `Model.continuation_losses`."""
    P, out = len(prefix), []
    for ids in candidates:
        logits = model.forward(appended(prefix, ids), pixels).logits[P - 1 : P - 1 + len(ids)]
        out.append(row_ce(logits, ids).mean())
    return np.array(out)


def random_document(rng: np.random.Generator, doc_id: str,
                    n_segments: int | None = None,
                    with_sims: bool = True) -> InterleavedDocument:
    """Random mix of text and image segments, at least one segment."""
    n = n_segments if n_segments is not None else int(rng.integers(1, 9))
    kinds = rng.random(n) < 0.5
    segments = []
    for i, is_image in enumerate(kinds):
        if is_image:
            segments.append(ImageSegment(f"{doc_id}-img{i}"))
        else:
            length = int(rng.integers(1, 12))
            text = "".join(chr(97 + int(c)) for c in rng.integers(0, 26, size=length))
            segments.append(TextSegment(text))
    doc = InterleavedDocument(doc_id, segments)
    if with_sims:
        text_idx = [i for i, s in enumerate(segments) if isinstance(s, TextSegment)]
        if text_idx:
            fixed = []
            for i, seg in enumerate(segments):
                if isinstance(seg, ImageSegment):
                    sims = {j: float(np.round(rng.uniform(-1, 1), 6)) for j in text_idx}
                    fixed.append(ImageSegment(seg.image_id, sims))
                else:
                    fixed.append(seg)
            doc = InterleavedDocument(doc_id, fixed)
    return doc


def save_task(task: EvalTask, path) -> None:
    """Write `task` as a task file `evaluation.load_task` reads: to `path`,
    and its demo pool, if any, beside it as `<file name>.demos`."""

    def dump(item: EvalItem) -> str:
        obj = {"item_id": item.item_id, "prompt": item.prompt, "answer": item.answer}
        if item.image_id is not None:
            obj["image_id"] = item.image_id
        if item.candidates is not None:
            obj["candidates"] = item.candidates
        return json.dumps(obj)

    header = {"name": task.name, "metric": task.metric}
    if task.demo_pool:
        header["demo_pool"] = os.path.basename(os.fspath(path)) + ".demos"
        pool_path = os.path.join(os.path.dirname(os.fspath(path)), header["demo_pool"])
        with open(pool_path, "w", encoding="utf-8") as fh:
            for demo in task.demo_pool:
                fh.write(dump(demo) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for item in task.items:
            fh.write(dump(item) + "\n")
