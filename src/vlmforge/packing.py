"""Token packing: the one owner of the packed-sample layout and its bytes.

The tokenizer is byte-level (256 byte ids + BOS/EOS/IMG/PAD), so encode/decode
round-trips any UTF-8 string exactly. Images enter packed sequences as runs of
the IMG placeholder; the image_slots table records where each image sits so
pixels can be bound at batch time without repacking shards.

Every PackedSample is built here. One appender writes a block (an image's IMG
run and slot, then text bytes) and one finisher derives the modality mask
from the slots and puts loss on the TEXT positions from a start index: 1 for
documents (`pack_document`), the answer for SFT demos (`pack_sft`), none for
in-context prompts (`pack_context`). Candidate ranking and greedy
generation build no sample beyond the context: the model continues the
context itself, every candidate in the context's own decoder pass and each
generated token from a KV cache.

`encode_record` and `decode_record` are the one definition of a sample's
bytes: a shard stores its samples as these records, written atomically, and
the training worker receives its half of a batch as them. `check_batch`
states once what makes a sample well formed, the record's limits included
(an image id of at most 65,535 UTF-8 bytes, a known stage tag), so every
sample it accepts has a record. `write_shard` checks each sample with it
before it encodes it, `read_shard` each record it decodes, and the model
each batch, once per call.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .corpus import ImageSegment, InterleavedDocument, TextSegment
from .errors import ConfigMismatchError, ShardFormatError
from .manifest import atomic_open

TEXT = 0
IMAGE = 1

SHARD_MAGIC = b"VLMSHARD"
SHARD_VERSION = 1
# a record stores its stage tag in one byte, each token in 32 bits and an
# image id's length in 16 bits
_STAGE_TAGS = {"pretrain": 0, "sft": 1}
_STAGE_NAMES = {v: k for k, v in _STAGE_TAGS.items()}
_MAX_TOKEN = 0xFFFFFFFF
_MAX_ID_BYTES = 0xFFFF
_RECORD_DTYPES = frozenset(map(np.dtype, ("u1", "u2", "u4")))  # tokens a record always holds


class ByteTokenizer:
    """Byte-level tokenizer with dense special ids appended after the bytes."""

    def __init__(self):
        self.n_bytes = 256
        self.bos = 256
        self.eos = 257
        self.img = 258
        self.pad = 259
        self.vocab_size = 260

    def encode(self, text: str) -> list[int]:
        return list(text.encode("utf-8"))

    def decode(self, ids) -> str:
        data = bytes(int(i) for i in ids if int(i) < self.n_bytes)
        return data.decode("utf-8", errors="replace")

    def vocab_hash(self) -> bytes:
        desc = f"byte-fallback:{self.n_bytes}:bos={self.bos},eos={self.eos},img={self.img},pad={self.pad}"
        return hashlib.sha256(desc.encode()).digest()


@dataclass
class ImageSlot:
    start: int
    length: int
    image_id: str


@dataclass
class PackedSample:
    tokens: np.ndarray  # uint32 (L,)
    modality_mask: np.ndarray  # uint8 (L,), TEXT or IMAGE
    loss_mask: np.ndarray  # uint8 (L,), 1 where the token is a target
    image_slots: list[ImageSlot] = field(default_factory=list)
    stage_tag: str = "pretrain"

    def __len__(self) -> int:
        return int(self.tokens.shape[0])


def check_batch(samples) -> None:
    """Refuse a batch unless every sample keeps the sample contract, which
    shards and the model share:
    - at least one sample in the batch;
    - at least one position, and a stage tag a record stores;
    - tokens of an integer dtype, each in [0, 2**32), as a record stores them;
    - masks as long as the tokens, of 0 and 1;
    - image slots within the sample, with image ids a record stores (UTF-8
      text of at most 65,535 bytes), whose positions are exactly the IMAGE
      positions, each in one slot;
    - no loss bit at an IMAGE position, whose token stands in for the
      image, nor at the first position, which no position predicts.

    Each rule runs once over the batch's concatenated arrays, in that
    order; the first broken raises ConfigMismatchError with its own
    message, which names no place in the batch. A model's own limits
    (slot length, max_positions, vocabulary, pixels) are its to check."""
    lengths = [len(s) for s in samples]
    if not lengths:
        raise ConfigMismatchError("empty batch: no sample to decode")
    if not all(lengths):
        raise ConfigMismatchError("empty sample: no position to decode")
    unknown = {s.stage_tag for s in samples} - _STAGE_TAGS.keys()
    if unknown:
        raise ConfigMismatchError(f"unknown stage tag {min(map(repr, unknown))}: a record "
                                  f"stores {' or '.join(map(repr, _STAGE_TAGS))}")
    wide = [s.tokens for s in samples if s.tokens.dtype not in _RECORD_DTYPES]
    if wide and (any(t.dtype.kind not in "iu" for t in wide)
                 or (t := np.concatenate(wide)).min() < 0 or t.max() > _MAX_TOKEN):
        raise ConfigMismatchError("tokens must be integers in [0, 2**32): a record stores "
                                  "each in 32 bits")
    for s in samples:
        if not len(s.modality_mask) == len(s.loss_mask) == len(s):
            raise ConfigMismatchError(
                f"mask lengths (modality {len(s.modality_mask)}, loss {len(s.loss_mask)}) "
                f"differ from the {len(s)} tokens")
    N = sum(lengths)
    masks = np.concatenate([s.modality_mask for s in samples] + [s.loss_mask for s in samples])
    modality, loss = masks[:N], masks[N:]
    if np.count_nonzero(masks) != np.count_nonzero(masks == 1):  # some nonzero value is not 1
        wrong = (masks != 0) & (masks != 1)
        name = "modality" if wrong[:N].any() else "loss"
        raise ConfigMismatchError(f"{name} mask holds values other than 0 and 1")
    # each slot's flat rows are a run of its length from its first row; a
    # slot's head is that row less the rows of the slots before it
    firsts, heads, sizes, first, covered = [], [], [], 0, 0
    for s, L in zip(samples, lengths):
        for slot in s.image_slots:
            if slot.start < 0 or slot.length < 0 or slot.start + slot.length > L:
                raise ConfigMismatchError(f"image slot {slot.image_id!r} at {slot.start} is out "
                                          f"of bounds of the sample's {L} positions")
            try:
                id_bytes = len(slot.image_id.encode("utf-8"))
            except UnicodeEncodeError:  # a lone surrogate, as a JSON escape can give
                raise ConfigMismatchError(f"image id {slot.image_id!r} is not UTF-8 text") from None
            if id_bytes > _MAX_ID_BYTES:
                raise ConfigMismatchError(f"image id of {id_bytes} bytes: a shard holds ids of "
                                          f"at most {_MAX_ID_BYTES:,} bytes")
            heads.append(first + slot.start - covered)
            sizes.append(slot.length)
            covered += slot.length
        firsts.append(first)
        first += L
    rows = np.repeat(np.array(heads, dtype=np.int64), sizes) + np.arange(covered)
    if np.count_nonzero(np.bincount(rows, minlength=N) != modality):
        raise ConfigMismatchError("IMAGE positions are not exactly the image slots' "
                                  "positions, each covered once")
    if np.count_nonzero(np.logical_and(loss, modality)):
        raise ConfigMismatchError("loss mask must be 0 at IMAGE positions")
    if np.count_nonzero(loss[firsts]):
        raise ConfigMismatchError("loss mask must be 0 at position 0")


def tokens_per_image(resolution: int, patch: int, downsample: int = 1) -> int:
    """Number of LLM positions one image occupies."""
    if resolution % patch != 0:
        raise ConfigMismatchError(f"patch {patch} does not divide resolution {resolution}")
    grid = resolution // patch
    if grid % downsample != 0:
        raise ConfigMismatchError(f"downsample {downsample} does not divide grid {grid}")
    return (grid // downsample) ** 2


def _append_block(ids, slots, tok, slot_length, image_id=None, text=""):
    """Append one block to a sample under construction: the IMG run of
    `image_id`, recorded as an ImageSlot, then the bytes of `text`."""
    if image_id is not None:
        slots.append(ImageSlot(len(ids), slot_length, image_id))
        ids.extend([tok.img] * slot_length)
    ids.extend(tok.encode(text))


def _finish_sample(ids, slots, stage_tag, loss_from) -> PackedSample:
    """The sample of `ids` and `slots`: IMAGE at the slots, TEXT elsewhere, and
    loss on the TEXT positions from index `loss_from` on."""
    modality = np.zeros(len(ids), dtype=np.uint8)
    for slot in slots:
        modality[slot.start : slot.start + slot.length] = IMAGE
    loss = np.zeros(len(ids), dtype=np.uint8)
    loss[loss_from:] = modality[loss_from:] == TEXT
    return PackedSample(np.asarray(ids, dtype=np.uint32), modality, loss, slots, stage_tag)


def pack_document(
    doc: InterleavedDocument,
    tok: ByteTokenizer,
    slot_length: int,
    max_len: int,
) -> list[PackedSample]:
    """Pack one document into <= max_len samples, splitting between segments.

    Every sample starts with BOS; EOS closes the document (last sample only).
    Image slots are never split; a text segment longer than any sample spills
    over into the next ones as a last resort. Loss targets are every TEXT
    position after position 0.
    """
    if max_len <= slot_length + 2:
        raise ConfigMismatchError(
            f"max_len {max_len} too small for slot length {slot_length}"
        )
    samples: list[PackedSample] = []
    ids: list[int] = [tok.bos]
    slots: list[ImageSlot] = []

    def flush():
        nonlocal ids, slots
        if len(ids) > 1:
            samples.append(_finish_sample(ids, slots, "pretrain", loss_from=1))
        ids = [tok.bos]
        slots = []

    for i, seg in enumerate(doc.segments):
        last = i == len(doc.segments) - 1  # its block ends with EOS
        if isinstance(seg, ImageSegment):
            image_id, text, n = seg.image_id, "", slot_length
        elif isinstance(seg, TextSegment):
            image_id, text, n = None, seg.text, len(tok.encode(seg.text))
        else:
            raise TypeError(f"unknown segment type {type(seg)!r}")
        # a block that fits a sample of its own never straddles two
        if len(ids) + n + last > max_len and n + last < max_len:
            flush()
        _append_block(ids, slots, tok, slot_length, image_id, text)
        if last:
            ids.append(tok.eos)
        while len(ids) > max_len:  # only text gets here (max_len > slot_length + 2)
            rest = ids[max_len:]
            del ids[max_len:]
            flush()
            ids.extend(rest)
    flush()
    return samples


def pack_sft(
    demo: tuple[str | None, str, str],
    tok: ByteTokenizer,
    slot_length: int,
) -> PackedSample:
    """Pack one instruction demo: [BOS, image slot?, prompt, answer, EOS].

    Only answer and EOS positions carry loss; the prompt is context.
    """
    image_id, prompt, answer = demo
    if not prompt or not answer:
        raise ValueError("prompt and answer must be non-empty")
    ids: list[int] = [tok.bos]
    slots: list[ImageSlot] = []
    _append_block(ids, slots, tok, slot_length, image_id, prompt)
    answer_start = len(ids)
    _append_block(ids, slots, tok, slot_length, text=answer)
    ids.append(tok.eos)
    return _finish_sample(ids, slots, "sft", loss_from=answer_start)


def pack_context(blocks, tok: ByteTokenizer, slot_length: int) -> PackedSample:
    """Pack an in-context prompt: BOS, then each (image_id or None, text) block
    as an image slot and the text's bytes, with EOS between blocks. No
    position carries loss."""
    ids: list[int] = [tok.bos]
    slots: list[ImageSlot] = []
    for i, (image_id, text) in enumerate(blocks):
        if i:
            ids.append(tok.eos)
        _append_block(ids, slots, tok, slot_length, image_id, text)
    return _finish_sample(ids, slots, "sft", loss_from=len(ids))


# ---------------------------------------------------------------------------
# binary shard format


def config_hash(resolution: int, patch: int, downsample: int) -> bytes:
    payload = json.dumps(
        {"resolution": resolution, "patch": patch, "downsample": downsample},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).digest()


def encode_record(sample: PackedSample) -> bytes:
    """A sample's bytes, for a shard or the training worker; the sample is
    one `check_batch` accepts, and every such sample has a record."""
    parts = [struct.pack("<IB", len(sample), _STAGE_TAGS[sample.stage_tag]),
             sample.tokens.astype("<u4").tobytes(), sample.modality_mask.astype("u1").tobytes(),
             sample.loss_mask.astype("u1").tobytes(), struct.pack("<I", len(sample.image_slots))]
    for slot in sample.image_slots:
        raw = slot.image_id.encode("utf-8")
        parts += [struct.pack("<IIH", slot.start, slot.length, len(raw)), raw]
    return b"".join(parts)


def decode_record(payload: bytes) -> PackedSample:
    """A record's sample; struct.error or ValueError if the bytes do not hold one."""
    view = memoryview(payload)
    L, tag = struct.unpack_from("<IB", view, 0)
    if tag not in _STAGE_NAMES:
        raise ValueError(f"unknown stage tag {tag}")
    tokens = np.frombuffer(view, "<u4", L, 5).copy()
    modality, loss = np.frombuffer(view, "u1", 2 * L, 5 + 4 * L).reshape(2, L).copy()
    (n_slots,) = struct.unpack_from("<I", view, 5 + 6 * L)
    off = 9 + 6 * L
    slots = []
    for _ in range(n_slots):
        start, length, id_len = struct.unpack_from("<IIH", view, off)
        off += 10
        image_id = bytes(view[off : off + id_len]).decode("utf-8")
        off += id_len
        slots.append(ImageSlot(start, length, image_id))
    if off != len(payload):
        raise ValueError(f"fields end at byte {off} of a {len(payload)}-byte record")
    return PackedSample(tokens, modality, loss, slots, _STAGE_NAMES[tag])


def write_shard(samples, path, vocab_hash: bytes, cfg_hash: bytes) -> int:
    """Write samples as a length-prefixed binary shard; returns record count.
    A sample `check_batch` refuses is refused as `read_shard` refuses its
    record. The shard replaces `path` only once every sample is written, so
    a stream that fails partway leaves whatever was there before."""
    count = 0
    with atomic_open(path, "wb") as fh:
        fh.write(SHARD_MAGIC)
        fh.write(struct.pack("<I", SHARD_VERSION))
        fh.write(vocab_hash)
        fh.write(cfg_hash)
        for sample in samples:
            try:
                check_batch([sample])
            except ConfigMismatchError as exc:
                raise ShardFormatError(f"{path}: bad record at byte {fh.tell()}: {exc}") from None
            record = encode_record(sample)
            fh.write(struct.pack("<I", len(record)))
            fh.write(record)
            count += 1
    return count


def read_shard(path, vocab_hash: bytes, cfg_hash: bytes):
    """Stream samples back from a shard, refusing mismatched vocab/config and
    any record that does not decode to a sample `check_batch` accepts, with
    the record's byte offset."""
    with open(path, "rb") as fh:
        header = fh.read(8 + 4 + 32 + 32)
        if len(header) < 76 or header[:8] != SHARD_MAGIC:
            raise ShardFormatError(f"{path}: not a VLMSHARD file")
        (version,) = struct.unpack_from("<I", header, 8)
        if version != SHARD_VERSION:
            raise ShardFormatError(f"{path}: unsupported shard version {version}")
        if header[12:44] != vocab_hash:
            raise ShardFormatError(f"{path}: vocab hash mismatch, refusing to load")
        if header[44:76] != cfg_hash:
            raise ShardFormatError(f"{path}: config hash mismatch, refusing to load")
        while True:
            offset = fh.tell()
            prefix = fh.read(4)
            if not prefix:
                return
            if len(prefix) < 4:
                raise ShardFormatError(f"{path}: truncated at byte {offset}")
            (length,) = struct.unpack("<I", prefix)
            payload = fh.read(length)
            if len(payload) < length:
                raise ShardFormatError(f"{path}: truncated record at byte {offset}")
            try:
                sample = decode_record(payload)
                check_batch([sample])
            except (struct.error, ValueError, ConfigMismatchError) as exc:
                raise ShardFormatError(f"{path}: bad record at byte {offset}: {exc}") from None
            yield sample


# ---------------------------------------------------------------------------
# synthetic pixel binding


def pixels_for(image_id: str, resolution: int) -> np.ndarray:
    """Deterministic procedural pixels in [0,1], keyed by image_id only."""
    digest = hashlib.sha256(image_id.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    return rng.random((resolution, resolution, 3))


def bind_pixels(samples, resolution: int) -> dict[str, np.ndarray]:
    """Synthesize the pixel tensors every image slot in `samples` refers to."""
    out: dict[str, np.ndarray] = {}
    for sample in samples:
        for slot in sample.image_slots:
            if slot.image_id not in out:
                out[slot.image_id] = pixels_for(slot.image_id, resolution)
    return out
