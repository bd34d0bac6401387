"""The one sample contract, `packing.check_batch`: the malformed samples that
`write_shard`, `read_shard` and every model entry refuse, with the same
message; the records of the samples it accepts; how often the model checks a
batch; and shards mutated byte by byte."""

import atexit
import dataclasses
import subprocess

import numpy as np
import pytest
from conftest import ready_worker, write_raw_shard
from hypothesis import given, settings, strategies as st

from vlmforge import halves
from vlmforge import model as model_module
from vlmforge.corpus import ImageSegment, InterleavedDocument, TextSegment
from vlmforge.errors import ConfigMismatchError, ShardFormatError, VlmforgeError
from vlmforge.model import Model, ModelConfig, TransformerBlockProjector
from vlmforge.packing import (
    IMAGE,
    ByteTokenizer,
    ImageSlot,
    PackedSample,
    bind_pixels,
    check_batch,
    config_hash,
    decode_record,
    encode_record,
    pack_document,
    pack_sft,
    read_shard,
    write_shard,
)

TOK = ByteTokenizer()
CFG = ModelConfig(resolution=16, patch=8, vision_dim=16, model_dim=32, ffn_dim=64,
                  vision_layers=1, llm_layers=2, heads=2, projector=TransformerBlockProjector(2),
                  max_positions=96, seed=11)
S = CFG.slot_length
HASHES = (TOK.vocab_hash(), config_hash(CFG.resolution, CFG.patch, CFG.downsample))


def sample(text, image_ids=()):
    segments = [ImageSegment(i) for i in image_ids] + [TextSegment(text)]
    [packed] = pack_document(InterleavedDocument("d", segments), TOK, S, CFG.max_positions)
    return packed


def masks(n, image_rows=()):
    """Modality and loss masks of n positions: IMAGE at `image_rows`, and
    loss nowhere."""
    modality = np.zeros(n, dtype=np.uint8)
    modality[list(image_rows)] = IMAGE
    return modality, np.zeros(n, dtype=np.uint8)


def set_at(a, i, value):
    a = a.copy()
    a[i] = value
    return a


def malformed():
    """(case, sample, the words its refusal holds, whether a record can
    hold it). A record cannot hold masks longer or shorter than the tokens,
    a token that is negative or not an integer, a negative slot start, an
    unknown stage tag nor an image id that is past 65,535 bytes or not
    UTF-8; the last four cases break limits only a model knows, which
    shards leave to it."""
    imaged, text = sample("ABCD", ["img"]), sample("ABCD")
    replace = dataclasses.replace
    image = imaged.modality_mask == IMAGE
    n = S + 4  # rows 1..S+1 are IMAGE, covered by two slots that overlap
    overlapping = PackedSample(np.full(n, TOK.img, dtype=np.uint32), *masks(n, range(1, S + 2)),
                               [ImageSlot(1, S, "img"), ImageSlot(2, S, "img")])
    n = CFG.max_positions + 1
    too_long = PackedSample(np.full(n, 65, dtype=np.uint32), *masks(n))
    return [
        ("empty", PackedSample(text.tokens[:0], *masks(0)), "empty sample", True),
        ("mask-lengths", replace(text, modality_mask=text.modality_mask[:-1]), "mask lengths",
         False),
        ("modality-value", replace(text, modality_mask=set_at(text.modality_mask, 2, 3)),
         "modality mask holds values other than 0 and 1", True),
        ("loss-value", replace(text, loss_mask=set_at(text.loss_mask, 2, 2)),
         "loss mask holds values other than 0 and 1", True),
        ("slot-past-end", replace(imaged, image_slots=[ImageSlot(len(imaged) - 1, S, "img")]),
         "out of bounds", True),
        ("negative-slot-start", replace(imaged, image_slots=[ImageSlot(-1, S, "img")]),
         "out of bounds", False),
        ("overlong-image-id", replace(imaged, image_slots=[ImageSlot(1, S, "x" * 70_000)]),
         "image id of 70000 bytes: a shard holds ids of at most 65,535 bytes", False),
        ("unknown-stage-tag", replace(text, stage_tag="x"), "unknown stage tag 'x'", False),
        # a record's 32-bit tokens would read -1 back as 4294967295, and 65.7 as 65
        ("negative-token", replace(text, tokens=set_at(text.tokens.astype(np.int64), 2, -1)),
         "tokens must be integers in [0, 2**32)", False),
        ("float-tokens", replace(text, tokens=set_at(text.tokens.astype(np.float64), 2, 65.7)),
         "tokens must be integers in [0, 2**32)", False),
        ("non-utf8-image-id", replace(imaged, image_slots=[ImageSlot(1, S, "\udc80")]),
         "image id '\\udc80' is not UTF-8 text", False),
        # IMAGE rows with no slot would keep their token embedding, a slot over
        # TEXT rows would replace them, and overlapping slots would merge twice
        ("slot-less-image-rows", replace(imaged, image_slots=[]), "IMAGE positions", True),
        ("slot-over-text", replace(text, image_slots=[ImageSlot(1, S, "img")]),
         "IMAGE positions", True),
        ("overlapping-slots", overlapping, "IMAGE positions", True),
        # a loss bit at an IMAGE row would train the row before it to predict
        # the placeholder id; no row predicts a sample's first position
        ("loss-at-image", replace(imaged, loss_mask=(imaged.loss_mask | image).astype(np.uint8)),
         "loss mask must be 0 at IMAGE positions", True),
        ("loss-at-position-0", replace(text, loss_mask=set_at(text.loss_mask, 0, 1)),
         "loss mask must be 0 at position 0", True),
        ("vocabulary", replace(text, tokens=set_at(text.tokens, 2, CFG.vocab_size)),
         "vocabulary", False),
        ("max-positions", too_long, "exceeds max_positions", False),
        ("unbound-image", replace(imaged, image_slots=[ImageSlot(1, S, "unbound")]),
         "not bound to pixels", False),
        ("slot-length", replace(imaged, modality_mask=set_at(imaged.modality_mask, S, 0),
                                image_slots=[ImageSlot(1, S - 1, "img")]), "slot length", False),
    ]


BATCHED = ("forward", "hidden_states", "loss_and_grads", "sequence_loss")


def call(model, entry, batch, pixels):
    """Model entry `entry` on `batch`; a one-sample entry takes its one sample,
    continuation_losses as the prefix."""
    if entry in BATCHED:
        return getattr(model, entry)(batch, pixels)
    [prefix] = batch
    if entry == "continuation_losses":
        return model.continuation_losses(prefix, [TOK.encode("red")], pixels)
    return getattr(model, entry)(prefix, pixels)


def refusal(bad) -> str | None:
    """check_batch's message for `bad`; None if it accepts the sample."""
    try:
        check_batch([bad])
    except ConfigMismatchError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("entry", ["write_shard", "read_shard", *BATCHED, "prefill",
                                   "generate", "continuation_losses"])
def test_malformed_sample_refused(entry, tmp_path, monkeypatch):
    """Each malformed sample is refused with its rule's one message: by
    write_shard, after a good one, with the byte offset its record would
    have had, leaving the shard already at the path; by read_shard, as a
    record a raw writer put after a good one, with that record's byte
    offset; and by every model entry, alone and first or last in a batch,
    before any block runs and before the worker is sent anything. A shard
    takes the samples only a model refuses. Every entry that takes a list
    refuses an empty one."""
    model = Model(CFG)
    good = [sample("a good one", ["img"]), sample("another good one")]
    pixels = bind_pixels(good, CFG.resolution)
    blocks, sent = [], []
    monkeypatch.setattr(model_module, "_block_fwd", lambda *args: blocks.append(args[2]))
    monkeypatch.setattr(halves, "second_half", lambda *args: sent.append(args))
    for case, bad, words, in_shard in malformed():
        want, path = refusal(bad), tmp_path / f"{case}.shard"
        if entry == "write_shard":
            write_shard(good[:1], path, *HASHES)
            before = path.read_bytes()
            if want is None:
                assert write_shard([good[0], bad], path, *HASHES) == 2, case
                assert len(list(read_shard(path, *HASHES))) == 2, case
                continue
            with pytest.raises(ShardFormatError) as got:
                write_shard([good[0], bad], path, *HASHES)
            assert words in want, case
            assert str(got.value) == f"{path}: bad record at byte {len(before)}: {want}", case
            assert path.read_bytes() == before, case
            continue
        if entry == "read_shard":
            if in_shard:
                offset = write_raw_shard(path, [good[0], bad], *HASHES)[1]
                with pytest.raises(ShardFormatError) as got:
                    list(read_shard(path, *HASHES))
                assert words in want, case
                assert str(got.value) == f"{path}: bad record at byte {offset}: {want}", case
            continue
        for batch in ([bad], [bad] + good, good + [bad]) if entry in BATCHED else ([bad],):
            with pytest.raises(VlmforgeError) as got:
                call(model, entry, batch, pixels)
            assert words in str(got.value), case
            assert want is None or str(got.value) == want, case
    if entry in BATCHED:  # a batch needs a sample, as a sample needs a position
        with pytest.raises(ConfigMismatchError, match="^empty batch: no sample to decode$"):
            call(model, entry, [], pixels)
    if entry not in ("write_shard", "read_shard"):
        bad_grid = {**pixels, "img": np.zeros((8, 8, 3))}
        for batch in (good[:1], good) if entry in BATCHED else (good[:1],):
            with pytest.raises(ConfigMismatchError, match="pixel grid"):
                call(model, entry, batch, bad_grid)
    assert blocks == [] and sent == []


def counting(monkeypatch):
    """Count the model's check_batch calls by the size of the batch checked."""
    calls, check = [], model_module.check_batch
    monkeypatch.setattr(model_module, "check_batch",
                        lambda samples: (calls.append(len(samples)), check(samples))[1])
    return calls


@pytest.mark.parametrize("entry", [*BATCHED, "prefill", "generate", "continuation_losses",
                                   "extend"])
def test_one_check_per_call(entry, monkeypatch, in_process_halves):
    """Every entry checks its batch once; a training step checks the whole
    batch before it splits it, and neither half re-checks. `extend`
    checks only its ids."""
    model = Model(CFG)
    batch = [sample("one", ["a"]), sample("two two", ["b", "a"]), sample("three three three")]
    pixels = bind_pixels(batch, CFG.resolution)
    kv, _ = model.prefill(batch[0], pixels)
    calls = counting(monkeypatch)
    if entry == "extend":
        model.extend(kv, TOK.encode("more"))
    else:
        call(model, entry, batch if entry in BATCHED else batch[:1], pixels)
    checked = {"extend": [], "prefill": [1], "generate": [1], "continuation_losses": [2]}
    assert calls == checked.get(entry, [len(batch)])


@pytest.mark.skipif(not halves._two_cpus(), reason="one CPU: no training worker")
def test_worker_half_runs_no_check(monkeypatch):
    """With the worker, a training step checks its batch once, here. The
    worker's check_batch is None, so a check there would fail the worker
    and leave the half to this process; it serves the half instead, with
    the bits of the in-process step."""
    model = Model(CFG)
    batch = [sample("one", ["a"]), sample("two two", ["b", "a"]), sample("three three three")]
    pixels = bind_pixels(batch, CFG.resolution)
    with monkeypatch.context() as patch:
        patch.setattr(halves._PROCESS, "ready", lambda: None)
        want = model.loss_and_grads(batch, pixels)
    popen = subprocess.Popen

    def no_check_in_worker(args, **kwargs):
        boot = args[-1].replace("_serve(", "import vlmforge.model; "
                                           "vlmforge.model.check_batch = None; _serve(")
        return popen([*args[:-1], boot], **kwargs)

    monkeypatch.setattr(halves, "_PROCESS", halves._ProcessWorker())
    monkeypatch.setattr(halves.subprocess, "Popen", no_check_in_worker)
    worker = ready_worker()
    try:
        calls, here = counting(monkeypatch), []
        scored = Model._scored_grads
        monkeypatch.setattr(Model, "_scored_grads",
                            lambda *args: (here.append(1), scored(*args))[1])
        loss, grads = model.loss_and_grads(batch, pixels)
        assert calls == [len(batch)] and here == [1] and not halves._PROCESS.failed
    finally:
        if halves._PROCESS.worker is worker:  # not failed, so not closed yet
            atexit.unregister(worker.close)
            worker.close()
    assert loss == want[0] and grads.keys() == want[1].keys()
    assert all(np.array_equal(grads[name], g) for name, g in want[1].items())


# an id of a short text then one character repeated, to a UTF-8 length
# anywhere up to past the 65,535-byte limit, and often right at it
image_id = st.builds(lambda head, char, size: head + char * (size // len(char.encode())),
                     st.text(max_size=4), st.sampled_from(["a", "\u00e9", "\u20ac", "\U0001f600"]),
                     st.one_of(st.integers(0, 70_000), st.integers(65_530, 65_540)))


@st.composite
def samples(draw):
    """A sample of TEXT runs and image slots, any token ids, loss bits on
    TEXT positions after the first, and either stage tag."""
    tokens, modality, slots = [], [], []
    for is_image, length in draw(st.lists(st.tuples(st.booleans(), st.integers(1, 5)),
                                          min_size=1, max_size=6)):
        if is_image:
            slots.append(ImageSlot(len(tokens), length, draw(image_id)))
        tokens += draw(st.lists(st.integers(0, 2**32 - 1), min_size=length, max_size=length))
        modality += [IMAGE if is_image else 0] * length
    bits = draw(st.lists(st.booleans(), min_size=len(tokens), max_size=len(tokens)))
    loss = [int(b and m != IMAGE and i > 0) for i, (b, m) in enumerate(zip(bits, modality))]
    return PackedSample(np.array(tokens, dtype=np.uint32), np.array(modality, dtype=np.uint8),
                        np.array(loss, dtype=np.uint8), slots,
                        draw(st.sampled_from(["pretrain", "sft"])))


@given(samples())
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
def test_accepted_sample_round_trips_its_record(packed):
    """Every sample check_batch accepts has a record, which decodes to it
    field for field; the only samples refused here hold an id past the
    record's 65,535 bytes."""
    past = [n for n in (len(slot.image_id.encode()) for slot in packed.image_slots)
            if n > 65_535]
    if past:
        with pytest.raises(ConfigMismatchError, match=f"^image id of {past[0]} bytes"):
            check_batch([packed])
        return
    check_batch([packed])
    back = decode_record(encode_record(packed))
    for name in ("tokens", "modality_mask", "loss_mask"):
        got, want = getattr(back, name), getattr(packed, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert back.image_slots == packed.image_slots and back.stage_tag == packed.stage_tag


@pytest.fixture(scope="module")
def fixture_shard(tmp_path_factory):
    """A small valid shard: documents with and without images, and a demo."""
    docs = [InterleavedDocument("a", [ImageSegment("x"), TextSegment("a cat"),
                                      ImageSegment("y"), TextSegment("sat")]),
            InterleavedDocument("b", [TextSegment("text only")])]
    samples = [s for doc in docs for s in pack_document(doc, TOK, S, CFG.max_positions)]
    samples.append(pack_sft(("z", "what? ", "a dog"), TOK, S))
    path = tmp_path_factory.mktemp("shards") / "fixture.shard"
    write_shard(samples, path, *HASHES)
    return path.read_bytes(), path.with_name("mutated.shard")


mutation = st.tuples(st.sampled_from(["truncate", "flip", "delete"]),
                     st.integers(0, 10**6), st.integers(1, 255))


@given(mutations=st.lists(mutation, min_size=1, max_size=3))
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
def test_mutated_shard_read_or_refused(fixture_shard, mutations):
    """A shard cut short, with bytes flipped or with bytes deleted either
    reads back as samples check_batch accepts or is refused with
    ShardFormatError, never another error."""
    data, path = fixture_shard
    data = bytearray(data)
    for kind, at, value in mutations:
        at %= len(data)
        if kind == "truncate":
            del data[at:]
        elif kind == "flip":
            data[at] ^= value
        else:
            del data[at]
        if not data:
            break
    path.write_bytes(bytes(data))
    try:
        samples = list(read_shard(path, *HASHES))
    except ShardFormatError:
        return
    check_batch(samples)
