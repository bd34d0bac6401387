"""A training batch's two halves: the worker's against this process's, the
halves against one pass, an all-masked batch, the checks that run before
either half, and the worker's lifecycle, run in subprocesses. The gate
table of every malformed sample is in test_sample_contract.py."""

import atexit
import dataclasses
import json
import logging
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import ready_worker
from hypothesis import given, settings, strategies as st

from vlmforge import halves
from vlmforge import model as model_module
from vlmforge.corpus import ImageSegment, InterleavedDocument, TextSegment
from vlmforge.errors import ConfigMismatchError, VlmforgeError
from vlmforge.model import (
    PARAM_GROUPS,
    Linear,
    Model,
    ModelConfig,
    TransformerBlockProjector,
    _halves,
    _linear_bwd,
)
from vlmforge.packing import IMAGE, ImageSlot, PackedSample, bind_pixels, pack_document, pack_sft
from vlmforge.trainer import ALL_TRAINABLE, PROJECTOR_ONLY

SRC = Path(__file__).resolve().parents[1] / "src"
TIMEOUT_S = 300
# imported by a worker before it serves: it fails the half it is given if
# it builds a second Model for one config
BUILT_ONCE = """
from vlmforge.model import Model

built, init = [], Model.__init__


def once_per_config(self, cfg, *args):
    if cfg in built:
        raise AssertionError("the worker built a second Model for one config")
    built.append(cfg)
    init(self, cfg, *args)


Model.__init__ = once_per_config
"""


def cfg(dtype="float64", projector=TransformerBlockProjector(2)):
    return ModelConfig(resolution=16, patch=8, vision_dim=16, model_dim=32, ffn_dim=64,
                       vision_layers=1, llm_layers=2, heads=2, projector=projector,
                       max_positions=96, seed=11, dtype=dtype)


def sample(tok, cfg, text, image_ids=()):
    segments = [ImageSegment(i) for i in image_ids] + [TextSegment(text)]
    [packed] = pack_document(InterleavedDocument("d", segments), tok, cfg.slot_length,
                             cfg.max_positions)
    return packed


def batch(tok, cfg, seed=0, size=8):
    """The pretrain mix: one-image caption pairs, two-image documents and,
    now and then, a text-only sample; an image may recur. The first two
    samples are SFT demos instead, with loss on the answer only: one with
    an image, the batch's longest sample, which the second half always
    takes, and one text-only."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(size):
        kind = rng.integers(3)
        text = "".join(chr(97 + c) for c in rng.integers(0, 26, size=int(rng.integers(5, 40))))
        if i < 2:
            demo = ((f"shared-{seed}", "what is it? ", (2 * text).ljust(60, "!")) if i == 0
                    else (None, "? ", text))
            out.append(pack_sft(demo, tok, cfg.slot_length))
            continue
        images = [(), (f"pair-{seed}-{i}",), (f"doc-{seed}-{i}", f"shared-{seed}")][kind]
        out.append(sample(tok, cfg, text, images))
    return out, bind_pixels(out, cfg.resolution)


def in_process(monkeypatch, model, samples, pixels, trainable=None):
    with monkeypatch.context() as patch:
        patch.setattr(halves._PROCESS, "ready", lambda: None)
        return model.loss_and_grads(samples, pixels, trainable)


def one_pass(model, samples, pixels, trainable=None):
    """The whole batch as one pass, as every batch ran before it had
    halves: the reference the halves are held to."""
    train = set(PARAM_GROUPS if trainable is None else trainable)
    grads = {name: np.zeros_like(a) for name, a in model.params.items()
             if model.group_of(name) in train}
    fw = model._forward(samples, pixels, train=True, scored=True)
    rows, targets, weights = fw.scored
    total = float(weights.sum())
    normed = fw.normed[rows]
    ce, dlogits = model._head_xent(normed, targets)
    loss = float(ce @ weights) / total
    dlogits *= (weights / total)[:, None]
    head = grads if "head" in train else None
    dnormed = _linear_bwd(dlogits, normed, model.params["head.w"], head, "head.w", "head.b")
    model._backward(fw, rows, dnormed, grads, train)
    return loss, grads


def assert_bitwise_equal(got, want):
    assert got[0] == want[0]
    assert got[1].keys() == want[1].keys()
    for name, g in want[1].items():
        assert g.dtype == got[1][name].dtype and np.array_equal(got[1][name], g), name


class TestHalves:
    @given(st.lists(st.integers(1, 96), min_size=2, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_halves_split_by_lengths_alone(self, lengths):
        first, second = _halves(lengths)
        assert first and second
        assert sorted(first + second) == list(range(len(lengths)))
        assert first == sorted(first) and second == sorted(second)
        sizes = [sum(lengths[i] for i in half) for half in (first, second)]
        assert abs(sizes[0] - sizes[1]) <= max(lengths)  # longest first, to the lighter half
        assert _halves(lengths) == (first, second)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_worker_equals_in_process_halves(self, tok, monkeypatch, tmp_path, dtype):
        """Every loss and gradient bit, over the stages' freeze policies in
        turn: init-projector, pretrain, projector-only, every group. The
        worker's memory is laid out by the config alone, so neither a new
        policy nor a smaller config grows its file, the worker builds one
        model per config, and no new worker starts."""
        (tmp_path / "built_once.py").write_text(BUILT_ONCE)
        popen = subprocess.Popen

        def built_once(args, **kwargs):
            first = f"sys.path.insert(0, {str(tmp_path)!r}); import built_once; "
            boot = args[-1].replace("from vlmforge.halves", first + "from vlmforge.halves")
            return popen([*args[:-1], boot], **kwargs)

        monkeypatch.setattr(halves, "_PROCESS", halves._ProcessWorker())
        monkeypatch.setattr(halves.subprocess, "Popen", built_once)
        served, result = [], halves._Worker.result
        monkeypatch.setattr(halves._Worker, "result",
                            lambda self: (served.append(1), result(self))[1])
        worker = ready_worker()
        sizes = []
        try:
            for variant in (TransformerBlockProjector(2), Linear()):  # the larger config first
                model = Model(cfg(dtype, variant))
                for seed in range(3):
                    samples, pixels = batch(tok, model.cfg, seed)
                    for trainable in (PROJECTOR_ONLY.trainable, ALL_TRAINABLE.trainable,
                                      PROJECTOR_ONLY.trainable, None):
                        before = len(served)
                        got = model.loss_and_grads(samples, pixels, trainable)
                        assert len(served) == before + 1
                        sizes.append(os.fstat(worker.memfd).st_size)
                        assert_bitwise_equal(got, in_process(monkeypatch, model, samples,
                                                             pixels, trainable))
            assert not halves._PROCESS.failed and ready_worker() is worker
        finally:
            if halves._PROCESS.worker is worker:  # not failed, so not closed yet
                atexit.unregister(worker.close)
                worker.close()
        assert sizes == sizes[:1] * len(sizes)

    @pytest.mark.parametrize("trainable", [None, ALL_TRAINABLE.trainable,
                                           PROJECTOR_ONLY.trainable])
    def test_gradients_are_one_buffer_per_trained_group(self, tok, trainable):
        """A call's gradients are views into one fresh buffer per trainable
        group, laid out as `Model.views` lays out the group's parameters;
        a frozen group gets none."""
        model = Model(cfg())
        samples, pixels = batch(tok, model.cfg)
        calls = [model.loss_and_grads(samples, pixels, trainable)[1] for _ in range(2)]
        buffers = [{model.group_of(n): g.base for n, g in grads.items()} for grads in calls]
        for grads, bufs in zip(calls, buffers):
            assert bufs.keys() == set(PARAM_GROUPS if trainable is None else trainable)
            for group, buf in bufs.items():
                assert buf.shape == model.buffers[group].shape
                assert buf.dtype == model.buffers[group].dtype
            views = Model.views(model.cfg, bufs)
            assert views.keys() == grads.keys()
            for name, view in views.items():
                assert grads[name].base is bufs[model.group_of(name)], name
                assert grads[name].shape == view.shape, name
                assert grads[name].ctypes.data == view.ctypes.data, name
        assert not any(np.shares_memory(buffers[0][g], buffers[1][g]) for g in buffers[0])

    def test_halves_equal_one_pass_to_1e12(self, tok):
        model = Model(cfg())
        for seed in range(6):
            samples, pixels = batch(tok, model.cfg, seed)
            loss, grads = model.loss_and_grads(samples, pixels)
            want_loss, want = one_pass(model, samples, pixels)
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
            for group in model.group_names():
                names = [n for n in want if model.group_of(n) == group]
                norm = np.sqrt(sum(float(np.sum(grads[n] ** 2)) for n in names))
                want_norm = np.sqrt(sum(float(np.sum(want[n] ** 2)) for n in names))
                assert abs(norm - want_norm) <= 1e-12 * want_norm, group

    @pytest.mark.parametrize("trainable", [None, PROJECTOR_ONLY.trainable])
    def test_one_sample_is_one_pass_bit_for_bit(self, tok, monkeypatch, trainable):
        model = Model(cfg())
        started = []
        monkeypatch.setattr(halves, "second_half", lambda *args: started.append(args))
        for samples, pixels in (batch(tok, model.cfg, seed, size=1) for seed in range(4)):
            assert_bitwise_equal(model.loss_and_grads(samples, pixels, trainable),
                                 one_pass(model, samples, pixels, trainable))
        assert started == []

    def test_all_masked_batch_is_zero_before_any_pass(self, tok, monkeypatch, caplog):
        model = Model(cfg())
        samples, pixels = batch(tok, model.cfg, size=3)
        for s in samples:
            s.loss_mask[:] = 0
        calls, started = [], []
        monkeypatch.setattr(model_module, "_block_fwd", lambda *args: calls.append(args[2]))
        monkeypatch.setattr(halves, "second_half", lambda *args: started.append(args))
        with caplog.at_level(logging.WARNING, logger="vlmforge.model"):
            loss, grads = model.loss_and_grads(samples, pixels)
        assert loss == 0.0 and all(not g.any() for g in grads.values())
        assert [r.message for r in caplog.records] == [
            "loss_and_grads: batch has no loss-masked positions"]
        assert calls == [] and started == []

    def test_malformed_batch_refused_before_either_half(self, tok, monkeypatch):
        """Each bad sample, first or last in a batch, is refused with the
        message a batch of it alone gets, before any block runs here or
        the worker is sent anything."""
        model = Model(cfg())
        S = model.cfg.slot_length
        good = [sample(tok, model.cfg, "a good one", ("img",)),
                sample(tok, model.cfg, "another good one")]
        pixels = bind_pixels(good, model.cfg.resolution)
        imaged = good[0]
        tokens = np.array([256, 65, 66, 67, 68], dtype=np.uint32)

        def masks(*values):
            return np.array(values, dtype=np.uint8)

        long_loss = np.ones(97, np.uint8)
        long_loss[0] = 0
        replace = dataclasses.replace
        cases = [
            (PackedSample(tokens[:0], masks(), masks()), "empty sample"),
            (PackedSample(tokens, masks(0, 0, 0, 0), masks(0, 1, 1, 1, 1)), "mask lengths"),
            (PackedSample(tokens, masks(0, 3, 0, 0, 0), masks(0, 1, 1, 1, 1)),
             "modality mask holds"),
            (PackedSample(tokens, masks(0, 0, 0, 0, 0), masks(0, 2, 1, 1, 1)), "loss mask holds"),
            (replace(imaged, loss_mask=(imaged.loss_mask | (imaged.modality_mask == IMAGE))
                     .astype(np.uint8)), "loss mask must be 0 at IMAGE positions"),
            (PackedSample(tokens, masks(0, 0, 0, 0, 0), masks(1, 1, 1, 1, 1)),
             "loss mask must be 0 at position 0"),
            (replace(imaged, image_slots=[]), "IMAGE positions are not exactly"),
            (replace(imaged, image_slots=[ImageSlot(len(imaged) - 1, S, "img")]),
             "out of bounds"),
            (replace(imaged, image_slots=[ImageSlot(1, S, "unbound")]), "not bound to pixels"),
            (PackedSample(np.array([256, 65, 999], dtype=np.uint32), masks(0, 0, 0),
                          masks(0, 1, 1)), "vocabulary"),
            (PackedSample(np.full(97, 65, dtype=np.uint32), np.zeros(97, np.uint8), long_loss),
             "exceeds max_positions"),
        ]
        bad_grid = {**pixels, "img": np.zeros((8, 8, 3))}
        calls, started = [], []
        monkeypatch.setattr(model_module, "_block_fwd", lambda *args: calls.append(args[2]))
        monkeypatch.setattr(halves, "second_half", lambda *args: started.append(args))
        for bad, message in cases:
            for samples in ([bad], [bad] + good, good + [bad]):
                with pytest.raises(VlmforgeError, match=message):
                    model.loss_and_grads(samples, pixels)
        for samples in (good[:1], good):
            with pytest.raises(ConfigMismatchError, match="pixel grid"):
                model.loss_and_grads(samples, bad_grid)
        assert calls == [] and started == []


def test_threads_share_the_worker_one_call_at_a_time(tok, monkeypatch):
    """Threads that train their own models at once: one call at a time
    uses the worker, the others compute both halves themselves, and every
    call keeps its own bits."""
    models = [Model(dataclasses.replace(cfg(), seed=k)) for k in range(4)]
    inputs = [batch(tok, m.cfg, seed=k) for k, m in enumerate(models)]
    wants = [in_process(monkeypatch, m, *inp) for m, inp in zip(models, inputs)]
    ready_worker()
    got, errors = {k: [] for k in range(4)}, []

    def train(k):
        try:
            for _ in range(4):
                got[k].append(models[k].loss_and_grads(*inputs[k]))
        except BaseException as exc:  # reported below
            errors.append(exc)

    # daemons, so that a call that never returns fails the test, not the run
    threads = [threading.Thread(target=train, args=(k,), daemon=True) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    for k, want in enumerate(wants):
        assert len(got[k]) == 4
        for result in got[k]:
            assert_bitwise_equal(result, want)


def worker_failures(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records
            if r.name == "vlmforge.halves" and "worker process failed" in r.getMessage()]


def test_half_the_worker_cannot_compute_is_computed_here(tok, monkeypatch, caplog):
    """A half that raises in the worker is answered with the worker's
    traceback: this process computes it, with the same bits, logs one
    warning, and computes both halves itself from then on."""
    model = Model(cfg())
    samples, pixels = batch(tok, model.cfg)
    want = in_process(monkeypatch, model, samples, pixels)
    monkeypatch.setattr(halves, "_PROCESS", halves._ProcessWorker())
    worker = ready_worker()
    submit, result, replies = halves._Worker.submit, halves._Worker.result, []

    def submit_unknown_group(self, model, samples, pixels, train, total):
        # a group the worker's layout lacks fails the half there, not here
        submit(self, model, samples, pixels, {*train, "no-such-group"}, total)

    def result_or_traceback(self):
        try:
            return result(self)
        except RuntimeError as exc:
            replies.append(str(exc))
            raise

    monkeypatch.setattr(halves._Worker, "submit", submit_unknown_group)
    monkeypatch.setattr(halves._Worker, "result", result_or_traceback)
    with caplog.at_level(logging.WARNING, logger="vlmforge.halves"):
        got = [model.loss_and_grads(samples, pixels) for _ in range(2)]
    for one in got:
        assert_bitwise_equal(one, want)
    assert len(replies) == 1 and "KeyError: 'no-such-group'" in replies[0]
    assert len(worker_failures(caplog)) == 1
    assert halves._PROCESS.failed and halves._PROCESS.worker is None
    assert worker.proc.poll() is not None


def test_worker_that_exits_before_it_is_ready(tok, monkeypatch, caplog):
    """A worker that exits while it starts fails once, with one warning;
    every call computes both halves here, with the same bits."""
    if not halves._two_cpus():
        pytest.skip("one CPU: no training worker")
    model = Model(cfg())
    samples, pixels = batch(tok, model.cfg)
    want = in_process(monkeypatch, model, samples, pixels)
    monkeypatch.setattr(halves, "_PROCESS", halves._ProcessWorker())
    monkeypatch.setattr(sys, "executable", "/bin/false")  # exits at once, having said nothing
    served, result = [], halves._Worker.result
    monkeypatch.setattr(halves._Worker, "result",
                        lambda self: (served.append(1), result(self))[1])
    deadline = time.monotonic() + 60
    with caplog.at_level(logging.WARNING, logger="vlmforge.halves"):
        while not halves._PROCESS.failed:
            assert time.monotonic() < deadline, "the worker's exit was never seen"
            assert_bitwise_equal(model.loss_and_grads(samples, pixels), want)
            time.sleep(0.01)
        assert_bitwise_equal(model.loss_and_grads(samples, pixels), want)
    assert len(worker_failures(caplog)) == 1 and served == []
    assert halves._PROCESS.worker is None


# ---------------------------------------------------------------------------
# the worker's lifecycle, each in a process of its own


def run_python(code, tmp_path, env=None, expect_rc=0) -> dict:
    """Run `code` in a fresh interpreter in development mode, which the
    worker inherits; returns the JSON object it prints last. Neither
    process may leave a file unclosed."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDEVMODE": "1", **(env or {})}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    assert done.returncode == expect_rc, done.stderr
    assert "ResourceWarning" not in done.stderr, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def shm_entries() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


TRAIN_RUN = """
    import json, sys, time
    from vlmforge import halves, trainer
    from vlmforge.cli import main
    from vlmforge.fixtures import FixtureSpec, fixture_gen

    paths = fixture_gen(FixtureSpec(n_docs=12, images_per_doc=2, tokens_per_image=16,
                                    n_pairs=40, seed=1), "fix")
    while (worker := halves._PROCESS.ready()) is None:  # the worker serves every step
        time.sleep(0.05)
    served, result = [], halves._Worker.result
    halves._Worker.result = lambda self: (served.append(1), result(self))[1]
    step = trainer.AdamW.step

    def step_or_fail(self, grads, lr):
        if self.t == {fail_at_step}:
            raise RuntimeError("stopped on purpose")
        step(self, grads, lr)

    trainer.AdamW.step = step_or_fail
    try:
        rc = main(["train", "run", "--preset", "c", "--corpus-a", str(paths["interleaved"]),
                   "--corpus-b", str(paths["pairs"]), "--out", "run", "--steps", "2,8,2",
                   "--batch-size", "4", "--eval-items", "4"])
    finally:
        print(json.dumps({{"pid": worker.proc.pid, "served": len(served)}}), flush=True)
    sys.exit(rc)
"""


@pytest.mark.skipif(not halves._two_cpus(), reason="one CPU: no training worker")
@pytest.mark.parametrize("fail_at_step", [None, 5], ids=["normal-exit", "exception-exit"])
def test_train_run_leaves_no_process_or_segment(tmp_path, fail_at_step):
    before = shm_entries()
    out = run_python(TRAIN_RUN.format(fail_at_step=fail_at_step), tmp_path,
                     expect_rc=0 if fail_at_step is None else 1)
    # every training step's second half: 2 + 8 + 2 steps, or up to the one
    # whose optimizer step raised
    assert out["served"] == (12 if fail_at_step is None else 2 + fail_at_step + 1)
    assert not alive(out["pid"])
    assert shm_entries() <= before


@pytest.mark.skipif(not halves._two_cpus(), reason="one CPU: no training worker")
def test_killed_worker_leaves_the_step_to_this_process(tmp_path):
    """The step in flight when the worker dies gets the same bits, here,
    with one warning; later steps run here without another."""
    out = run_python("""
        import json, logging, os, signal, sys, time
        import numpy as np
        from vlmforge import halves
        from vlmforge.model import Model, ModelConfig
        from vlmforge.packing import ByteTokenizer, bind_pixels, pack_document
        from vlmforge.corpus import ImageSegment, InterleavedDocument, TextSegment

        warnings = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = lambda record: warnings.append(record.getMessage())
        logging.getLogger("vlmforge").addHandler(handler)
        cfg = ModelConfig(max_positions=96)
        tok = ByteTokenizer()
        samples = [pack_document(InterleavedDocument("d", [ImageSegment(f"i{k}"),
                                 TextSegment("x" * (5 + 7 * k))]), tok, cfg.slot_length,
                                 cfg.max_positions)[0] for k in range(6)]
        pixels = bind_pixels(samples, cfg.resolution)
        model = Model(cfg)

        ready = halves._PROCESS.ready
        halves._PROCESS.ready = lambda: None
        want = model.loss_and_grads(samples, pixels)
        halves._PROCESS.ready = ready
        while (worker := halves._PROCESS.ready()) is None:
            time.sleep(0.05)
        pid, submit = worker.proc.pid, worker.submit

        def submit_then_die(*args):
            submit(*args)
            os.kill(pid, signal.SIGKILL)
            worker.proc.wait()

        worker.submit = submit_then_die
        got = [model.loss_and_grads(samples, pixels) for _ in range(2)]
        equal = [g[0] == want[0] and all(np.array_equal(g[1][n], a) for n, a in want[1].items())
                 for g in got]
        print(json.dumps({"equal": equal, "warnings": warnings,
                          "worker": halves._PROCESS.worker is not None}))
    """, tmp_path)
    assert out["equal"] == [True, True]
    assert len(out["warnings"]) == 1 and "worker process failed" in out["warnings"][0]
    assert out["worker"] is False


@pytest.mark.skipif(not halves._two_cpus(), reason="one CPU: no training worker")
def test_worker_imports_the_callers_vlmforge(tmp_path):
    """The caller found vlmforge through a path put on sys.path at run
    time, as the benchmark does; the environment's path holds a decoy
    that fails to import."""
    decoy = tmp_path / "decoy" / "vlmforge"
    decoy.mkdir(parents=True)
    (decoy / "__init__.py").write_text("raise ImportError('the decoy vlmforge')\n")
    out = run_python(f"""
        import json, sys, time
        sys.path.insert(0, {str(SRC)!r})
        import numpy as np
        from vlmforge import halves
        from vlmforge.model import Model, ModelConfig
        from vlmforge.packing import PackedSample

        model = Model(ModelConfig())
        samples = [PackedSample(np.array([256, 65 + k, 66, 67], dtype=np.uint32),
                                np.zeros(4, np.uint8), np.array([0, 1, 1, 1], np.uint8))
                   for k in range(4)]
        deadline = time.monotonic() + 60
        while halves._PROCESS.ready() is None and not halves._PROCESS.failed:
            assert time.monotonic() < deadline
            time.sleep(0.05)
        served, result = [], halves._Worker.result
        halves._Worker.result = lambda self: (served.append(1), result(self))[1]
        model.loss_and_grads(samples)
        print(json.dumps({{"failed": halves._PROCESS.failed, "served": len(served)}}))
    """, tmp_path, env={"PYTHONPATH": str(tmp_path / "decoy")})
    assert out == {"failed": False, "served": 1}
