"""The second half of a training batch, computed in a second process.

`Model.loss_and_grads` splits a batch of two or more samples into two fixed
halves and adds up their losses and gradients. Where this process may run on
two CPUs, a worker process computes the second half while the caller
computes the first. Anywhere else, and whenever the worker is busy with
another thread's call, still starting or gone, the caller computes both. The
worker runs the same `Model._scored_grads` on the same inputs, so the bits
are the same either way.

There is one worker per process, shared by every model, config and freeze
policy. It starts at the first multi-sample `loss_and_grads`, since a fresh
interpreter that imports the model takes about 0.4 s, and the calls made
while it starts compute both halves here. It is a plain `subprocess` child
and starts no helper process of its own. It shares one anonymous memory file
(`os.memfd_create`) with the caller, which leaves nothing on any file
system. The file holds every group's parameters, which the caller copies
in before each call, then every group's gradients, of which the worker
zeroes and writes the trainable groups' only: each a buffer per group, laid
out by the config alone, so a new freeze policy changes nothing there. A
config that needs more room grows the file; neither side respawns. One
duplex `multiprocessing.connection` carries only the half's shard records
(`packing.encode_record`), its pixel stack and a few scalars one way, and
the half's cross-entropy sum the other; it frames the messages.

Between calls the worker sleeps in a blocking read. It exits when the
connection closes: at the caller's exit (`atexit`), or when the caller
dies. If it dies or fails, the call in flight computes its second half
here, with the same bits, one warning is logged, and the process computes
both halves itself from then on.
"""

from __future__ import annotations

import atexit
import contextlib
import logging
import mmap
import os
import pickle
import signal
import subprocess
import sys
import threading
import traceback

import numpy as np

from .packing import decode_record, encode_record

logger = logging.getLogger(__name__)

_ALIGN = 64  # the gradients' byte offset in the shared memory is a multiple of this
_EXIT_WAIT_S = 10.0  # how long the caller's exit waits for the worker to end


def _map(cfg, memfd: int) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """The shared memory's parameter and gradient buffers by group, laid
    out by the config alone: every group's parameters back to back, as in
    `Model.buffers`, then from an _ALIGN-byte boundary on every group's
    gradients the same way. The file grows to hold them, and never shrinks."""
    from .model import Model  # the model module imports this one

    sizes, dtype = Model._group_sizes(cfg), np.dtype(cfg.np_dtype)
    offset = -(-sum(sizes.values()) * dtype.itemsize // _ALIGN) * _ALIGN
    if 2 * offset > os.fstat(memfd).st_size:
        os.ftruncate(memfd, 2 * offset)
    memory, buffers = mmap.mmap(memfd, 2 * offset), ({}, {})
    for start, part in zip((0, offset), buffers):
        for group, size in sizes.items():
            part[group] = np.frombuffer(memory, dtype, size, start)
            start += size * dtype.itemsize
    return buffers


def _wire(a: np.ndarray) -> tuple:
    return a.tobytes(), a.dtype.str, a.shape


def _unwire(wired: tuple) -> np.ndarray:
    data, dtype, shape = wired
    return np.frombuffer(data, dtype).reshape(shape)


class _Worker:
    """The worker process, the connection to it and the memory it shares
    with this process; made and used by the process that spawned it only."""

    def __init__(self):
        # imported here, so that a process that never trains does not load it
        from multiprocessing.connection import Pipe

        self.owner = os.getpid()
        self.cfg = None  # the config the shared buffers are laid out for
        self.ready = False
        self.pending = False  # a request sent whose reply is not read yet
        package_parent = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with contextlib.ExitStack() as opened:  # closed again if the worker does not start
            self.memfd = os.memfd_create("vlmforge-halves")
            opened.callback(os.close, self.memfd)
            self.conn, theirs = Pipe()
            opened.callback(self.conn.close)
            with theirs:  # the worker's end, which this process closes once it is passed on
                boot = (f"import sys; sys.path.insert(0, {package_parent!r}); "
                        f"from vlmforge.halves import _serve; "
                        f"_serve({theirs.fileno()}, {self.memfd})")
                self.proc = subprocess.Popen(
                    [sys.executable, "-c", boot], pass_fds=(theirs.fileno(), self.memfd),
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
            opened.pop_all()

    def is_ready(self) -> bool:
        """Whether the worker has started; never waits for it. EOFError if
        it exited while starting."""
        if not self.ready and self.conn.poll(0):
            self.conn.recv_bytes()  # its first message, which says no more
            self.ready = True
        return self.ready

    def submit(self, model, samples, pixels, train, total: float) -> None:
        """Copy the parameters into the shared memory and send the half."""
        if self.pending:  # an interrupted call left its reply unread
            self.conn.recv_bytes()
        if model.cfg != self.cfg:
            self.params, self.grads = _map(model.cfg, self.memfd)
            self.cfg = model.cfg
        for group, buf in self.params.items():
            buf[...] = model.buffers[group]
        # the pixels as one stack's bytes, which pickle faster than arrays
        ids = list(dict.fromkeys(slot.image_id for s in samples for slot in s.image_slots))
        stack = np.stack([pixels[i] for i in ids]) if ids else np.empty(0)
        request = (model.cfg, tuple(sorted(train)), total, [encode_record(s) for s in samples],
                   ids, _wire(stack))
        self.conn.send_bytes(pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL))
        self.pending = True

    def result(self) -> tuple[float, dict[str, np.ndarray]]:
        """The half's cross-entropy sum and its gradient buffers by group, in
        the shared memory: read the trainable groups' before the next `submit`."""
        reply = self.conn.recv_bytes()  # EOFError if the worker has exited
        self.pending = False
        outcome = pickle.loads(reply)
        if isinstance(outcome, str):  # the worker's traceback
            raise RuntimeError(outcome)
        return outcome, self.grads

    def close(self) -> None:
        """End the worker: close the connection, which it reads as the end,
        wait for it, and kill it if it does not end in time."""
        if self.owner != os.getpid():
            return
        self.conn.close()
        try:
            self.proc.wait(_EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        os.close(self.memfd)


class _ProcessWorker:
    """This process's worker: none until the first multi-sample batch on two
    CPUs, then one until it fails or the process exits. `lock` keeps it to
    one call at a time."""

    def __init__(self):
        self.lock = threading.Lock()
        self.worker: _Worker | None = None
        self.failed = False

    def ready(self) -> _Worker | None:
        """The worker, started here if it is not yet; None while it starts,
        after it failed, or where this process may use one CPU only."""
        if self.worker is not None and self.worker.owner != os.getpid():
            self.worker = None  # a forked child's copy: the worker is its parent's
        if self.failed or not _two_cpus():
            return None
        try:
            if self.worker is None:
                self.worker = _Worker()
                atexit.register(self.worker.close)
            return self.worker if self.worker.is_ready() else None
        except (OSError, EOFError) as exc:
            self.fail(exc)
            return None

    def fail(self, exc: BaseException) -> None:
        logger.warning("the training worker process failed (%s); this process computes "
                       "both halves of every batch from now on", exc)
        self.failed = True
        if self.worker is not None:
            worker, self.worker = self.worker, None
            atexit.unregister(worker.close)
            worker.proc.kill()
            worker.close()


def _two_cpus() -> bool:
    return (hasattr(os, "sched_getaffinity") and hasattr(os, "memfd_create")
            and len(os.sched_getaffinity(0)) >= 2)


_PROCESS = _ProcessWorker()


@contextlib.contextmanager
def second_half(model, samples, pixels, train, total: float):
    """Start the second half of a batch: `model._scored_grads` on `samples`.

    Yields a function that returns the half's cross-entropy sum and its
    gradient buffers by group, to be read before the next call. The half runs in
    the worker if it is ready and free, and here, when the function is
    called, otherwise, or if the worker fails on the way."""

    def here():
        buffers, grads = model._zero_grads(train)
        return model._scored_grads(samples, pixels, train, total, grads), buffers

    if not _PROCESS.lock.acquire(blocking=False):
        yield here
        return
    try:
        worker = _PROCESS.ready()
        try:
            if worker is not None:
                worker.submit(model, samples, pixels or {}, train, total)
        except (OSError, EOFError, pickle.PicklingError) as exc:
            _PROCESS.fail(exc)
            worker = None

        def there():
            try:
                return worker.result()
            except (OSError, EOFError, RuntimeError) as exc:
                _PROCESS.fail(exc)
                return here()

        yield here if worker is None else there
    finally:
        _PROCESS.lock.release()


def _serve(fd: int, memfd: int) -> None:
    """The worker's loop: answer each request until the connection closes."""
    from multiprocessing.connection import Connection

    from .model import Model

    # a terminal's interrupt reaches the whole process group; the caller
    # handles it, and the worker ends when the caller closes the connection
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # the connection's end, or a reply or request it cuts off: the caller
    # has ended, and so does the loop
    with contextlib.suppress(EOFError, ConnectionError), Connection(fd) as conn:
        conn.send_bytes(b"")  # ready
        key = None
        while True:
            message = conn.recv_bytes()
            try:
                cfg, groups, total, records, ids, stack = pickle.loads(message)
                samples = [decode_record(record) for record in records]
                pixels = dict(zip(ids, _unwire(stack)))
                if cfg != key:
                    params, buffers = _map(cfg, memfd)
                    # the model reads its parameters in place, from the shared memory
                    model = Model(cfg)
                    model.buffers, model.params = params, Model.views(cfg, params)
                    grads, key = Model.views(cfg, buffers), cfg
                for group in groups:  # a frozen group's pages stay untouched
                    buffers[group].fill(0)
                outcome = model._scored_grads(samples, pixels, set(groups), total, grads)
            except Exception:  # reported to the caller, which then computes the half itself
                outcome = traceback.format_exc()
            conn.send_bytes(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
