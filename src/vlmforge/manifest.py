"""Run manifests, the provenance records written next to every output
artifact, and the file helpers the writers and readers share: atomic
writes, UTF-8 reads and the one JSON decoder of every input."""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import json
import os
import subprocess
from pathlib import Path

from .errors import VlmforgeError


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_utf8(path) -> str:
    """The text of a UTF-8 file, its line ends made "\n" as text mode makes
    them; a byte that is not UTF-8 raises VlmforgeError naming the file and
    the line it is on, as does a NUL byte in the file's name."""
    try:
        data = Path(path).read_bytes()
    except ValueError as exc:  # open's "embedded null byte"
        raise VlmforgeError(f"{os.fspath(path)!r}: {exc} in the file name") from None
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise VlmforgeError(f"{path}:line {line_no}: byte {data[exc.start]:#04x} "
                            f"is not UTF-8") from None


def parse_json(text: str):
    """The JSON value of `text`. Text that is not JSON (or holds an integer
    longer than Python converts), nesting deeper than the decoder follows,
    and a \\u escape that gives a lone surrogate, which no UTF-8 text holds,
    raise VlmforgeError naming no place: the caller names the file and line.
    Text without an escape cannot hold such a surrogate and is not looked at."""
    try:
        obj = json.loads(text)
        if "\\u" in text:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise VlmforgeError(f"a \\u escape gives the lone surrogate "
                            f"{exc.object[exc.start]!r}, which is not UTF-8") from None
    except ValueError as exc:  # json.JSONDecodeError, or int's digit limit
        raise VlmforgeError(str(exc)) from None
    except RecursionError:
        raise VlmforgeError("JSON nested deeper than the decoder follows") from None
    return obj


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


@contextlib.contextmanager
def atomic_open(target, mode: str = "w"):
    """A temporary file beside `target`, with the permissions `open` would give
    it, that replaces `target` if the block succeeds."""
    tmp = f"{os.fspath(target)}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def write_manifest(anchor_path, command: str, config: dict, seed: int | None,
                   inputs: list, outputs: list) -> str:
    """Atomically write `<anchor>.manifest.json` beside the anchor output.

    It records, besides the command and its inputs, the BLAS the numbers
    came from and its thread counts: a run's bits depend on both."""
    from .model import blas_record  # the model imports this module

    manifest = {
        "command": command,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True, default=str).encode()
        ).hexdigest(),
        "config": config,
        "git_describe": _git_describe(),
        "seed": seed,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "inputs": {str(p): file_sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "blas": blas_record(),
    }
    target = str(anchor_path) + ".manifest.json"
    with atomic_open(target) as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")
    return target
