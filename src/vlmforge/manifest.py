"""Run manifests: provenance records written next to every output artifact."""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import json
import os
import subprocess


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


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


def write_manifest(anchor_path, command: str, config: dict, seed: int,
                   inputs: list, outputs: list) -> str:
    """Atomically write `<anchor>.manifest.json` beside the anchor output."""
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
    }
    target = str(anchor_path) + ".manifest.json"
    with atomic_open(target) as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")
    return target
