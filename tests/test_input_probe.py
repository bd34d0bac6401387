"""Every text input under a seeded probe: a corpus (strict and lenient), a
task file and its demo pool, a `--config` and a `--plan` file, a runlog and
a checkpoint's config, each mutated a few characters at a time, either load
or are refused with VlmforgeError, never another exception. The mutations
include nesting past the JSON decoder's depth, a \\u escape that gives a
lone surrogate, a NUL byte, and fields past their format's limits."""

import argparse
import json

import pytest
from hypothesis import given, settings, strategies as st

from vlmforge import cli
from vlmforge.corpus import parse_corpus
from vlmforge.errors import VlmforgeError
from vlmforge.evaluation import load_task
from vlmforge.model import CKPT_MAGIC, CKPT_VERSION, Model, ModelConfig
from vlmforge.trainer import LogRecord, RunLog

DEPTH = 100_000  # past the decoder's depth
LONG = 200_000  # past csv's field limit, and a JSON string that long
# a mutation inserts one of these: a JSON value before a key's value (which
# then belongs to a new key), a piece inside a string, or a piece anywhere
VALUES = ["[" * DEPTH + "]" * DEPTH, '{"a": ' * DEPTH + "1" + "}" * DEPTH,
          "[" * 500 + "]" * 500, "9" * 5000, '"' + "x" * LONG + '"', '"\\ud800"', "NaN",
          "-1e999", "null", "[]", "{}", "true", "-0"]
IN_STRING = ["\\ud800", "\\udfff\\ud800", "\\ud83d\\ude00", "\\u0000", "\x00", "x" * LONG,
             "\\", "\\x", "é", "\n"]
ANYWHERE = ["\x00", "[" * DEPTH, "x" * LONG, '"', ",", "{", "\n", "\r", "\\u", "\ufeff",
            "\ud800"]  # a raw surrogate is written as bytes that are not UTF-8


def mutate(text: str, mutations) -> str:
    for kind, at, pick in mutations:
        quotes = [i for i, c in enumerate(text) if c == '"']
        if kind == "in-string" and quotes:  # after a quote: each string is as likely
            at = quotes[at % len(quotes)] + 1
            text = text[:at] + IN_STRING[pick % len(IN_STRING)] + text[at:]
            continue
        at %= len(text) + 1
        if kind == "value":
            colon = text.find(":", at)
            at = at if colon < 0 else colon + 1
            text = text[:at] + VALUES[pick % len(VALUES)] + ',"z":' * (colon >= 0) + text[at:]
        elif kind in ("in-string", "anywhere"):
            text = text[:at] + ANYWHERE[pick % len(ANYWHERE)] + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at]
    return text


def lines(*records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


DOCS = lines({"doc_id": "a", "segments": [{"image_id": "i0", "sim_scores": {"1": 0.5}},
                                          {"text": "a cat"}], "meta": {"url": "u"}},
             {"doc_id": "b", "segments": [{"text": "text only"}]})
PAIRS = lines({"image_id": "i0", "caption": "a cat", "clip_score": 0.5},
              {"image_id": "i1", "caption": "a dog", "clip_score": 0.25})
TASK = lines({"name": "t", "metric": "candidate-rank", "demo_pool": "pool.jsonl"},
             {"item_id": "i0", "prompt": "p: ", "answer": "red", "image_id": "x",
              "candidates": ["red", "blue"]})
POOL = lines({"item_id": "d0", "prompt": "p: ", "answer": "red", "image_id": "y"})
CONFIG = json.dumps({"model_dim": 48, "llm_layers": 1, "dtype": "float64",
                     "projector": {"kind": "transformer", "heads": 4}})
PLAN = json.dumps({"stages": [
    {"name": "init-projector", "policy": ["projector"], "steps": 2, "lr": 0.001},
    {"name": "sft", "policy": ["projector", "llm"], "steps": 1, "lr": 0.01, "warmup": 1,
     "batch_size": 4, "text_only_fraction": 0.25}]})
RUNLOG = RunLog([LogRecord(s, "pretrain", 1.0 / (s + 1), 1e-3, 10 * s, s)
                 for s in range(3)]).to_csv()
CKPT_CFG = ModelConfig(vision_dim=8, model_dim=8, ffn_dim=8, heads=1, llm_layers=1,
                       max_positions=16)


def write(path, text: str):
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    return path


def corpus(fmt, strict):
    return lambda d, text: list(parse_corpus(write(d / "c.jsonl", text), fmt, strict=strict))


def task_file(d, text):
    write(d / "pool.jsonl", POOL)
    load_task(write(d / "task.jsonl", text))


def demo_pool(d, text):
    write(d / "pool.jsonl", text)
    load_task(write(d / "task.jsonl", TASK))


def checkpoint(d, text):
    """Load a checkpoint whose config is `text`, followed by the parameter
    bytes of the CKPT_CFG checkpoint that `workdir` saved."""
    saved = (d / "base.ckpt").read_bytes()
    cfg = text.encode("utf-8", "surrogatepass")
    (d / "m.ckpt").write_bytes(CKPT_MAGIC + CKPT_VERSION.to_bytes(4, "little")
                               + len(cfg).to_bytes(4, "little") + cfg
                               + saved[16 + int.from_bytes(saved[12:16], "little"):])
    Model.load_checkpoint(d / "m.ckpt")


READERS = {
    "corpus-strict": (DOCS, corpus("interleaved-jsonl", True)),
    "pairs-strict": (PAIRS, corpus("pairs-jsonl", True)),
    "task": (TASK, task_file),
    "demo-pool": (POOL, demo_pool),
    "config": (CONFIG, lambda d, text: cli._model_config(
        argparse.Namespace(config=write(d / "cfg.json", text)))),
    "plan": (PLAN, lambda d, text: cli._plan_from_json(write(d / "plan.json", text))),
    "runlog": (RUNLOG, lambda d, text: cli._read_runlog(write(d / "log.csv", text))),
    "checkpoint-config": (json.dumps(CKPT_CFG.to_json(), sort_keys=True), checkpoint),
}
LENIENT = {"corpus-lenient": (DOCS, corpus("interleaved-jsonl", False)),
           "pairs-lenient": (PAIRS, corpus("pairs-jsonl", False))}

mutation = st.tuples(st.sampled_from(["value", "in-string", "anywhere", "delete", "truncate"]),
                     st.integers(0, 10**6), st.integers(0, 10**3))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    Model(CKPT_CFG).save_checkpoint(d / "base.ckpt")
    return d


def test_unmutated_inputs_load(workdir):
    for text, read in {**READERS, **LENIENT}.values():
        read(workdir, text)


@pytest.mark.parametrize("reader", [*READERS, *LENIENT])
@given(mutations=st.lists(mutation, min_size=1, max_size=3))
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
def test_mutated_input_loads_or_is_refused(workdir, reader, mutations):
    """A strict reader loads the mutated input or raises VlmforgeError; a
    lenient corpus read skips the lines it cannot take and never raises."""
    text, read = {**READERS, **LENIENT}[reader]
    text = mutate(text, mutations)
    if reader in LENIENT:
        read(workdir, text)
        return
    try:
        read(workdir, text)
    except VlmforgeError:
        pass
