"""vlmforge benchmark: one workload per process, result as the last stdout line.

Run from the repository root:

    python3 vlmbench/run.py --workload pretrain --seed 0 --seconds 36 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
and writes the spans to vlmbench/out/. The program is imported from the
checkout's own `src/`, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import shutil
from pathlib import Path

# one BLAS thread, pinned before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pretrain", "pretrain-frozen-llm", "kshot-eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


def import_program():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not (SRC / "vlmforge" / "__init__.py").is_file():
        sys.exit(f"vlmbench: no vlmforge sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import vlmforge

    if Path(vlmforge.__file__).resolve().parent != SRC / "vlmforge":
        sys.exit(f"vlmbench: imported vlmforge from {vlmforge.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result, _, _, details, tracer = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details["result"] = result
    stem.with_suffix(".json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        tracer.write_spans(stem.with_suffix(".spans.jsonl.gz"))
    for name, failures in details["checks"].items():
        for failure in failures:
            print(f"CHECK FAILED [{name}]: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
