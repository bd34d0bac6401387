"""Quick self-test of the benchmark itself.

Runs every workload briefly, checks that its output carries exactly the
metrics BENCHMARK.json declares, then perturbs one observed output at a
time and requires the check that covers it to fail. From the repository
root:

    python3 vlmbench/selftest.py

Exits 0 when every check passes on real outputs and fails on perturbed ones.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import run

SECONDS = 3.0


def _swap_choice(records, _obs):
    item, context, prediction = records[0]
    other = next(c for c in item.candidates if c != prediction)
    records[0] = (item, context, other)


def _set(seq, index, value):
    seq[index] = value


# (check that must fail, observation perturbed, perturbation(value, observations))
PROBE_PERTURBATIONS = [
    ("generation", "generated", lambda v, o: _set(v[0][0], 0, (v[0][0][0] + 1) % 256)),
    ("generation_repeats", "generated", lambda v, o: _set(v[1][0], 0, (v[1][0][0] + 1) % 256)),
    ("alignment", "profiles",
     lambda v, o: _set(v[0][0].per_layer, 0, v[0][0].per_layer[0] + 1e-9)),
    ("alignment_repeats", "profiles",
     lambda v, o: _set(v[1][0].per_layer, 0, v[1][0].per_layer[0] + 1e-9)),
    ("checkpoint", "reloaded", lambda v, o: v["embed.tok"].__imul__(1.0 + 1e-6)),
]
PRETRAIN_PERTURBATIONS = [
    ("finite_losses", "losses", lambda v, o: _set(v, 3, math.nan)),
    ("first_loss", "losses", lambda v, o: _set(v, 0, v[0] + 0.5)),
    ("gradient", "gradients", lambda v, o: _set(v, 0, v[0][:3] + (v[0][3] * 1.01,))),
    ("trained_positions", "token_pairs", lambda v, o: _set(v, 0, (v[0][0] + 1, v[0][1]))),
    ("freeze", "after", lambda v, o: v.update(vision="0" * 64)),
    ("freeze", "after", lambda v, o: v.update(projector=o["before"]["projector"])),
]
PERTURBATIONS = {
    "pretrain": PROBE_PERTURBATIONS + PRETRAIN_PERTURBATIONS + [
        ("loss_decreases", "losses", lambda v, o: v.__setitem__(slice(-10, None), [v[0] + 1.0] * 10)),
    ],
    "pretrain-frozen-llm": PROBE_PERTURBATIONS + PRETRAIN_PERTURBATIONS,
    "kshot-eval": PROBE_PERTURBATIONS + [
        ("ranking", "rank_records", _swap_choice),
        ("ranking_repeats", "rank_rounds", lambda v, o: _set(v[1], 0, v[1][0] + "?")),
    ],
}


def main() -> int:
    run.import_program()
    import workloads

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    run.OUT.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                result, obs, inp, details, _ = workloads.run(
                    workload, 0, SECONDS, bool(trace), Path(work_dir))
                if not result["correct"]:
                    problems.append(f"{workload}: checks fail on real outputs: {details['checks']}")
                if set(result["metrics"]) != declared[trace]:
                    problems.append(f"{workload} trace {trace}: metrics "
                                    f"{sorted(set(result['metrics']) ^ declared[trace])} "
                                    "differ from BENCHMARK.json")
            for name, key, perturb in PERTURBATIONS[workload]:
                mutated = dict(obs)
                mutated[key] = copy.deepcopy(obs[key])
                perturb(mutated[key], obs)
                failures = workloads.verify(workload, inp, mutated)
                status = "fails as it should" if failures[name] else "DID NOT FAIL"
                print(f"{workload}: perturbed {key} -> check {name} {status}")
                if not failures[name]:
                    problems.append(f"{workload}: check {name} passed a perturbed {key}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in problems:
        print("SELFTEST PROBLEM:", problem, file=sys.stderr)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
