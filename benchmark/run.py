"""Benchmark gentorsion on one workload and print one JSON result line.

    python3 benchmark/run.py --workload pslz-long --seed 1 --seconds 15 --trace 0

Run from the repository root.  The package is not installed: each run
starts fresh interpreters with ``src/`` on the path and a fixed
PYTHONHASHSEED.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: set-up is timed in this many fresh interpreters per run; the median counts
SETUP_SAMPLES = 21
#: every run, set-up included, ends within this many seconds
RUN_LIMIT_S = 170

sys.path.insert(0, HERE)
from workloads import GENERATORS, make_round  # noqa: E402


def spawn(args: list, stdin_text: str, env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        input=stdin_text, capture_output=True, text=True, env=env, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "gentorsion", "__init__.py")):
        raise SystemExit(f"no gentorsion sources under {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    started = time.monotonic()
    items = make_round(args.workload, args.seed)
    stdin_text = "\n".join("\t".join(item) for item in items) + "\n"
    import ops

    env = ops.child_env(SRC)

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    spawn(["setup", SRC], stdin_text, env, remaining())  # writes bytecode caches
    # set-up is sampled before and after the timed run, so that its median
    # spans the same stretch of host speed as the operations
    half = SETUP_SAMPLES // 2
    setups = [spawn(["setup", SRC], stdin_text, env, remaining()) for _ in range(half)]
    report = spawn(["run", SRC, args.workload, str(args.seconds), str(args.trace)],
                   stdin_text, env, remaining())
    setups.append(report)
    setups += [spawn(["setup", SRC], stdin_text, env, remaining())
               for _ in range(SETUP_SAMPLES - half - 1)]
    report["setup_samples_s"] = [s["setup_s"] for s in setups]
    report["metrics"]["setup_s"] = statistics.median(report["setup_samples_s"])
    report["raw"]["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, ops_per_round=len(items))

    if args.trace:
        chosen, source = spec["per_layer"], report["per_layer"]
    else:
        chosen, source = spec["end_to_end"], report["metrics"]
    metrics = {m["name"]: {"value": source.get(m["name"], 0), "unit": m["unit"]}
               for m in chosen}
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for problem in report["errors"]:
        print(f"incorrect: {problem}")
    for failure in report["failures"]:
        print(f"failed: {failure}")
    print(f"{report['rounds']} rounds of {len(items)} operations, "
          f"tail = p{report['tail_pct']}, raw: "
          + ", ".join(f"{k} {v:.4g}" for k, v in sorted(report["raw"].items())))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
