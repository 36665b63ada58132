"""One benchmark run of one workload, in a fresh single-threaded interpreter.

    python3 worker.py setup SRC                     time set-up only
    python3 worker.py run SRC WORKLOAD SECONDS TRACE time set-up, then the operations
    python3 worker.py import-cli SRC                time ``import gentorsion.cli``

The round's items arrive on stdin, one tab-separated ``kind expect args...``
per line (see workloads.py); the result is one JSON object on stdout.

Every timing is corrected for host speed: a fixed integer loop that shares
no code with gentorsion runs next to each timed stretch, and the stretch is
scaled by CAL_NOMINAL_S / (median loop time nearby).  Figures then read as
time on the reference host, whose loop took CAL_NOMINAL_S.
"""

import math
import statistics
import sys
import time

import ops

CAL_LOOP = 20_000
#: calibrate() on the reference host: 2 cores, CPython 3.11.7 (see README).
CAL_NOMINAL_S = 0.0023
#: an operation is corrected by the loops run within this many operations
#: of it: single loops jitter by tens of percent, the host's speed drifts
#: over seconds
CAL_WINDOW = 15

#: op_tail_ms is this percentile; MIN_ROUNDS keeps at least ten samples
#: beyond it in every run.
TAIL_PCT = {"pslz-long": 90, "searches": 90, "fibered": 90, "cli": 80}
MIN_ROUNDS = {"pslz-long": 3, "searches": 3, "fibered": 4, "cli": 5}


def calibrate() -> float:
    t = time.perf_counter()
    x = 0
    for i in range(CAL_LOOP):
        x = (x * 31 + i) % 1000003
    return time.perf_counter() - t


def calibrated(raw: float, loops: list) -> float:
    return raw * CAL_NOMINAL_S / statistics.median(loops)


def corrected_ops(timings: list) -> list:
    """Operation times scaled by the median loop time of their neighbourhood."""
    loops = [loop for _, loop in timings]
    return [
        calibrated(raw, loops[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
        for i, (raw, _) in enumerate(timings)
    ]


def hd_quantile(values: list, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile, 0 < p < 1.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics.  A
    round repeats the same inputs, so a single order statistic sits on the
    boundary between two inputs and jumps when they swap ranks; this
    estimate moves smoothly.
    """
    s = sorted(values)
    n, steps = len(s), 16
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if not 0 < x < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    # the weight of the i-th order statistic is the Beta mass on
    # [i/n, (i+1)/n], integrated by Simpson's rule
    h = 1 / (n * steps)
    simpson = [1] + [4 if k % 2 else 2 for k in range(1, steps)] + [1]
    weights = [
        sum(c * density(i / n + k * h) for k, c in enumerate(simpson)) for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, s)) / sum(weights)


def setup(src: str, items: list):
    """Import gentorsion and parse every input into program objects.

    Returns the parsed inputs, the raw set-up time and the corrected one.
    """
    before = [calibrate() for _ in range(3)]
    t = time.perf_counter()
    sys.path.insert(0, src)
    import gentorsion  # noqa: F401

    if items[0][0] == "cli":
        import gentorsion.cli  # noqa: F401
    ops.bind(src)
    parsed = [ops.parse(item) for item in items]
    raw = time.perf_counter() - t
    return parsed, raw, calibrated(raw, before + [calibrate() for _ in range(3)])


def import_cli(src: str) -> float:
    before = [calibrate() for _ in range(3)]
    t = time.perf_counter()
    sys.path.insert(0, src)
    import gentorsion.cli  # noqa: F401

    raw = time.perf_counter() - t
    return calibrated(raw, before + [calibrate() for _ in range(3)])


def timed_spawn(argv: list, env: dict) -> float:
    import subprocess

    loops = [calibrate() for _ in range(3)]
    t = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return calibrated(time.perf_counter() - t, loops)


def run(src: str, workload: str, seconds: float, trace: bool, items: list) -> dict:
    parsed, setup_raw, setup_s = setup(src, items)
    import gc
    import resource

    import checks

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    timings, failures, errors = [], [], []

    def one_round(record: bool) -> None:
        state: dict = {}
        for item, objs in zip(items, parsed):
            gc.collect()
            loop = calibrate()
            t = time.perf_counter()
            try:
                out = ops.call(item, objs, state, trace)
            except Exception as exc:  # an operation that raises has failed
                out = ops.Failed(f"{type(exc).__name__}: {exc}")
            raw = time.perf_counter() - t
            if tracer is not None:
                tracer.fold(calibrated(1.0, [loop]))
            label = f"{item[0]} {item[2][:50]}"
            if isinstance(out, ops.Failed):
                if record:
                    failures.append(f"{label}: {out.reason}")
            else:
                problem = checks.check(item, out, state, ops.reversible_text)
                if problem is not None:
                    errors.append(f"{label}: {problem}")
            if record:
                timings.append((raw, loop))

    one_round(record=False)  # warm-up, checked but not timed
    if tracer is not None:
        tracer.reset_counts()
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < MIN_ROUNDS[workload] or time.perf_counter() < deadline:
        one_round(record=True)
        rounds += 1

    tail_pct = TAIL_PCT[workload]

    def stats(values):
        return {
            "ops_per_s": len(values) / sum(values),
            "op_p50_ms": hd_quantile(values, 0.5) * 1e3,
            "op_tail_ms": hd_quantile(values, tail_pct / 100) * 1e3,
        }

    samples = corrected_ops(timings)
    raw_samples = [raw for raw, _ in timings]
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "attempted": len(samples),
        "failed": len(failures),
        "correct": not errors,
        "errors": errors[:10],
        "failures": sorted(set(failures)),
        "rounds": rounds,
        "tail_pct": tail_pct,
        "metrics": dict(stats(samples), peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024),
        "raw": stats(raw_samples),
        "timings": timings,
    }
    if tracer is not None:
        result["per_layer"] = layers = tracer.per_round(rounds, len(items))
        env = ops.child_env(src)
        starts = [timed_spawn([sys.executable, "-c", "pass"], env) for _ in range(7)]
        layers["cli.python_start_ms"] = statistics.median(starts) * 1e3
        imports = [cli_import_time(src, env) for _ in range(7)]
        layers["cli.import_ms"] = statistics.median(imports) * 1e3
    return result


def cli_import_time(src: str, env: dict) -> float:
    import subprocess

    proc = subprocess.run(
        [sys.executable, __file__, "import-cli", src],
        env=env, check=True, capture_output=True, text=True,
    )
    return float(proc.stdout)


def main(argv: list) -> int:
    mode, src = argv[0], argv[1]
    if mode == "import-cli":
        print(repr(import_cli(src)))
        return 0
    items = [tuple(line.split("\t")) for line in sys.stdin.read().splitlines() if line]
    if mode == "setup":
        _, raw, value = setup(src, items)
        result = {"setup_s": value, "setup_raw_s": raw}
    else:
        result = run(src, argv[2], float(argv[3]), argv[4] == "1", items)
    import json

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
