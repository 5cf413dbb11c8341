"""Benchmark for mpekit: one workload per process, closed loop, one client.

Run from the repository root:

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the same checkout. Each op starts
only when the previous one has returned, on a single thread, with the BLAS
thread pools pinned to one thread. With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; its timings are scaled by a reference
computation timed beside each op (see ``reference.py``). With ``--trace 1``
it makes passes over the inputs, each untraced and then traced, until
``--seconds`` is spent, reports the per-layer metrics per traced pass and
the tracing overhead, and writes the spans to ``bench/out/``. The last line
of stdout is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it hold the full report
(machine facts, the metrics that are not gated, the computed work counts).
Exit status is 0 when the run completes, whether or not every check passed.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import monotonic, perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from reference import REFERENCE_S, reference_seconds  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 7

#: Gated end-to-end metrics: (name, unit, better).
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Percentiles eligible for op_ms_tail, highest last.
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)

_PROBE = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}]({seed})
done = time.monotonic()
import reference
print(done, reference.reference_seconds(5))
"""


def load_package():
    """Import mpekit from this checkout's src/, or exit with an error."""
    if not (SRC / "mpekit" / "__init__.py").is_file():
        sys.exit(f"error: mpekit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import mpekit
    if Path(mpekit.__file__).resolve().parent != SRC / "mpekit":
        sys.exit(f"error: imported mpekit from {mpekit.__file__}, "
                 f"not from {SRC}")
    return mpekit


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" where it is not a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        child = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return child.stdout.strip() if child.returncode == 0 else "unknown"


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Time from spawning a fresh interpreter until it has imported mpekit
    and built the workload's inputs, and the reference time the fresh
    interpreter measured right after."""
    code = _PROBE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)
    start = monotonic()
    child = subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True, timeout=120)
    done, ref = child.stdout.split()[-2:]
    return float(done) - start, float(ref)


class Tally:
    """Op times, the reference time before each op, the input each op ran
    on, and the outcomes."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []
        self.keys: list[int] = []
        self.failed = 0
        self.certified = 0
        self.has_target = False

    @property
    def attempted(self) -> int:
        return len(self.times)

    def scaled(self) -> list[float]:
        """Op times scaled to the nominal reference speed."""
        return [t * REFERENCE_S / r for t, r in zip(self.times, self.refs)]

    def per_input(self) -> list[float]:
        """Each input's median scaled op time."""
        by_key: dict[int, list[float]] = {}
        for key, seconds in zip(self.keys, self.scaled()):
            by_key.setdefault(key, []).append(seconds)
        return [statistics.median(times) for times in by_key.values()]


def run_pass(workload, tally: Tally, tracer=None,
             reference: bool = False) -> None:
    """Time one op per input, checking each output outside the clock.
    With ``reference``, time the reference computation before each op.
    With a tracer, each op's spans carry the op's index in ``tally``."""
    for key, item in enumerate(workload.inputs):
        if reference:
            tally.refs.append(reference_seconds())
        if tracer is not None:
            tracer.op = tally.attempted
        start = perf_counter()
        try:
            output = workload.op(item)
            error = None
        except Exception:
            error = traceback.format_exc()
        tally.times.append(perf_counter() - start)
        tally.keys.append(key)
        if tracer is not None:
            tracer.op = None
        if error is None:
            try:
                certified = workload.check(item, output)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(error, file=sys.stderr)
            tally.failed += 1
        elif certified is not None:
            tally.has_target = True
            tally.certified += certified


def timed_passes(workload, seed: int, seconds: float
                 ) -> tuple[Tally, list[float]]:
    """At least two whole passes, stopping when the next would end after
    ``seconds``; and SETUP_PROBES setup times, taken between passes spread
    over the run so that a slow spell of the host skews few of them."""
    tally = Tally()
    setup = [setup_seconds(workload.name, seed)]
    busy = 0.0
    passes = 0
    while True:
        start = perf_counter()
        run_pass(workload, tally, reference=True)
        last = perf_counter() - start
        busy += last
        passes += 1
        if (len(setup) < SETUP_PROBES
                and busy >= len(setup) * seconds / SETUP_PROBES):
            setup.append(setup_seconds(workload.name, seed))
        if passes >= 2 and busy + last > seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds(workload.name, seed))
    return tally, setup


def tail(times_ms: list[float]) -> dict | None:
    """Highest listed percentile with at least 10 samples beyond it."""
    eligible = [p for p in TAIL_PERCENTILES
                if len(times_ms) * (100 - p) / 100 >= 10]
    if not eligible:
        return None
    p = eligible[-1]
    return {"value": float(np.percentile(times_ms, p)), "unit": "ms",
            "percentile": p, "samples": len(times_ms)}


def end_to_end(workload, seed: int, seconds: float):
    """Gated metrics from each input's median scaled op time; the raw
    figures over every op go in the details."""
    tally, setup = timed_passes(workload, seed, seconds)
    per_input = tally.per_input()
    passed = (tally.attempted - tally.failed) / tally.attempted
    scaled_ms = [t * 1e3 for t in tally.scaled()]
    raw_ms = [t * 1e3 for t in tally.times]
    metrics = {
        "ops_per_s": {"value": passed * len(per_input) / sum(per_input),
                      "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(per_input) * 1e3,
                      "unit": "ms"},
        "setup_s": {"value": statistics.median(
            t * REFERENCE_S / r for t, r in setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF)
                        .ru_maxrss / 1024.0, "unit": "MB"},
    }
    extra = {
        "op_ms_tail": tail(scaled_ms),
        "fail_frac": {"value": tally.failed / tally.attempted, "unit": "frac"},
        "certified_frac": ({"value": tally.certified / tally.attempted,
                            "unit": "frac"} if tally.has_target else None),
        "raw_ops_per_s": {"value": passed * tally.attempted / sum(tally.times),
                          "unit": "1/s"},
        "raw_op_ms_p50": {"value": statistics.median(raw_ms), "unit": "ms"},
        "raw_setup_s": {"value": statistics.median(t for t, _ in setup),
                        "unit": "s"},
        "reference_ms_p50": {"value": statistics.median(tally.refs) * 1e3,
                             "unit": "ms"},
        "reference_nominal_ms": REFERENCE_S * 1e3,
        "inputs": len(per_input),
        "ops": tally.attempted,
        "setup_samples": [{"raw_s": t, "reference_s": r} for t, r in setup],
    }
    return metrics, extra, tally.attempted, tally.failed


def traced(workload, seed: int, seconds: float):
    """Pairs of passes, untraced then traced, until the next pair would end
    after ``seconds`` (at least one pair); per-layer metrics per traced
    pass, so that counts repeat exactly whatever the pass count, and the
    overhead from the two. Alternating keeps slow drift in machine speed
    out of the overhead."""
    import tracing
    plain = Tally()
    spanned = Tally()
    tracer = tracing.Tracer()
    busy = 0.0
    passes = 0
    while True:
        start = perf_counter()
        run_pass(workload, plain)
        tracer.install()
        try:
            run_pass(workload, spanned, tracer)
        finally:
            tracer.uninstall()
        last = perf_counter() - start
        busy += last
        passes += 1
        if busy + last > seconds:
            break
    layer = tracer.layer_metrics(passes)
    layer["trace.overhead_frac"] = sum(spanned.times) / sum(plain.times) - 1
    layer["trace.ops"] = spanned.attempted
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in layer.items()}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    extra = {
        "passes": passes,
        "untraced_seconds": sum(plain.times),
        "traced_seconds": sum(spanned.times),
        "computed_counts": {name: layer[name] for name in tracing.COMPUTED},
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return (metrics, extra, plain.attempted + spanned.attempted,
            plain.failed + spanned.failed)


def run(workload, seed: int, seconds: float, trace_on: bool) -> dict:
    """Run one workload; ``result`` in the report is the line the benchmark
    prints last."""
    measure = traced if trace_on else end_to_end
    metrics, extra, attempted, failed = measure(workload, seed, seconds)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": trace_on, "machine": machine_facts(),
            "details": extra, "checks": workload.report(), "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    report = run(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({k: v for k, v in report.items() if k != "result"},
                     indent=1))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
