"""sketchgs benchmark: one workload in one single-threaded process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/`. Set-up time is the median time to import the library in a fresh
interpreter (`IMPORT_REPEATS` tries) plus the median time of input generation
and sketch construction (`SETUP_REPEATS` tries). Then operations run one after another (a closed loop)
until the next one would end past `--seconds`, with at least `MIN_OPS`
operations so that outputs can be compared across repetitions.

With `--trace 0` the end-to-end metrics are measured. With `--trace 1`
operations alternate between untraced and traced with spans around the
library's public entry points (see spans.py), starting untraced; the
per-layer metrics come from the spans, and the tracing overhead is the median
traced minus the median untraced time.

Metric names and units are taken from BENCHMARK.json. Human-readable lines
come first; the last line of standard output is one JSON object. A record of
the run, with the environment it ran in, goes to perfbench/results/.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# Pin BLAS before numpy loads: thread count changes summation order, and
# the outputs are checked for bit-identity across repetitions.
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
IMPORT_REPEATS = 5
SETUP_REPEATS = 5
MIN_OPS = 2
NAMES = ("qr-paper", "gmres-ilu", "certify-rademacher", "qr-baselines")


@dataclass
class Operation:
    seconds: float
    traced: bool
    values: dict = field(default_factory=dict)
    digest: str | None = None
    error: str | None = None
    failures: list = field(default_factory=list)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _operation(wl, inputs, tracer=None, op_id=None, after_run=None):
    """Run, time and check one operation; an exception fails it.
    `after_run` is called once the operation ends, before its output is
    checked."""
    ctx = tracer if tracer is not None else contextlib.nullcontext()
    with ctx:
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        try:
            out = wl.run(inputs)
        except Exception as exc:  # a failed operation is counted, not fatal
            return Operation(time.perf_counter() - t0, tracer is not None,
                             error=f"{type(exc).__name__}: {exc}")
        finally:
            if after_run is not None:
                after_run()
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
    return Operation(seconds, tracer is not None, wl.evaluate(inputs, out),
                     wl.digest(out))


def import_seconds(src, repeats=IMPORT_REPEATS):
    """Median wall time to import sketchgs (numpy and scipy with it) in a
    fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import sketchgs; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True).stdout)
             for _ in range(repeats)]
    return statistics.median(times)


def measure(wl, seed, seconds, tracer=None, setup_repeats=SETUP_REPEATS,
            min_ops=MIN_OPS):
    """Set up `setup_repeats` times, then run operations for `seconds`.

    Returns the set-up times, the operations (each with its failed checks)
    and the peak resident memory in MiB over set-up and the first operation,
    read before any output check allocates. With a tracer, every second
    operation is traced, starting with the second.
    """
    setup_times = []
    inputs = None
    with tracer if tracer is not None else contextlib.nullcontext():
        for r in range(setup_repeats):
            inputs = None  # free the previous inputs before making new ones
            if tracer is not None:
                tracer.op = f"setup{r}"
            t0 = time.perf_counter()
            inputs = wl.setup(seed)
            setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.op = None
    peak = []
    start = time.perf_counter()
    ops = [_operation(wl, inputs, after_run=lambda: peak.append(_peak_rss_mb()))]
    while (len(ops) < min_ops
           or time.perf_counter() - start + ops[-1].seconds <= seconds):
        i = len(ops)
        ops.append(_operation(wl, inputs, tracer if i % 2 else None, i))
    judge(wl, ops)
    return setup_times, ops, peak[0]


def judge(wl, ops):
    """Mark each operation's failed checks: a value over its limit, an
    exception, or an output that differs from the majority's."""
    digests = Counter(op.digest for op in ops if op.error is None)
    common, count = digests.most_common(1)[0] if digests else (None, 0)
    reference = common if 2 * count > len(ops) else None
    for op in ops:
        if op.error is not None:
            op.failures = [op.error]
            continue
        op.failures = [f"{key}={op.values.get(key)!r} exceeds {limit!r}"
                       for key, limit in wl.limits.items()
                       if not op.values.get(key, float("nan")) <= limit]
        if op.digest != reference:
            op.failures.append("output differs from the other repetitions")


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    j = len(ordered) - 11
    return 100.0 * (j + 1) / len(ordered), ordered[j]


def _blas():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": None, "version": None}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_revision():
    """HEAD of the checkout's git repository, or None when it is not one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np
    import scipy
    import sketchgs
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sketchgs").glob("*.py")):
        src.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "sketchgs": sketchgs.__version__,
            "git_revision": _git_revision(), "source_sha256": src.hexdigest(),
            "blas": _blas(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
            "seed": seed}


def summarize(wl, args, spec, import_s, setup_times, ops, peak_rss_mb, tracer):
    """The result object and the run record."""
    attempted = len(ops)
    failed = sum(bool(op.failures) for op in ops)
    untraced = [op.seconds for op in ops if not op.traced]
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "import_s": import_s,
              "setup_times_s": setup_times, "limits": wl.limits,
              "operations": [op.__dict__ for op in ops],
              "fail_frac": failed / attempted, "peak_rss_mb": peak_rss_mb}
    if tracer is None:
        values = {"solve_s": statistics.median(untraced),
                  "setup_s": import_s + statistics.median(setup_times),
                  "peak_rss_mb": peak_rss_mb}
        record["solve_tail"] = tail(untraced)
        names = spec["end_to_end"]
    else:
        traced = {i: op.seconds for i, op in enumerate(ops) if op.traced}
        values = tracer.layer_metrics(
            traced, [f"setup{r}" for r in range(len(setup_times))])
        first = next(op.values for op in ops if op.traced)
        values.update({k: v for k, v in first.items() if k in spec["per_layer"]})
        if values["krylov.matvecs"]:
            values["krylov.krylov_matvec_frac"] = (values["krylov.iterations"]
                                                   / values["krylov.matvecs"])
        values["trace.solve_s"] = statistics.median(traced.values())
        values["trace.overhead_s"] = values["trace.solve_s"] - statistics.median(untraced)
        names = spec["per_layer"]
        record["spans"] = len(tracer.spans)
    # every declared metric is reported; a layer that does not run reads 0
    metrics = {name: {"value": values.get(name, 0), "unit": names[name]["unit"]}
               for name in names}
    record["metrics"] = metrics
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def report_lines(record):
    yield f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"
    untraced = [op["seconds"] for op in record["operations"] if not op["traced"]]
    for name, m in record["metrics"].items():
        line = f"  {name:40s} {m['value']:.6g} {m['unit']}"
        if name == "solve_s":
            t = record["solve_tail"]
            line += (f"  (median of {len(untraced)}; "
                     + (f"p{t[0]:.0f} {t[1]:.6g} s)" if t else
                        "tail percentile n/a: fewer than 11 samples)"))
        yield line
    failed = sum(bool(op["failures"]) for op in record["operations"])
    yield (f"  {'fail_frac':40s} {record['fail_frac']:.6g} 1  "
           f"({failed} of {len(record['operations'])} operations)")
    for i, op in enumerate(record["operations"]):
        for reason in op["failures"]:
            yield f"  operation {i} failed: {reason}"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    unpinned = {v: os.environ[v] for v in THREAD_VARS if os.environ[v] != "1"}
    if unpinned:
        print(f"refusing to run: BLAS thread variables must be 1, got {unpinned}",
              file=sys.stderr)
        return 2
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "sketchgs" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"refusing to run: {ROOT} is not a sketchgs source checkout "
              "(needs src/sketchgs and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    spec = {key: {m["name"]: m for m in spec[key]}
            for key in ("end_to_end", "per_layer")}

    import_s = None if args.trace else import_seconds(src)
    sys.path.insert(0, str(src))
    import workloads

    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make_workload(args.workload, out_dir)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    setup_times, ops, peak_rss_mb = measure(wl, args.seed, args.seconds, tracer)
    result, record = summarize(wl, args, spec, import_s, setup_times, ops,
                               peak_rss_mb, tracer)
    record["environment"] = environment(args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        with open(out_dir / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.records():
                fh.write(json.dumps(span) + "\n")
    for line in report_lines(record):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
