"""Benchmark of the foliata pipeline (moduli -> profile -> field -> shiffman -> immersion).

Run from the root of a source checkout:

    python3 bench/run.py --workload atlas --seed 1 --seconds 12 --trace 0

One client in one process runs passes of the workload back to back (a
closed loop) for ``--seconds``, with FOLIATA_THREADS unset.  Every output is
checked; an operation fails on an unexpected exit code, an exception, a
failed check, or output bytes that differ from the first pass for the same
argv.  A human-readable report is printed first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Fresh interpreters that measure set-up, after one discarded warm-up.
SETUP_RUNS = {"full": 5, "small": 2}

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import foliata.cli
rc = foliata.cli.main(["classify", "--c0", "-1", "--c", sys.argv[2], "--d", sys.argv[3],
                       "--out", sys.argv[4]])
print(rc, time.perf_counter() - t0)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True, help="non-negative input seed")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SETUP_RUNS), default="full",
                   help="grid sizes; 'small' is for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy
    from foliata import moduli

    # the pool size that an unset FOLIATA_THREADS resolves to, when the
    # program still has a pool
    threads = moduli.worker_count() if hasattr(moduli, "worker_count") else None
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "scan_threads": threads,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


class Runner:
    """Runs passes of one workload and keeps the failure tally."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, list[str]] = {}
        self.op_times: dict[str, list[float]] = {op.name: [] for op in ops}
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0

    def fail(self, name: str, exc: Exception) -> None:
        from workloads import CheckFailed

        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, CheckFailed):
                traceback.print_exception(exc, file=sys.stderr)

    def run_pass(self, traced: bool = False) -> float:
        """Run every operation, then check them in order; return the timed total.

        ``peak_rss_mb`` is read after the operations and before the checks.
        """
        results = []
        elapsed = 0.0
        if traced:
            self.tracer.enabled = True
        try:
            for op in self.ops:
                t0 = time.perf_counter()
                try:
                    out, err = op.call(), None
                except Exception as exc:  # an operation that raises counts as failed
                    out, err = None, exc
                dt = time.perf_counter() - t0
                elapsed += dt
                if not traced:
                    self.op_times[op.name].append(dt)
                results.append((op, out, err))
        finally:
            if traced:
                self.tracer.enabled = False
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for op, out, err in results:
            self.attempted += 1
            if err is not None:
                self.fail(op.name, err)
                continue
            try:
                op.check(out)
                self._check_bytes(op)
                if traced:
                    self.tracer.add("cli.bytes_out", sum(f.stat().st_size for f in op.files))
            except Exception as exc:  # any error while checking is a wrong output
                self.fail(op.name, exc)
        return elapsed

    def _check_bytes(self, op) -> None:
        from workloads import CheckFailed

        digest = [hashlib.sha256(f.read_bytes()).hexdigest() for f in op.files]
        first = self.digests.setdefault(op.name, digest)
        if digest != first:
            raise CheckFailed("output bytes differ from the first pass for identical argv")


def measure_setup(runner: Runner, work: Path, seed: int, count: int) -> list[float]:
    """Cold start: ``import foliata.cli`` plus one classify, in fresh interpreters."""
    import numpy as np
    from workloads import CheckFailed

    rng = np.random.default_rng([seed, 0])
    times = []
    for k in range(count + 1):
        c, d = -1.0 + rng.uniform(-0.1, 0.1), -1.0 + rng.uniform(-0.1, 0.1)
        out = work / f"classify_{k}.json"
        proc = subprocess.run(
            [sys.executable, "-s", "-c", SETUP_CHILD, str(SRC), repr(c), repr(d), str(out)],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        runner.attempted += 1
        try:
            rc, seconds = proc.stdout.split()
            label = json.loads(out.read_text())["label"]
        except (ValueError, OSError, KeyError) as exc:
            runner.fail("set-up process", CheckFailed(f"{exc}: {proc.stderr.strip()[-300:]}"))
            continue
        if proc.returncode != 0 or rc != "0" or label != "RiemannFamilyH2":
            runner.fail("set-up process",
                        CheckFailed(f"exit {proc.returncode}/{rc}, label {label}"))
            continue
        if k > 0:
            times.append(float(seconds))
    return times


def timed_passes(runner: Runner, seconds: float) -> list[float]:
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(runner.run_pass())
    return times


def report(lines: list[str]) -> None:
    for line in lines:
        print(line)
    sys.stdout.flush()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "foliata" / "__init__.py").is_file():
        print(f"error: no foliata sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("FOLIATA_THREADS", None)
    sys.path.insert(0, str(SRC))
    import foliata

    if Path(foliata.__file__).resolve().parent != (SRC / "foliata").resolve():
        print(f"error: imported foliata from {foliata.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    size = workloads.SIZES[args.size]

    scratch = ROOT / ".bench_work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = environment()
        ops = workloads.WORKLOADS[args.workload](args.seed, size, work)
        tracer = spans.Tracer()
        runner = Runner(ops, tracer)
        lines = [
            f"foliata benchmark: workload={args.workload} seed={args.seed} "
            f"size={args.size} seconds={args.seconds:g} trace={args.trace}",
            "env: " + " ".join(f"{k}={v}" for k, v in env.items()),
            "why: " + next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        ]
        if args.trace == 0:
            metrics, more = end_to_end(runner, args, work)
            wanted = spec["end_to_end"]
        else:
            metrics, more = per_layer(runner, tracer, args, scratch, env)
            wanted = spec["per_layer"]
        lines += more
        lines.append(f"metrics ({'per layer' if args.trace else 'end to end'}):")
        lines += [f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}" for m in wanted]
        lines.append(f"failed_frac: {runner.failed / max(1, runner.attempted):.6g} ratio "
                     f"[{runner.failed} of {runner.attempted} operations failed]")
        for what in runner.failures:
            lines.append(f"  FAILED {what}")
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted},
        }
        report(lines)
        print(json.dumps(result))
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(runner: Runner, args, work: Path):
    setup = measure_setup(runner, work, args.seed, SETUP_RUNS[args.size])
    runner.run_pass()
    peak_rss_mb = runner.peak_rss_mb
    if not setup:
        raise RuntimeError("no set-up process succeeded: " + "; ".join(runner.failures))
    for times in runner.op_times.values():
        times.clear()
    passes = timed_passes(runner, args.seconds)
    q1, med, q3 = quartiles(passes)
    s1, setup_med, s3 = quartiles(setup)
    metrics = {"pass_s": med, "setup_s": setup_med, "peak_rss_mb": peak_rss_mb}
    lines = [
        f"pass_s: median {med:.4f} s, quartiles {q1:.4f} / {q3:.4f}, n={len(passes)} passes",
        f"setup_s: median {setup_med:.4f} s, quartiles {s1:.4f} / {s3:.4f}, "
        f"n={len(setup)} fresh interpreters after 1 discarded",
        f"peak_rss_mb: {peak_rss_mb:.1f} MB (fresh process after one pass)",
        "operations (median s over timed passes):",
    ]
    lines += [f"  {statistics.median(t):9.4f}  {name}" for name, t in runner.op_times.items()]
    return metrics, lines


def per_layer(runner: Runner, tracer, args, scratch: Path, env: dict):
    import spans as tracing

    runner.run_pass()
    # untraced and traced passes alternate, so that drift in machine speed
    # falls on both sides of the overhead estimate
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(runner.run_pass())
        tracer.pass_id = len(traced) + 1
        remove = tracing.install(tracer)
        try:
            traced.append(runner.run_pass(traced=True))
        finally:
            remove()
    per_pass = [tracing.layer_metrics(tracer.pass_summary(i + 1)) for i in range(len(traced))]
    metrics = tracing.median_metrics(per_pass)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = overhead
    out = scratch / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "env": env,
        "fields": ["name", "start", "end", "parent", "pass"],
        "spans": tracer.spans,
    }), encoding="utf-8")
    lines = [
        f"untraced pass_s median {statistics.median(plain):.4f} s (n={len(plain)}), "
        f"traced {statistics.median(traced):.4f} s (n={len(traced)}), "
        f"overhead {overhead:+.4f} s",
        f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}",
    ]
    return metrics, lines


if __name__ == "__main__":
    sys.exit(main())
