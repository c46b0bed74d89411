"""Small-size self-test of the benchmark.

    python3 bench/selftest.py            (or: python3 -m pytest bench/selftest.py)

Checks that every metric named in BENCHMARK.json is printed with its unit on
every workload, with and without tracing; that a wrong program output and
output bytes that change between passes count as failed operations; and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work" / "selftest"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], capture_output=True, text=True,
        cwd=cwd, timeout=600,
    )


def _small(workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _in_process():
    for path in (str(ROOT / "src"), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import run
    import workloads

    return run, workloads


def test_every_metric_is_printed_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines = _small(workload["name"], trace)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == want
            for name, unit in want.items():
                assert isinstance(result["metrics"][name]["value"], (int, float))
                assert any(ln.startswith(f"  {name} = ") and ln.endswith(f" {unit}")
                           for ln in lines), (workload["name"], name)
            assert any(ln.startswith("failed_frac: 0 ") for ln in lines)


def test_wrong_output_raises_failed_frac():
    run, _ = _in_process()
    from foliata import cli

    original = cli.scan_csv
    # drop the last cell of every scan
    cli.scan_csv = lambda *a: original(*a).rsplit("\n", 2)[0] + "\n"
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "atlas", "--seed", "3", "--seconds", "0.1",
                             "--trace", "0", "--size", "small"])
    finally:
        cli.scan_csv = original
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert not result["correct"] and result["failed"] >= 3
    frac = next(ln for ln in lines if ln.startswith("failed_frac: "))
    assert float(frac.split()[1]) == result["failed"] / result["attempted"] > 0


def test_changing_bytes_count_as_failed():
    run, workloads = _in_process()
    WORK.mkdir(parents=True, exist_ok=True)
    target = WORK / "changing.txt"
    calls = []

    def call():
        calls.append(1)
        target.write_text(f"pass {len(calls)}\n")
        return 0

    runner = run.Runner([workloads.Op("changing", call, lambda rc: None, (target,))])
    runner.run_pass()
    assert runner.failed == 0
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (2, 1)


def test_refuses_to_run_without_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = _run(bare, "--workload", "atlas", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
    shutil.rmtree(bare)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
