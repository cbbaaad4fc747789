"""Self-test of the benchmark harness at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

For every workload it checks that a clean run reports error_rate 0 and every
metric of BENCHMARK.json by name with its unit, that a run with one injected
wrong answer reports error_rate > 0, that a run examining no operation is
refused, and that run.py fails without a result where the program's sources
are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(*args: str, cwd: str = ROOT, script: str = os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def check_run(spec: dict, workload: str, trace: int, inject: bool) -> None:
    args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--sizes", "tiny"] + (["--inject"] if inject else [])
    code, result, err = bench(*args)
    assert code == 0 and result is not None, f"{args}: exit {code}\n{err}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1
    error_rate = result["failed"] / result["attempted"]
    if inject:
        assert error_rate > 0 and not result["correct"], f"{workload}: fault not caught"
    else:
        assert error_rate == 0 and result["correct"], f"{workload}: {err}"
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{workload} trace={trace}: metric names or units differ"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    print(f"ok  {workload:12s} trace={trace} inject={inject} "
          f"error_rate={error_rate:.4f} ({result['failed']}/{result['attempted']})")


def check_zero_operations() -> None:
    args = SimpleNamespace(trace=0)
    idle = {"attempted": 0, "failed": {}, "first_error": None}
    try:
        run.summarize(args, {"end_to_end": []}, [0.1], [idle], [])
    except run.HarnessError:
        print("ok  a run that examined no operation is refused")
        return
    raise AssertionError("a run with zero operations passed")


def check_missing_program() -> None:
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md", ".json")):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    try:
        code, result, _ = bench("--workload", "census", "--seed", "0", "--seconds", "1",
                                "--trace", "0", cwd=bare,
                                script=os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and result is None, "run.py produced a result without the program"
    print(f"ok  without the program's sources run.py exits {code} and prints no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        check_run(spec, w["name"], 0, inject=False)
        check_run(spec, w["name"], 1, inject=False)
        check_run(spec, w["name"], 0, inject=True)
    check_zero_operations()
    check_missing_program()
    print("harness self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
