"""Self-check of the benchmark; kept out of the pytest run.

Usage (from the repository root): python3 perfbench/smoke.py

For each workload at its shortest length (--seconds 0: one iteration, or
one untraced and one traced iteration with --trace 1) it makes one
untraced and two traced runs, prints the end-to-end table of the untraced
run, and checks that:

- every run is correct (for a traced run this includes the check that the
  reported layer times cover the traced pretrain wall time);
- every end-to-end metric is printed with its unit, fail_rate included;
- the result lines carry exactly the metrics and units of BENCHMARK.json;
- the checkpoint digests of the three runs agree;
- the exact counts (trainer.steps, tensor.tape.records, *.calls) repeat
  exactly across the two traced runs.

Exits 1 with a message on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int) -> tuple[dict, dict, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"], done.stdout


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"smoke: {message}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        plain, plain_detail, text = run(workload, 0)
        traced = [run(workload, 1) for _ in range(2)]
        for result in [plain] + [r for r, _, _ in traced]:
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
            check(result["correct"] and result["failed"] == 0, f"{workload}: a correctness check failed")
        got = {name: m["unit"] for name, m in plain["metrics"].items()}
        check(got == end_to_end, f"{workload}: end-to-end metrics {got} != {end_to_end}")
        for name, unit in {**end_to_end, "fail_rate": "fraction"}.items():
            check(
                any(line.split()[:1] == [name] and line.split()[2] == unit for line in text.splitlines()),
                f"{workload}: {name} not printed with its unit {unit}",
            )
        check(plain_detail["fail_rate"]["unit"] == "fraction", f"{workload}: fail_rate unit")
        for result, _, _ in traced:
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == per_layer, f"{workload}: per-layer metrics differ from BENCHMARK.json")
        digests = {plain_detail["checkpoint_digest"]} | {d["checkpoint_digest"] for _, d, _ in traced}
        check(len(digests) == 1, f"{workload}: checkpoint digests differ: {digests}")
        a, b = (r["metrics"] for r, _, _ in traced)
        exact = [n for n in a if n in ("trainer.steps", "tensor.tape.records") or n.endswith(".calls")]
        moved = [n for n in exact if a[n]["value"] != b[n]["value"]]
        check(not moved, f"{workload}: exact counts moved between runs: {moved}")
        print(f"{workload}: ok ({len(exact)} exact counts, digest {digests.pop()})")
        for line in text.splitlines()[:-2]:  # the end-to-end table of the untraced run
            print(f"  {line}")


if __name__ == "__main__":
    main()
