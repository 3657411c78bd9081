"""End-to-end simulator benchmark: one workload, timed from outside, checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cluster --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Each pass runs in a fresh process (``bench_pass.py``), so no earlier pass's
results are alive while it runs.  The first pass is a warm-up: it is checked
but not timed.  Passes then repeat until ``--seconds`` is used up.  Host
time is the mean over the timed passes and the event rate is total events
over total time: on a shared host the speed drifts between levels for
seconds at a time, and the mean of a run moved least from run to run (see
``perfbench/README.md``).  Memory is the median.  ``--trace 1``
interleaves traced and untraced passes and reports the per-layer metrics
instead (medians over the traced passes), with ``trace.overhead`` = traced /
untraced median pass wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
details (fingerprint, samples, host, source digest, the paper ratio and every
layer metric).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench_checks import combined_fingerprint, fingerprint_mismatches  # noqa: E402
from bench_pass import LAYER_METRICS, WORKLOADS  # noqa: E402

#: End-to-end metrics (host time): name -> (unit, better, bound).
#: Bounds: on the shared 2-vCPU build host, ten seeds spread host time by
#: 10-20% (interquartile range over median) and memory by under 3%.
E2E_METRICS: dict[str, tuple[str, str, float]] = {
    "e2e_wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "sim_events_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: Traced-run metric beside the layers: traced / untraced pass wall time.
TRACE_OVERHEAD = ("trace.overhead", "ratio", "lower")

MIN_PASSES = 2  # timed passes per kind, even when --seconds is short
DEADLINE_S = 150.0  # stop starting passes after this, whatever --seconds says
EXIT_BY_S = 170.0  # a pass still running then is killed and counted as failed


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the simulator's source files (names and contents)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_pass(workload: str, seed: int, traced: bool, out_dir: Path, index: int, timeout_s: float) -> dict:
    """One pass in a fresh process; a crashed or timed-out pass becomes one failed op."""
    command = [sys.executable, str(HERE / "bench_pass.py"), "--workload", workload,
               "--seed", str(seed), "--index", str(index)]
    if traced:
        command += ["--trace", "--out-dir", str(out_dir)]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout_s)
        if done.returncode != 0:
            raise RuntimeError(done.stderr.strip().splitlines()[-1] if done.stderr.strip() else
                               f"exit code {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as error:
        return {"traced": traced, "failed": True,
                "ops": [{"name": "pass", "fingerprint": "", "ok": False, "error": str(error)}]}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns ``(details, result)``."""
    started = time.monotonic()
    out_dir = ROOT / ".perfbench_out" / f"{workload}-seed{seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    def time_left() -> float:
        return max(1.0, EXIT_BY_S - (time.monotonic() - started))

    warmup = run_pass(workload, seed, False, out_dir, 0, time_left())
    passes = [warmup]
    timed: list[dict] = []
    durations: list[float] = []
    window = time.monotonic()
    while True:
        traced = trace and sum(p["traced"] for p in timed) <= sum(not p["traced"] for p in timed)
        begun = time.monotonic()
        record = run_pass(workload, seed, traced, out_dir, len(passes), time_left())
        durations.append(time.monotonic() - begun)
        passes.append(record)
        if record.get("failed"):
            break
        timed.append(record)
        kinds = (True, False) if trace else (False,)
        enough = all(sum(p["traced"] == kind for p in timed) >= MIN_PASSES for kind in kinds)
        now = time.monotonic()
        if now - started > DEADLINE_S or (enough and now - window + median(durations) > seconds):
            break

    reference = next((p["ops"] for p in passes if not p.get("failed")), [])
    failed = 0
    errors: list[str] = []
    mismatched: set[str] = set()
    for index, record in enumerate(passes):
        mismatches = set(fingerprint_mismatches(reference, record["ops"]))
        mismatched |= mismatches
        for op in record["ops"]:
            if not op["ok"] or op["name"] in mismatches:
                failed += 1
                errors.append(f"pass {index} op {op['name']}: "
                              + (op["error"] or "fingerprint differs from the first pass"))
    attempted = sum(len(record["ops"]) for record in passes)

    plain = [p for p in timed if not p["traced"]]
    samples = {
        "e2e_wall_s": [p["wall_s"] for p in plain],
        "setup_s": [p["setup_s"] for p in plain],
        "cpu_s": [p["cpu_s"] for p in plain],
        "sim_events_per_s": [p["logical_events"] / p["wall_s"] for p in plain if p["wall_s"] > 0],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    details: dict = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": {"warmup": 1, "timed": len(timed), "traced": sum(p["traced"] for p in timed)},
        "fingerprint": combined_fingerprint(reference),
        "fingerprint_mismatches": sorted(mismatched),
        "errors": errors[:20],
        "failed_ops_frac": failed / attempted if attempted else 1.0,
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(ROOT),
        "samples": samples,
    }
    for key in ("paper_ratio", "paper_ratio_err"):
        if key in warmup:
            details[key] = warmup[key]
    if trace:
        traced_passes = [p for p in timed if p["traced"]]
        layers = {name: median([p["layers"][name] for p in traced_passes]) for name in LAYER_METRICS}
        overhead = median([p["wall_s"] for p in traced_passes]) / max(median(samples["e2e_wall_s"]), 1e-9)
        details["layers"] = layers
        details["self_s"] = {
            name: median([p["self_s"].get(name, 0.0) for p in traced_passes])
            for name in sorted({name for p in traced_passes for name in p["self_s"]})
        }
        details["spans_dir"] = str(out_dir.relative_to(ROOT))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _better, in_result) in LAYER_METRICS.items() if in_result}
        metrics[TRACE_OVERHEAD[0]] = {"value": overhead, "unit": TRACE_OVERHEAD[1]}
    else:
        wall = sum(samples["e2e_wall_s"])
        values = {
            "e2e_wall_s": mean(samples["e2e_wall_s"]),
            "setup_s": mean(samples["setup_s"]),
            "cpu_s": mean(samples["cpu_s"]),
            "sim_events_per_s": sum(p["logical_events"] for p in plain) / wall if wall > 0 else 0.0,
            "peak_rss_mb": median(samples["peak_rss_mb"]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _b, _bd) in E2E_METRICS.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return details, result


def print_table(details: dict, result: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    print(f"# {details['workload']} seed={details['seed']} trace={details['trace']} "
          f"passes={details['passes']} fingerprint={details['fingerprint']}")
    if details["trace"]:
        rows = [(name, details["layers"][name], unit) for name, (unit, _b, _r) in LAYER_METRICS.items()]
        rows.append((TRACE_OVERHEAD[0], result["metrics"][TRACE_OVERHEAD[0]]["value"], TRACE_OVERHEAD[1]))
    else:
        rows = [(name, entry["value"], entry["unit"]) for name, entry in result["metrics"].items()]
        rows.append(("failed_ops_frac", details["failed_ops_frac"], "fraction"))
        rows.append(("paper_ratio_err", details.get("paper_ratio_err", "n/a"), "fraction"))
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
        print(f"  {name:<38} {shown:>14} {unit}")
    for error in details["errors"]:
        print(f"  ! {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0, help="timed window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {ROOT / 'src' / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        details, result = benchmark(workload, args.seed, args.seconds, bool(args.trace))
        print_table(details, result)
        print(json.dumps(details))
        results[workload] = result
    if len(results) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": entry for w, r in results.items() for name, entry in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
