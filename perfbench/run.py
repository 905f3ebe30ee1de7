"""bnseries benchmark: the command BENCHMARK.json names.

usage: python3 perfbench/run.py --workload {sweep,strata,oracle,cli}
                                --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
``src`` directory.  Each pass over the workload's seeded request stream runs
in a fresh interpreter (perfbench/worker.py), so the oracle's histogram cache
and the field cache start cold in every pass.  Passes repeat until --seconds
have passed; one request is in flight at a time (closed loop, one client).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones, plus the
tracing overhead.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a JSON summary
(sample counts, error rate, digests, Python version, CPU count), which is also
written to perfbench/out/<workload>.result.json.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep", "strata", "oracle", "cli")
SETUP_SAMPLES = 7
DEADLINE_S = 170  # a run must end within 180 s, whatever the passes cost

# Interpreter settings that would change the work measured.  Bytecode writing
# stays on so every fresh interpreter imports cached bytecode, as an installed
# package does; output buffering is the interpreter's default.
DROPPED_ENV = (
    "PYTHONDONTWRITEBYTECODE",
    "PYTHONUNBUFFERED",
    "PYTHONOPTIMIZE",
    "PYTHONDEVMODE",
    "PYTHONMALLOC",
    "PYTHONWARNINGS",
    "PYTHONPROFILEIMPORTTIME",
    "PYTHONTRACEMALLOC",
    "PYTHONINSPECT",
    "PYTHONVERBOSE",
)

METRIC_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "requests/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def child_env():
    """Environment of every process the benchmark starts.

    BN_* settings (BN_ENUM_BUDGET, BN_LOG, ...) are removed so an inherited
    value cannot change the work; the hash seed is fixed.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("BN_") and k not in DROPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, env, timeout):
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        args, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args[1:]} did not finish within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{args[1:]} exited with {proc.returncode}: {err.strip()[-2000:]}")
    return out


def run_worker(env, deadline, workload, seed, traced, index, setup_only=False):
    args = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(int(traced)), str(index)]
    if setup_only:
        args.append("--setup-only")
    out = spawn(args, env, deadline - time.perf_counter())
    return json.loads(out.strip().splitlines()[-1])


def consistency_problems(passes):
    """Every pass ran the same stream and must give the same outputs and counts."""
    problems = []
    first = passes[0][1]
    for key in ("stream_digest", "output_digest", "output_bytes", "attempted"):
        if any(result[key] != first[key] for _, result in passes):
            problems.append(f"{key} differs between passes")
    traced = [result["layers"] for is_traced, result in passes if is_traced]
    if traced:
        for name in spans.COUNTS:
            if any(layers[name] != traced[0][name] for layers in traced):
                problems.append(f"per-layer count {name} differs between traced passes")
    return problems


def end_to_end(untraced, setups):
    latencies = [ns for result in untraced for ns in result["latencies_ns"]]
    values = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": len(latencies) / (sum(latencies) / 1e9),
        "latency_p50_ms": statistics.median(latencies) / 1e6,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] / 1e6,
        "peak_rss_mb": statistics.median(result["peak_rss_kb"] for result in untraced) / 1024,
    }
    samples = {
        "setup_s": len(setups),
        "throughput_per_s": len(latencies),
        "latency_p50_ms": len(latencies),
        "latency_p90_ms": len(latencies),
        "peak_rss_mb": len(untraced),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in METRIC_UNITS.items()}
    return metrics, samples


def per_layer(untraced, traced):
    metrics = {}
    for name, unit in spans.METRICS.items():
        if name == "trace.overhead_ratio":
            wall = statistics.median(sum(r["latencies_ns"]) for r in traced)
            value = wall / statistics.median(sum(r["latencies_ns"]) for r in untraced)
        elif name in spans.COUNTS:
            value = traced[0]["layers"][name]
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    samples = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
    return metrics, samples


def main():
    parser = argparse.ArgumentParser(description="bnseries benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "bnseries", "cli.py")):
        sys.exit(f"error: no bnseries sources under {SRC}; run from a source checkout")
    if not 1 <= args.seconds <= 60:
        sys.exit("error: --seconds must be between 1 and 60")

    deadline = time.perf_counter() + DEADLINE_S
    env = child_env()
    os.makedirs(OUT, exist_ok=True)
    for name in os.listdir(OUT):
        if name.startswith((f"{args.workload}-", f"{args.workload}.")):
            os.remove(os.path.join(OUT, name))
    # Untimed: compiles bytecode in a fresh checkout before anything is measured.
    spawn([sys.executable, "-c", "import bnseries.cli"], env, deadline - time.perf_counter())

    # Passes repeat while at least half of one more pass fits in --seconds.
    # Untraced runs add one set-up probe after each pass, so set-up samples
    # spread over the run, and top them up to SETUP_SAMPLES at the end.
    start = time.perf_counter()
    passes = []
    setups = []

    def probe_setup():
        probe = run_worker(env, deadline, args.workload, args.seed, False, 0, setup_only=True)
        setups.append(probe["setup_s"])

    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        result = run_worker(env, deadline, args.workload, args.seed, traced, len(passes))
        passes.append((traced, result))
        if not args.trace:
            setups.append(result["setup_s"])
            probe_setup()
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / len(passes)) >= args.seconds and (not args.trace or len(passes) >= 2):
            break
    untraced = [result for is_traced, result in passes if not is_traced]
    traced = [result for is_traced, result in passes if is_traced]
    if args.trace:
        metrics, samples = per_layer(untraced, traced)
    else:
        while len(setups) < SETUP_SAMPLES:
            probe_setup()
        metrics, samples = end_to_end(untraced, setups)

    attempted = sum(result["attempted"] for _, result in passes)
    failed = sum(result["failed"] for _, result in passes)
    problems = consistency_problems(passes) + [f for _, r in passes for f in r["failures"]]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "requests_per_pass": passes[0][1]["attempted"],
        "samples": samples,
        "error_rate": failed / attempted,
        "problems": problems[:10],
        "stream_digest": passes[0][1]["stream_digest"],
        "output_digest": passes[0][1]["output_digest"],
        "output_bytes": passes[0][1]["output_bytes"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{args.workload}.result.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print(json.dumps({"summary": {k: v for k, v in summary.items() if k != "metrics"}}))
    result = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        sys.exit(f"error: {exc}")
