"""One pass of a workload in a fresh interpreter; prints one JSON result line.

Started by run.py, never by hand.  The set-up time covers importing
bnseries.cli plus the workload's own preparation and ends when the first
request can be issued; interpreter start-up is not part of it.  Nothing else
is imported before the clock starts, so the import of the library's own
dependencies (json, argparse, fractions, ...) is counted.

usage: worker.py WORKLOAD SEED TRACE PASS_INDEX [--setup-only]
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402  (already loaded by interpreter start-up)
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(1, SRC)

import bnseries.cli  # noqa: E402

WORKLOAD = sys.argv[1]
if WORKLOAD == "oracle":
    for fixture in ("general", "torsion2"):
        bnseries.cli.load_fixture(fixture)
SETUP_S = time.perf_counter() - T0


def main():
    import json
    import resource

    if not os.path.abspath(bnseries.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"bnseries was imported from {bnseries.cli.__file__}, not from {SRC}")
    seed, traced, pass_index = int(sys.argv[2]), sys.argv[3] == "1", int(sys.argv[4])
    if "--setup-only" in sys.argv:
        print(json.dumps({"setup_s": SETUP_S}))
        return

    import spans
    import workloads

    stream = workloads.make_stream(WORKLOAD, seed)
    out_dir = os.path.join(ROOT, "perfbench", "out")
    prefix = os.path.join(out_dir, f"{WORKLOAD}-pass{pass_index}")
    env = {
        "python": sys.executable,
        "env": dict(os.environ),
        "child_script": os.path.join(ROOT, "perfbench", "cli_child.py"),
        "trace_prefix": prefix if traced and WORKLOAD == "cli" else None,
    }
    tracer = spans.Tracer() if traced and WORKLOAD != "cli" else None
    rec = workloads.Recorder(tracer)
    if tracer is not None:
        tracer.install()
    try:
        workloads.execute(WORKLOAD, stream, rec, env)
    finally:
        if tracer is not None:
            tracer.uninstall()
    who = resource.RUSAGE_CHILDREN if WORKLOAD == "cli" else resource.RUSAGE_SELF
    peak_rss_kb = resource.getrusage(who).ru_maxrss
    result = {
        "setup_s": SETUP_S,
        "latencies_ns": rec.latencies.tolist(),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "stream_digest": workloads.digest(workloads.dump(stream)),
        "output_digest": rec.output_digest(),
        "output_bytes": rec.output_bytes,
        "peak_rss_kb": peak_rss_kb,
    }
    if traced:
        if tracer is not None:
            tracer.write(prefix + ".spans")
            raw = tracer.raw()
        else:
            raw = {}
            for index in range(len(stream)):
                with open(f"{prefix}-req{index:03d}.json") as f:
                    spans.merge_raw(raw, json.load(f))
        result["layers"] = spans.layer_metrics(raw, rec.output_bytes)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
