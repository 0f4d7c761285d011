"""randmap benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the directory holding src/randmap and
BENCHMARK.json).  Workloads: montecarlo, exact, analytic, cli-cold (see
workloads.py).  The workload runs in a child process started here, so peak
memory and set-up time never mix between workloads.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json:
  setup_s           median over three fresh interpreters of `import randmap`
                    plus the workload's warm-up
  round_s           time of one round of the workload's fixed call mix
  throughput_per_s  the workload's headline rate: mappings analyzed (montecarlo),
                    mappings enumerated (exact), points evaluated (analytic),
                    commands completed (cli-cold), per second
  peak_rss_mb       peak resident memory of the measuring process (cli-cold:
                    of the largest CLI process)
Times are at a reference machine speed; see workloads.py for why and how.
--trace 1 prints the per-layer metrics instead, from spans recorded around
calls into each layer; the span dump lands in .perfbench/.

Every run also writes its full record (the workload's own named metrics, raw
times, provenance, failures) to .perfbench/ and prints the named metrics
before the result line.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3  # the worker's own set-up plus two set-up-only processes
DEADLINE_S = 170.0


def _child(cmd, root, timeout):
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{' '.join(cmd[1:4])}... timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    p = argparse.ArgumentParser(description="randmap benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json in {root}: {exc}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "randmap", "__init__.py")):
        print(f"no randmap source under {root}/src; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
              "--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                left = DEADLINE_S - (time.monotonic() - start)
                setups.append(_child(worker + ["--setup-only"], root, left)["setup_s"])
        left = DEADLINE_S - (time.monotonic() - start)
        run = worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run += ["--dump", os.path.join(out_dir, f"spans-{tag}.json.gz")]
        record = _child(run, root, left)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, kind = record["per_layer"], "per_layer"
    else:
        setups.append(record["setup_s"])
        record["setup_samples_s"] = setups
        values = dict(record["e2e"], setup_s=statistics.median(setups))
        kind = "end_to_end"
    metrics = {}
    for m in spec[kind]:
        if m["name"] not in values:
            print(f"metric {m['name']} missing from the {args.workload} record", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    record["result"] = result
    with open(os.path.join(out_dir, f"record-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} backend {record['provenance']['backend']} "
          f"rounds {record['rounds']} error_rate {record['error_rate']}")
    for name, value in record["named"].items():
        print(f"  {name} = {value}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
