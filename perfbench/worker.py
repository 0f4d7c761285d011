"""One workload in one fresh process; prints its record as the last stdout line.

    python3 perfbench/worker.py --root . --workload exact --seed 1 --seconds 15 --trace 0
    python3 perfbench/worker.py --root . --workload exact --seed 1 --setup-only

``--setup-only`` times a fresh ``import randmap`` plus the workload's warm-up
and exits.  An untraced run measures whole rounds for ``--seconds`` and at
least MIN_ROUNDS rounds.  A traced run measures ``--seconds / 2`` untraced,
then the same inputs for ``--seconds / 2`` with spans on, and reports the
per-layer metrics of the traced half, the traced/untraced ratio, the kernel
micro cases and the span dump.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before numpy or randmap load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


MIN_ROUNDS = 3  # every call is repeated at least this often in an untraced run
CAL_BRACKET = 30  # probe samples before and after the measured rounds and after set-up


def measure(workload, seconds, min_rounds=MIN_ROUNDS):
    """Closed loop of whole rounds until `seconds` have passed; (rounds, wall)."""
    rounds = []
    workload.calibrate(CAL_BRACKET)
    start = time.perf_counter()
    while True:
        rounds.append(workload.round(len(rounds)))
        wall = time.perf_counter() - start
        if wall >= seconds and len(rounds) >= min_rounds:
            workload.calibrate(CAL_BRACKET)
            return rounds, wall


def micro_cases(seed: int) -> dict:
    """batch_stats cost per row by n, and the 2-worker simulate efficiency."""
    import numpy as np

    from randmap import _kernels, mapping_sim

    rng = np.random.default_rng([seed, 2])
    rows_for = {5: 4000, 100: 2000, 1000: 400, 10_000: 40, 100_000: 4}
    out = {}
    for n, rows in rows_for.items():
        images = rng.integers(0, n, size=(rows, n), dtype=np.int64)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _kernels.batch_stats(images)
            best = min(best, time.perf_counter() - t0)
        out[f"kernels.batch_stats.us_per_row.n{n}"] = 1e6 * best / rows
    sim_seed = int(rng.integers(2**63))
    wall = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        mapping_sim.simulate(10_000, 200, seed=sim_seed, workers=workers)
        wall[workers] = time.perf_counter() - t0
    out["mapping_sim.parallel_eff_2w"] = wall[1] / (2.0 * wall[2])
    return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--dump", help="span dump path (traced runs)")
    args = p.parse_args(argv)

    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import randmap

    if os.path.dirname(os.path.dirname(os.path.abspath(randmap.__file__))) != src:
        print(f"randmap imported from {randmap.__file__}, not from {src}", file=sys.stderr)
        return 3

    import provenance
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    work = cls(args.seed, root)
    if tracer:
        tracer.install()
        setup_start = time.perf_counter()
        with tracer.span("bench.setup"):
            work.warm_up()
        setup_wall = time.perf_counter() - setup_start
        tracer.uninstall()
    else:
        work.warm_up()
    setup_raw_s = time.perf_counter() - T0
    setup_s = setup_raw_s * workloads.speed_factor(
        [workloads.calibration_sample() for _ in range(CAL_BRACKET)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance.provenance(root, args.seed),
        "items": cls.items,
    }
    if not tracer:
        rounds, wall = measure(work, args.seconds)
        rss = peak_rss_mb(children=args.workload == "cli-cold")
        work.finish()
        record.update(
            setup_s=setup_s,
            setup_raw_s=setup_raw_s,
            rounds=len(rounds),
            wall_s=wall,
            named=work.summarize(rounds),
            e2e=dict(work.end_to_end(rounds), peak_rss_mb=rss),
            e2e_raw=work.end_to_end(rounds, at_reference=False),
            probe_s={"mean": statistics.mean(work.cal), "min": min(work.cal),
                     "samples": len(work.cal), "reference": workloads.CAL_REF_S},
            calls=[[part, seq, [r[(part, seq)] for r in rounds]] for part, seq in rounds[0]],
            probe=list(zip(work.cal_at, work.cal)),
        )
        runs = [work]
    else:
        plain, _ = measure(work, args.seconds / 2.0, min_rounds=1)
        work.finish()
        traced_work = cls(args.seed, root, tracer)
        tracer.install()
        run_start = time.perf_counter()
        with tracer.span("bench.run"):
            traced, _ = measure(traced_work, args.seconds / 2.0, min_rounds=1)
        run_wall = time.perf_counter() - run_start
        tracer.uninstall()
        traced_work.finish()
        per_layer, absent = tracing.layer_metrics(tracer)
        per_layer["trace.wall_s"] = setup_wall + run_wall
        pairs = min(len(plain), len(traced))
        per_layer["trace.overhead_frac"] = (
            statistics.median(sum(r.values()) for r in traced[:pairs])
            / statistics.median(sum(r.values()) for r in plain[:pairs]) - 1.0
        )
        per_layer.update(micro_cases(args.seed))
        record.update(
            rounds=len(plain) + len(traced),
            named=traced_work.summarize(traced),
            per_layer=per_layer,
            absent=absent,
            caches=tracer.cache_stats(),
            spans=len(tracer.spans),
        )
        if args.dump:
            tracer.dump(args.dump, T0)
            record["span_dump"] = os.path.relpath(args.dump, root)
        runs = [work, traced_work]

    record["attempted"] = sum(w.attempted for w in runs)
    record["failed"] = sum(w.failed for w in runs)
    record["failures"] = [f for w in runs for f in w.failures][:20]
    record["error_rate"] = record["failed"] / max(record["attempted"], 1)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
