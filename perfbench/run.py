"""Fixed-seed benchmark of probdiar.

    python3 perfbench/run.py --workload train --seed 0 --seconds 45 --trace 0

Run from a source checkout: the package is imported from `src/` beside this
directory, with BLAS/OpenMP pinned to one thread.  The run sets the workload
up three times, then repeats whole rounds of the workload's operations until
the next round would pass `--seconds`, checking every output; a set-up under
0.1 s is also repeated between rounds (`setup_s` is the median).  With
`--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` the run sets up once under the tracer,
times untraced rounds for half of `--seconds`, traces exactly one round, and
reports the per-layer metrics plus the tracing overhead.  Each run also
writes its result, and a traced run its spans, under `perfbench/out/`.
Without probdiar's sources beside it, the run prints nothing to stdout and
exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-ups per run: SETUP_REPS before the first round; one shorter than
# SETUP_CHEAP_S is also repeated for SETUP_SLICE_S after every round, so that
# its median samples the whole run, whose speed drifts, not its first second
SETUP_REPS, SETUP_CHEAP_S, SETUP_SLICE_S = 3, 0.1, 0.15


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("train", "sweep", "long", "posterior"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced inputs, for the self-tests")
    return ap.parse_args(argv)


def import_probdiar():
    """Import probdiar from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "probdiar" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no probdiar sources in {src}")
    sys.path.insert(0, str(src))
    import probdiar
    if Path(probdiar.__file__).resolve().parent != src / "probdiar":
        raise SystemExit(f"perfbench: imported probdiar from {probdiar.__file__}, "
                         f"not from {src}")


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


class Tally:
    """Operations and checks attempted and failed."""

    def __init__(self):
        self.attempted = self.failed = 0

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: FAIL {p}", file=sys.stderr)


def measure(wl, seconds, tally, tracer=None, first=None, between=None):
    """Run whole rounds until the next one would end after `seconds` (at
    least one round).  Returns each round's per-operation seconds (None
    where the operation raised) and the first round's outputs.  The first
    round's outputs are checked; every later output must reproduce their
    fingerprints.  Pass `first` to compare every round against an earlier
    measurement instead, and `between` to call it between rounds."""
    rounds = []
    checked = first is not None
    first = first if checked else []
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        times = []
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.run = f"r{len(rounds)}.op{i}"
                root = tracer.open(f"bench.{wl.name}")
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception:
                out = None
                traceback.print_exc()
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(root)
            if not checked:
                first.append(out)
            if out is None:
                times.append(None)
                tally.record([f"{wl.name} op {i} raised"])
                continue
            times.append(dt)
            if not checked:
                tally.record(wl.check(i, out))
            elif first[i] is None:
                tally.record([f"{wl.name} op {i} raised in the first round only"])
            else:
                tally.record(wl.mismatches_first(i, out, first))
        rounds.append(times)
        checked = True
        now = time.perf_counter()
        if now - begin + (now - round_start) > seconds:
            return rounds, first
        if between is not None:
            between()


def fastest(rounds):
    """Each operation's fastest repetition over the rounds, or None when an
    operation never completed."""
    best = [min((t for t in col if t is not None), default=None) for col in zip(*rounds)]
    return None if None in best else best


def check_reference(wl, first, tally):
    """Compare the first round with the stored reference for this seed."""
    if wl.small or any(out is None for out in first):
        return "skipped"
    refs = json.loads((HERE / "refs.json").read_text())
    want = refs.get(wl.name, {}).get(str(wl.seed))
    if want is None:
        return "none stored for this seed"
    from workloads import mismatches
    problems = mismatches(wl.digest(first), want, wl.rtol, wl.atol, f"{wl.name} reference")
    tally.record(problems)
    return "mismatch" if problems else "match"


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_times, rounds):
    """setup_s: median set-up; op_ms: mean time of the operations that
    completed.  The host's speed swings by up to 1.5x in stretches of seconds
    to minutes; a mean over the whole run averages them, where a median or
    a minimum depends on the stretches a run happens to fall in."""
    ops = [t for r in rounds for t in r if t is not None]
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "op_ms": metric(1e3 * statistics.fmean(ops), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB"),
    }


def per_layer(tracer, probe, untraced_rounds, traced_round):
    from spans import LAYERS
    from workloads import BATCH
    by_name, self_s = tracer.summary()

    def get(name, k):
        return by_name.get(name, (0, 0.0, 0.0, 0, 0.0))[k]

    def calls(name):
        return get(name, 0)

    def secs(name):
        return get(name, 1)

    def value(name):
        return get(name, 2)

    steps = value("training.sample_octets") / BATCH
    merges = value("clustering.ahc_by_the_book")
    # one traced round against the median untraced round, per operation
    base = statistics.median(sum(r) for r in untraced_rounds if None not in r)
    overhead = (sum(traced_round) - base) / len(traced_round)
    base /= len(traced_round)
    m = {
        "partitions.fit_crp_s": metric(secs("partitions.fit_crp"), "s"),
        "partitions.build_tables_s": metric(secs("partitions.build_tables"), "s"),
        "partitions.n_partitions": metric(int(value("partitions.build_tables")), "count"),
        "extractor.generate_corpus_s": metric(secs("extractor.generate_corpus"), "s"),
        "extractor.extract_calls": metric(calls("extractor.extract"), "count"),
        "extractor.extract_s": metric(secs("extractor.extract"), "s"),
        "training.steps": metric(int(steps), "count"),
        "training.step_ms": metric(1e3 * get("training.train", 4) / steps if steps else 0.0,
                                   "ms"),
        "training.forward_ms": metric(probe.get("training.forward_ms", 0.0), "ms"),
        "training.heldout_s": metric(secs("training.cross_entropy"), "s"),
        "training.sample_s": metric(secs("training.sample_octets"), "s"),
        "plda.posterior_calls": metric(calls("plda.clustering_log_posterior"), "count"),
        "plda.posterior_s": metric(secs("plda.clustering_log_posterior"), "s"),
        "plda.subsets_scored": metric(int(value("plda.clustering_log_posterior")), "count"),
        "clustering.ahc_calls": metric(calls("clustering.ahc"), "count"),
        "clustering.ahc_book_s": metric(secs("clustering.ahc_by_the_book"), "s"),
        "clustering.ahc_baseline_s": metric(secs("clustering.ahc_baseline"), "s"),
        "clustering.merge_delta_calls": metric(calls("clustering.merge_delta"), "count"),
        "clustering.merges": metric(int(merges), "count"),
        "clustering.gains_per_merge": metric(
            calls("clustering.merge_delta") / merges if merges else 0.0, "ratio"),
        "clustering.calibration_s": metric(secs("clustering.unsupervised_calibration"), "s"),
        "clustering.calibration_fallbacks": metric(
            get("clustering.unsupervised_calibration", 3), "count"),
        "evalkit.der_calls": metric(calls("evalkit.der"), "count"),
        "evalkit.der_s": metric(secs("evalkit.der"), "s"),
        "evalkit.scored_s": metric(value("evalkit.der"), "s"),
        "pipeline.evaluate_calls": metric(calls("pipeline.evaluate"), "count"),
        "pipeline.evaluate_s": metric(secs("pipeline.evaluate"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(self_s[layer], "s")
    m["trace.spans"] = metric(len(tracer.spans), "count")
    m["trace.overhead_ms"] = metric(1e3 * overhead, "ms")
    m["trace.overhead_pct"] = metric(100 * overhead / base, "%")
    return m


def run(args):
    import workloads
    from spans import Tracer

    wl = workloads.BY_NAME[args.workload](args.seed, small=args.small)
    tally = Tally()
    report = []
    result = {"workload": wl.name, "seed": wl.seed, "seconds": args.seconds,
              "trace": args.trace, "small": args.small, "env": environment()}
    print(f"perfbench workload={wl.name} seed={wl.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(result["env"]))

    if args.trace:
        tracer = Tracer()
        tracer.run = "setup"
        tracer.install()
        try:
            wl.setup()
        finally:
            tracer.uninstall()
        untraced, first = measure(wl, args.seconds / 2, tally)
        tracer.install()
        try:
            (traced,), _ = measure(wl, 0.0, tally, tracer, first)
        finally:
            tracer.uninstall()
        metrics = {}
        if None not in traced and any(None not in r for r in untraced):
            metrics = per_layer(tracer, wl.probe(), untraced, traced)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl"
        tracer.write(spans_path, {"workload": wl.name, "seed": wl.seed})
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        setup_times = []

        def set_up():
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)

        def more_setups():
            if statistics.median(setup_times) < SETUP_CHEAP_S:
                end = time.perf_counter() + SETUP_SLICE_S
                while time.perf_counter() < end:
                    set_up()

        for _ in range(SETUP_REPS):
            set_up()
        more_setups()
        rounds, first = measure(wl, args.seconds, tally, between=more_setups)
        best = fastest(rounds)
        metrics = end_to_end(setup_times, rounds) if best else {}
        if best:
            report = wl.report(first, best)
        result.update(setup_seconds=setup_times, op_seconds=rounds)
    result["reference"] = check_reference(wl, first, tally)

    report.append(("error_rate", tally.failed / max(tally.attempted, 1), "fraction"))
    for name, val in sorted(metrics.items()):
        print(f"  {name:<34} {val['value']:>14.6g} {val['unit']}")
    for name, val, unit in report:
        print(f"  {name:<34} {val:>14.6g} {unit}")
    print(f"  checks: attempted={tally.attempted} failed={tally.failed} "
          f"reference={result['reference']}")
    final = {"correct": tally.failed == 0 and bool(metrics), "attempted": tally.attempted,
             "failed": tally.failed, "metrics": metrics}
    result.update(final, report={n: metric(v, u) for n, v, u in report})
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{wl.name}-seed{wl.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    print(json.dumps(final))
    return 0


def main(argv=None):
    args = parse_args(argv)
    import_probdiar()
    return run(args)


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.exit(main())
