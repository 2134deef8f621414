"""Time-to-solution benchmark for bregpcg.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) in this process: a closed loop with
one caller, one round after another, for at most about ``--seconds``
seconds: a round starts only while it is expected to end within them (but
there is always one round, and a traced run has one plain and one traced
round at least; a round is never cut).  Inputs come from ``--seed``.  After
every round the outputs are checked.

``--trace 0`` reports the end-to-end metrics.  Counts are exact and must
repeat in every round.  A time is a sum over the round's operations of each
operation's fastest sample over all the rounds (``workloads.best_times``
says why); the per-round figures are printed next to it.
``--trace 1`` alternates plain and traced rounds and reports the per-layer
metrics of the traced ones, plus the tracing overhead.

A human-readable report goes to standard output, followed by one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all`` runs
every workload in turn in this process, each followed by its JSON line.
The full record (the environment, every round, the checks) is written to
``perfbench/out/<workload>-seed<N>-trace<T>.json``, and a traced run's spans
to ``perfbench/out/<workload>-seed<N>-spans.jsonl``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import envinfo

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join("perfbench", "out")  # relative to ROOT, which the run works in
ROUND_BUDGET_S = 120  # no round starts that could end past this, so runs stay < 180 s
COVERAGE_TOL = 0.05  # traced self times must cover the traced wall time within 5%

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("cg_s", "s"),
    ("iterations", "count"),
    ("matvecs_S", "count"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
]
COUNTS = ("iterations", "matvecs_S")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(values):
    """(p, value) for the highest of p99.9/p99/p90/p50 with >= 10 samples beyond it."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(ordered) * (100.0 - p) / 100.0 >= 10:
            return p, ordered[math.ceil(p / 100.0 * len(ordered)) - 1]  # nearest rank
    return None


def fmt_tail(values) -> str:
    found = tail(values)
    return "-" if found is None else f"p{found[0]:g}={found[1]:.6g}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, seconds: float, trace: bool, tracer):
    """Plain rounds, and with ``trace`` traced rounds alternating with them.

    Returns (plain, traced, peak RSS in MiB through set-up and the first
    round).  Later rounds can raise the process peak through allocator
    reuse, which would tie the figure to the number of rounds.
    """
    plain, traced = [], []
    peak = None
    started = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        if trace and len(traced) < len(plain):
            tracer.reset()
            tracer.install()
            try:
                rnd = workload.run_round()
            finally:
                tracer.uninstall()
            traced.append((rnd, tracer.spans))
        else:
            plain.append(workload.run_round())
            peak = peak_rss_mb() if peak is None else peak
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if plain and (traced or not trace) and (
            elapsed + statistics.median(durations) > seconds
            or elapsed + max(durations) > ROUND_BUDGET_S
        ):
            return plain, traced, peak


def end_to_end(plain, peak):
    from workloads import times

    metrics = times(plain)
    for name in COUNTS:
        metrics[name] = getattr(plain[0], name)
    attempted = sum(r.attempted for r in plain)
    metrics["ok_frac"] = 1.0 - sum(r.failed for r in plain) / attempted
    metrics["peak_rss_mb"] = peak
    return metrics


def print_report(workload, env, plain, traced, e2e, layers, problems):
    print(f"workload   {workload.name}: {workload.why}")
    print(f"sizes      {json.dumps(workload.sizes())}")
    print(f"env        {json.dumps(env)}")
    print(f"loop       closed, 1 caller; {len(plain)} plain rounds, {len(traced)} traced")
    from workloads import TIMES, op_times, raw_seconds, times

    print("value      times: sums over operations of each one's median sample, in seconds at the"
          " probe's reference speed (calibration.py); raw: the same in measured seconds")
    print(f"{'metric':<13}{'unit':<7}{'value':>14}{'raw':>12}  {'per-round tail':<18}rounds")
    units = dict(END_TO_END)
    raw = times(plain, raw_seconds)
    per_round = [times([r]) for r in plain]
    for name, _ in END_TO_END:
        if name in TIMES:
            samples = [f[name] for f in per_round]
        elif name in COUNTS:
            samples = [getattr(r, name) for r in plain]
        else:
            samples = [e2e[name]]
        shown = f"{raw[name]:>12.6g}" if name in TIMES else f"{'':>12}"
        print(f"{name:<13}{units[name]:<7}{e2e[name]:>14.6g}{shown}  {fmt_tail(samples):<18}{len(samples)}")
    attempted = sum(r.attempted for r in plain)
    failed = sum(r.failed for r in plain)
    print(f"{'failed_frac':<13}{'ratio':<7}{failed / attempted:>14.6g}  "
          f"(base: {failed} of {attempted} operations; 1 - ok_frac)")
    print("operation latency (median over plain rounds: at reference speed, measured; tail measured):")
    normalised, measured = op_times(plain), op_times(plain, raw_seconds)
    for key, (_, in_wall, per_round, seconds) in normalised.items():
        if in_wall:
            values = [sample["s"] for r in plain for sample in r.ops.get(key, {"samples": ()})["samples"]]
            print(f"  {key:<34}x{per_round:<3}{seconds:>11.6g}{measured[key][3]:>11.6g}  {fmt_tail(values)}")
    for what in sorted({f for r in plain for f in r.failures}):
        print(f"program failure: {what}")
    for name, value in layers.items():
        print(f"layer      {name} = {value:.6g}")
    for what in problems:
        print(f"CHECK FAILED: {what}")


def prepare() -> None:
    """Process settings for a run; call before numpy is imported.

    One process: the library's own thread pool (BREGPCG_THREADS) is off and
    BLAS runs on one thread.  On a shared 2-core Xeon a second BLAS thread
    competed with the rest of the machine: four plain CG solves at n=40,000
    took 0.70-0.77 s with one thread and 1.0-1.06 s with two.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "bregpcg")):
        raise SystemExit(f"no library sources at {src}; run from a checkout of the repository")
    os.environ.pop("BREGPCG_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.chdir(ROOT)
    sys.path.insert(0, src)  # the checkout's sources, never an installed copy


def run_workload(args, workload_class) -> dict:
    """Run one workload, write its record, print its report; returns the result line."""
    import tracing
    from workloads import CLOCK, times

    workload = workload_class(args.seed, OUT_DIR)
    workload.warm_up()
    CLOCK.probe()  # the first probe pays scipy's first-call costs
    env = envinfo.record(ROOT)

    tracer = tracing.Tracer()
    plain, traced, peak = run_rounds(workload, args.seconds, bool(args.trace), tracer)

    problems = [p for r in plain for p in r.problems]
    problems += [p for r, _ in traced for p in r.problems]
    every = plain + [r for r, _ in traced]
    for name in COUNTS:
        seen = sorted({getattr(r, name) for r in every})
        if len(seen) > 1:
            problems.append(f"{name} differs between rounds: {seen}")

    e2e = end_to_end(plain, peak)
    layers = {}
    if traced:
        per_round = []
        for rnd, spans in traced:
            figures, mismatches = tracing.layer_metrics(spans, rnd.elapsed_s)
            problems += mismatches
            if abs(figures["trace.coverage"] - 1.0) > COVERAGE_TOL:
                problems.append(f"trace coverage {figures['trace.coverage']:.4f} is outside 1 +- {COVERAGE_TOL}")
            per_round.append(figures)
        for name, _ in tracing.PER_LAYER:
            if name != "trace.overhead_frac":
                layers[name] = statistics.median(f[name] for f in per_round)
        # both normalised (workloads.times), from rounds taken in turns
        traced_wall = times([r for r, _ in traced])["wall_s"]
        layers["trace.overhead_frac"] = (traced_wall - e2e["wall_s"]) / e2e["wall_s"]

    print_report(workload, env, plain, [r for r, _ in traced], e2e, layers, problems)

    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}")
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "args": vars(args),
                "env": env,
                "sizes": workload.sizes(),
                "rounds": [vars(r) for r in plain],
                "traced_rounds": [vars(r) for r, _ in traced],
                "end_to_end": e2e,
                "per_layer": layers,
                "problems": problems,
            },
            handle,
            indent=1,
        )
    if traced:
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for index, (_, spans) in enumerate(traced):
                for span in spans:
                    handle.write(json.dumps({"round": index, **span.as_dict()}) + "\n")

    if args.trace:
        units = dict(tracing.PER_LAYER)
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    else:
        units = dict(END_TO_END)
        metrics = {name: {"value": e2e[name], "unit": units[name]} for name, _ in END_TO_END}
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in names:
        print(json.dumps(run_workload(args, WORKLOADS[name])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
