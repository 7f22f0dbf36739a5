"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload homology-scaling --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  Their times are in reference seconds (see ``reference.py``): each
operation and each set-up is bracketed by a fixed reference kernel, so that
the host's changing speed cancels out; the wall times are printed beside
them.  With ``--trace 1`` it alternates each operation untraced and traced,
reports the per-layer metrics from the traced spans (in wall seconds), the
tracing overhead, and run context, and writes the spans to
``.bench_work/``.  The last line of standard output is one JSON object; the
lines before it are for people.
Metric names and units come from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  Below eleven samples the
    smallest value is the best available and fewer than ten lie beyond it.
    """
    xs = sorted(latencies)
    i = max(len(xs) - 11, 0)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so that the reference
    kernel and the work it scales see the same processor."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def set_up(setups, name, seed, small, tracer, clock=None):
    """Set the workload up SETUP_REPS times; the median is setup_s.

    With a clock, setup_s is in reference seconds; otherwise in wall
    seconds.  Returns (workload, setup_s, wall setup_s).
    """
    clock = clock or WallClock()
    times, walls = [], []
    for _ in range(SETUP_REPS):
        wl, wall, ref = clock.time(lambda: setups[name](seed, ROOT, small, tracer))
        times.append(ref)
        walls.append(wall)
    setup_s, setup_wall = statistics.median(times), statistics.median(walls)
    for step in wl.warmup:
        _, wall, ref = clock.time(step)
        setup_s += ref
        setup_wall += wall
    return wl, setup_s, setup_wall


class WallClock:
    """Times calls in wall seconds, for runs that are not normalised."""

    def time(self, fn):
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        return out, wall, wall


def run_op(op, tracer, failures):
    """Run one operation; returns (ok, result).  Failures are recorded."""
    try:
        return True, op.run(tracer)
    except Exception as e:  # the loop must go on: every failure is counted
        failures.append(f"{op.kind} {op.label}: {type(e).__name__}: {e}")
        return False, None


def measure(wl, seconds, null, clock=None):
    """Closed loop over whole rounds until the budget is spent.

    Every round visits each input once, so the latency sample and the
    throughput always hold whole rounds; the last round may end past the
    budget.  Latencies are in the clock's seconds, and throughput is the
    verified operations over the sum of those latencies.
    """
    clock = clock or WallClock()
    latencies, walls, failures = [], [], []
    ok_count = 0
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for op in wl.round(r):
            (ok, _), wall, ref = clock.time(lambda: run_op(op, null, failures))
            latencies.append(ref)
            walls.append(wall)
            ok_count += ok
        r += 1
    return {
        "latencies": latencies,
        "walls": walls,
        "failures": failures,
        "ops_per_s": ok_count / sum(latencies),
        "wall_ops_per_s": ok_count / sum(walls),
        "rounds": r,
    }


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(wl, seconds, setup, null, clock):
    setup_s, setup_wall = setup
    m = measure(wl, seconds, null, clock)
    lat, walls = m["latencies"], m["walls"]
    tail_value, tail_pct, beyond = tail(lat)
    attempted, failed = len(lat), len(m["failures"])
    values = {
        "ops_per_s": m["ops_per_s"],
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_tail_ms": 1000.0 * tail_value,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(wl.name == "cli-cold"),
        "error_rate": failed / attempted,
    }
    notes = {
        "ops_per_s": f"verified ops over {m['rounds']} whole rounds; "
        f"wall {m['wall_ops_per_s']:.4g}",
        "op_p50_ms": f"wall {1000.0 * statistics.median(walls):.4g}",
        "op_tail_ms": f"p{tail_pct:.1f} of {len(lat)} samples, {beyond} beyond; "
        f"wall {1000.0 * tail(walls)[0]:.4g}",
        "setup_s": f"median of {SETUP_REPS} set-ups"
        + (" plus one warm-up pass" if wl.warmup else "") + f"; wall {setup_wall:.4g}",
        "peak_rss_mb": "largest child" if wl.name == "cli-cold" else "this process",
        "error_rate": f"{failed} failed of {attempted}",
    }
    return values, notes, attempted, m["failures"]


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def traced_ops(wl, tracer, null, failures, seconds, tag, pairs):
    """Whole rounds of each op untraced, then traced with its probe.

    Appends (untraced, traced) op seconds to ``pairs`` and returns the
    number of ops attempted.  ``seconds=None`` runs one round.
    """
    attempted = 0
    start = time.perf_counter()
    r = 0
    while r == 0 or (seconds is not None and time.perf_counter() - start < seconds):
        for i, op in enumerate(wl.round(r)):
            t0 = time.perf_counter()
            run_op(op, null, failures)
            untraced = time.perf_counter() - t0
            tracer.begin_op(f"{tag}:{r}:{i}")
            t0 = time.perf_counter()
            with tracer.span("op." + op.kind):
                ok, result = run_op(op, tracer, failures)
            traced = time.perf_counter() - t0
            attempted += 2
            if ok and wl.probe is not None:
                with tracer.span("probe"):
                    wl.probe(result, tracer)
            pairs.append((untraced, traced))
        r += 1
    return attempted


def layer_metrics(tracer, spec, census_prefix="census:"):
    """Per-op layer self times and counts.

    A metric comes from the workload's own spans where the workload calls
    that layer.  Otherwise it comes from the census: one round of every
    other workload at its smallest size, traced after the timed loop, so
    that every traced run reports every metric.  Read a census value only
    as a sign that the layer runs, not as this workload's number.
    """
    selfs = tracer.self_times()
    own = {"ops": 0, "time": {}, "count": {}}
    census = {"ops": 0, "time": {}, "count": {}}
    setup_time = {}
    for s in tracer.spans:
        if s.op == "setup":
            setup_time[s.name] = setup_time.get(s.name, 0.0) + selfs[s.sid]
            continue
        bucket = census if (s.op or "").startswith(census_prefix) else own
        if s.name.startswith("op."):
            bucket["ops"] += 1
        elif s.name != "probe":
            bucket["time"][s.name] = bucket["time"].get(s.name, 0.0) + selfs[s.sid]
        for k, v in s.counts.items():
            bucket["count"][k] = bucket["count"].get(k, 0) + v

    def per_op(bucket, kind, key):
        return bucket[kind][key] / bucket["ops"] if bucket["ops"] else 0.0

    def value(kind, key):
        if key in own[kind]:
            return per_op(own, kind, key), "workload"
        if key in census[kind]:
            return per_op(census, kind, key), "census"
        return 0.0, "absent"

    out, source = {}, {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "complexes.subdivide_s":  # seconds per set-up, not per op
            if "complexes.subdivide" in setup_time:
                v, src = setup_time["complexes.subdivide"] / SETUP_REPS, "workload"
            else:
                v = census["time"].get("complexes.subdivide", 0.0)
                src = "census" if v else "absent"
        elif name == "gf2.pivot_ratio":
            bucket = own if "gf2.cols" in own["count"] else census
            cols = bucket["count"].get("gf2.cols", 0)
            v = bucket["count"].get("gf2.rank", 0) / cols if cols else 0.0
            src = "absent" if not cols else ("workload" if bucket is own else "census")
        elif name == "cli.import_s":
            imp, src = value("time", "cli.import")
            interp, _ = value("time", "cli.interp")
            v = imp - interp
        elif name == "trace.overhead_ms":
            continue
        elif metric["unit"] == "s":
            v, src = value("time", name[:-2])
        else:
            v, src = value("count", name)
        out[name], source[name] = v, src
    return out, source, own


def traced_run(setups, name, seed, seconds, spec):
    from spans import NullTracer, Tracer

    tracer, null = Tracer(), NullTracer()
    tracer.begin_op("setup")
    wl, setup_s, _ = set_up(setups, name, seed, False, tracer)
    failures, pairs = [], []
    attempted = traced_ops(wl, tracer, null, failures, seconds, "op", pairs)
    extra = {}
    if name == "homology-scaling":
        import workloads

        tracer.begin_op("scale")
        extra["scaling_table"] = workloads.scaling_table(tracer)
    for other in setups:
        if other != name:
            tracer.begin_op(f"census:{other}:setup")
            small = setups[other](seed, ROOT, True, tracer)
            attempted += traced_ops(small, tracer, null, failures, None,
                                    f"census:{other}", [])
    metrics, source, own = layer_metrics(tracer, spec)
    untraced = sum(u for u, _ in pairs) / len(pairs)
    traced = sum(t for _, t in pairs) / len(pairs)
    metrics["trace.overhead_ms"] = 1000.0 * (traced - untraced)
    source["trace.overhead_ms"] = "workload"

    # share of the workload's op time that each layer's spans cover
    op_spans = {s.sid: s for s in tracer.spans
                if s.name.startswith("op.") and s.op.startswith("op:")}
    op_total = sum(s.end - s.start for s in op_spans.values())
    selfs = tracer.self_times()
    covered = {}
    for s in tracer.spans:
        if s.parent in op_spans:
            covered[s.name] = covered.get(s.name, 0.0) + selfs[s.sid]
    summary = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "setup_s": setup_s,
        "traced_ops": len(pairs),
        "failures": failures,
        "metrics": metrics,
        "source": source,
        "op_self_share": {k: v / op_total for k, v in sorted(covered.items())},
        "tracing_overhead": {
            "untraced_op_ms": 1000.0 * untraced,
            "traced_op_ms": 1000.0 * traced,
            "overhead_share": (traced - untraced) / untraced,
        },
        "context": context(wl, extra),
    }
    if name == "cli-cold":
        cold = own["time"].get("cli.cold", 0.0)
        floor = own["time"].get("cli.import", 0.0) + own["time"].get("models.library", 0.0)
        summary["cli_cold_share_of_import_and_library"] = floor / cold if cold else 0.0
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_work", f"trace-{name}-seed{seed}.json")
    tracer.dump(path, summary)
    summary["trace_file"] = os.path.relpath(path, ROOT)
    return summary, attempted


def context(wl, extra):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    pkg = os.path.join(SRC, "conjtop")
    lines = 0
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "src_conjtop_lines": lines,
        **wl.context,
        **extra,
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "conjtop", "__init__.py")):
        print(f"error: no conjtop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    pin_to_one_cpu()
    import workloads

    if args.workload not in workloads.SETUPS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.SETUPS)}", file=sys.stderr)
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    if args.trace:
        summary, attempted = traced_run(workloads.SETUPS, args.workload, args.seed,
                                        args.seconds, spec)
        failures = summary["failures"]
        source = summary["source"]
        for name, v in summary["metrics"].items():
            print(f"  {name:28s} {v:14.6g} {units[name]:6s} {source[name]}")
        print("  op self-time share: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(summary["op_self_share"].items(),
                                                 key=lambda kv: -kv[1])))
        o = summary["tracing_overhead"]
        print(f"  tracing overhead {o['traced_op_ms'] - o['untraced_op_ms']:.3f} ms per op "
              f"({o['overhead_share']:.1%} of {o['untraced_op_ms']:.3f} ms)")
        if "cli_cold_share_of_import_and_library" in summary:
            print("  import + library share of a cold command: "
                  f"{summary['cli_cold_share_of_import_and_library']:.1%}")
        ctx = summary["context"]
        print(f"  python {ctx['python']}, commit {ctx['commit']}, nproc {ctx['nproc']}, "
              f"src/conjtop lines {ctx['src_conjtop_lines']}")
        for n, row in ctx.get("scaling_table", {}).items():
            print(f"  betti_numbers(coned torus {n}): {row['simplices']} simplices, "
                  f"{row['seconds']:.3f} s")
        print(f"  spans written to {summary['trace_file']}")
        metrics = summary["metrics"]
    else:
        from reference import Clock
        from spans import NullTracer

        null = NullTracer()
        clock = Clock()
        wl, *setup = set_up(workloads.SETUPS, args.workload, args.seed, False, null, clock)
        values, notes, attempted, failures = end_to_end(wl, args.seconds, setup, null, clock)
        print("  times in reference seconds; host speed "
              f"{statistics.median(clock.scales):.3f} x the reference "
              f"(quartiles {', '.join(f'{q:.3f}' for q in statistics.quantiles(clock.scales))})")
        for name, v in values.items():
            print(f"  {name:12s} {v:14.6g} {units.get(name, 'ratio'):6s} {notes.get(name, '')}")
        metrics = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}
    for f in failures[:5]:
        print(f"failure: {f}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
