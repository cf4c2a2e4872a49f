#!/usr/bin/env python3
"""The hydra benchmark: builds bench/perf, runs workload reps, prints metrics.

One workload, measured for a time budget (the form BENCHMARK.json names):

    python3 bench/perf/run.py --workload paper_tcp --seed 1 --seconds 25 --trace 0

Every workload, in interleaved rounds plus a traced round:

    python3 bench/perf/run.py --seed 1 [--out results.jsonl]

Either form prints one `<workload> <name> <value> <unit>` line per metric.
The single-workload form ends with the JSON result line
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.

Other commands:

    run.py compare A.jsonl B.jsonl    # parent A vs change B (see compare())
    run.py summarize A.jsonl ...      # Q1/median/Q3 of every metric
    run.py smoke [--binary PATH]      # tiny sizes against recorded digests
    run.py record-digests [--seeds 1,2] [--smoke]

Each rep is a fresh `hydra_perf` process (one workload, single-threaded)
that times hydra's public calls from outside and prints raw times, counts,
a digest of the simulated outputs, and samples of a fixed calibration
kernel. Host times are divided by the kernel samples taken around them, so
every time metric is in "reference" units: host time on a machine where
the kernel takes exactly 1 ms. That takes most of a shared host's speed swings
out of the numbers; the kernel never changes with hydra's code, so a real
speed-up still shows in full.
"""

import argparse
import bisect
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-perf"
BINARY = BUILD / "hydra_perf"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("paper_tcp", "relay_udp", "flood_10k", "mobile_1k")
DEFAULT_SECONDS = 25
# No single rep may outlive this; the whole run must end within 180 s.
REP_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
# Calibration samples either side of an op that set its scale.
CAL_WINDOW = 5
# Untraced rounds of the every-workload form (one traced round follows).
SUITE_ROUNDS = 3

# name -> (unit, better, bound). The bound is the share of the parent's
# median by which the metric may worsen before a change regresses. The
# time bounds are three times the widest inter-quartile spread seen over
# ten seeds (3.7%) and clear the 8-10% that flood_10k's medians drifted
# between sets of runs an hour apart.
END_TO_END = {
    "wall_s": ("s", "lower", 0.15),
    "ops_per_s": ("1/s", "higher", 0.15),
    "op_p50_ms": ("ms", "lower", 0.15),
    "op_p90_ms": ("ms", "lower", 0.15),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.06),
}

# name -> unit. No bounds: these explain an end-to-end move.
PER_LAYER = {
    "topo.positions_s": "s",
    "topo.adjacency_s": "s",
    "topo.next_hops_s": "s",
    "topo.relays_s": "s",
    "topo.build_rest_s": "s",
    "topo.build_share": "ratio",
    "topo.teardown_s": "s",
    "topo.tick_share": "ratio",
    "phy.lists_s": "s",
    "phy.ns_per_delivery": "ns",
    "phy.us_per_move": "us",
    "phy.incremental_ratio": "ratio",
    "phy.tx_frames": "count",
    "phy.deliveries": "count",
    "phy.fanout": "count",
    "phy.moves": "count",
    "phy.rebuilds": "count",
    "sim.ns_per_event": "ns",
    "sim.events": "count",
    "sim.events_per_op": "count",
    "mem.allocs_per_event": "count",
    "mem.bytes_per_event": "B",
    "mac.data_frames": "count",
    "mac.retries": "count",
    "mac.retry_drops": "count",
    "mac.collisions": "count",
    "mac.crc_failures": "count",
    "core.subframes_per_aggregate": "count",
    "core.queue_drops": "count",
    "tcp.retransmits": "count",
    "tcp.timeouts": "count",
    "tcp.acks_sent": "count",
    "tcp.acks_delayed": "count",
    "tcp.flow_completion": "ratio",
    "app.op_p99_ms": "ms",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """A failure that ends the run without a result line."""


# ---------------------------------------------------------------------------
# Statistics


def percentile(values, q):
    """The q-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def self_time(span_s, child_spans_s):
    """A span's own time: its duration minus the time its children cover."""
    return span_s - sum(child_spans_s)


# ---------------------------------------------------------------------------
# Metrics from reps


def op_scales(rep):
    """Host -> reference factor for each op: one over the mean of the
    rolling-median kernel samples taken just before and just after it.
    The window (CAL_WINDOW samples either side, about ±250 ms of ops)
    follows the host's speed through a rep better than one factor per rep
    does, and is wide enough to smooth out single-sample jitter."""
    cal, at = rep["cal_ms"], rep["cal_at_op"]
    rolled = [median(cal[max(0, j - CAL_WINDOW): j + CAL_WINDOW + 1])
              for j in range(len(cal))]
    scales = []
    for i in range(len(rep["op_ms"])):
        before = max(bisect.bisect_right(at, i) - 1, 0)
        after = min(bisect.bisect_left(at, i + 1), len(cal) - 1)
        scales.append(2.0 / (rolled[before] + rolled[after]))
    return scales


def calibrate(rep):
    """Adds the rep's op times in reference units ("ref_op_ms") and the
    op-time-weighted factor that converts its other times ("ref_scale")."""
    if not rep["cal_ms"] or len(rep["cal_ms"]) != len(rep["cal_at_op"]):
        raise BenchError("rep carries no usable calibration samples")
    rep["ref_op_ms"] = [ms * k for ms, k in zip(rep["op_ms"], op_scales(rep))]
    raw = sum(rep["op_ms"])
    rep["ref_scale"] = (sum(rep["ref_op_ms"]) / raw if raw
                        else 1.0 / median(rep["cal_ms"]))
    return rep


def run_seconds(rep):
    """The rep's total op time, in reference seconds."""
    return sum(rep["ref_op_ms"]) / 1e3


def end_to_end_metrics(reps):
    """The end-to-end metrics of one workload from its untraced reps."""
    pooled = [ms for rep in reps for ms in rep["ref_op_ms"]]
    return {
        "wall_s": median([rep["wall_s"] * rep["ref_scale"] for rep in reps]),
        "ops_per_s": median([len(rep["op_ms"]) / run_seconds(rep) for rep in reps]),
        "op_p50_ms": percentile(pooled, 50),
        "op_p90_ms": percentile(pooled, 90),
        "setup_s": median([rep["setup_s"] * rep["ref_scale"] for rep in reps]),
        "peak_rss_mb": max(rep["peak_rss_kb"] for rep in reps) / 1024.0,
    }


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics_of(rep):
    """Per-layer metrics of one traced rep."""
    k = rep["ref_scale"]
    run_s = sum(rep["op_ms"]) / 1e3
    views = [rep["positions_s"], rep["adjacency_s"], rep["next_hops_s"], rep["relays_s"]]
    return {
        "topo.positions_s": rep["positions_s"] * k,
        "topo.adjacency_s": rep["adjacency_s"] * k,
        "topo.next_hops_s": rep["next_hops_s"] * k,
        "topo.relays_s": rep["relays_s"] * k,
        "topo.build_rest_s": self_time(rep["build_s"], views) * k,
        "topo.build_share": ratio(rep["build_s"], run_s),
        "topo.teardown_s": rep["teardown_s"] * k,
        "topo.tick_share": ratio(rep["tick_s"], run_s),
        "phy.lists_s": rep["lists_s"] * k,
        "phy.ns_per_delivery": ratio(run_seconds(rep) * 1e9, rep["deliveries"]),
        "phy.us_per_move": ratio(rep["probe_move_s"] * k * 1e6, rep["probe_moves"]),
        "phy.incremental_ratio": ratio(rep["probe_incremental_moves"], rep["probe_moves"]),
        "phy.tx_frames": rep["tx"],
        "phy.deliveries": rep["deliveries"],
        "phy.fanout": ratio(rep["deliveries"], rep["tx"]),
        "phy.moves": rep["moves"],
        "phy.rebuilds": rep["rebuilds"],
        "sim.ns_per_event": ratio(run_seconds(rep) * 1e9, rep["events"]),
        "sim.events": rep["events"],
        "sim.events_per_op": ratio(rep["events"], len(rep["op_ms"])),
        "mem.allocs_per_event": ratio(rep["allocs"], rep["events"]),
        "mem.bytes_per_event": ratio(rep["alloc_bytes"], rep["events"]),
        "mac.data_frames": rep["mac_data_frames"],
        "mac.retries": rep["mac_retries"],
        "mac.retry_drops": rep["mac_retry_drops"],
        "mac.collisions": rep["mac_collisions"],
        "mac.crc_failures": rep["mac_crc_failures"],
        "core.subframes_per_aggregate": ratio(rep["mac_subframes"], rep["mac_data_frames"]),
        "core.queue_drops": rep["mac_queue_drops"],
        "tcp.retransmits": rep["tcp_retransmits"],
        "tcp.timeouts": rep["tcp_timeouts"],
        "tcp.acks_sent": rep["tcp_acks_sent"],
        "tcp.acks_delayed": rep["tcp_acks_delayed"],
        "tcp.flow_completion": ratio(rep["tcp_flows_completed"], rep["tcp_flows"]),
    }


def layer_metrics(traced, untraced):
    """Per-layer metrics of one workload: medians over its traced reps,
    plus the op tail and the tracing overhead against the untraced reps."""
    per_rep = [layer_metrics_of(rep) for rep in traced]
    metrics = {name: median([m[name] for m in per_rep]) for name in per_rep[0]}
    plain = untraced or traced
    metrics["app.op_p99_ms"] = percentile([ms for rep in plain for ms in rep["ref_op_ms"]], 99)
    metrics["trace.overhead_pct"] = (
        (median([run_seconds(r) for r in traced]) /
         median([run_seconds(r) for r in untraced]) - 1.0) * 100.0
        if untraced else 0.0)
    return metrics


# ---------------------------------------------------------------------------
# Output checks


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def check_digests(workload, seed, reps, recorded):
    """Problems with the reps' output digests: they must agree with each
    other (traced or not) and with the recorded digest for this seed."""
    problems = []
    seen = sorted({rep["digest"] for rep in reps})
    if len(seen) > 1:
        problems.append(f"{workload} seed {seed}: reps disagree on the digest: {seen}")
    want = recorded.get(workload, {}).get(str(seed))
    if want is not None and seen != [want]:
        problems.append(f"{workload} seed {seed}: digest {seen} != recorded {want}")
    return problems


# ---------------------------------------------------------------------------
# Build and reps


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"hydra sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "hydra_perf", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_rep(binary, workload, seed, traced, smoke=False, timeout=REP_TIMEOUT_S):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} rep exceeded {timeout:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"{workload} rep exited {done.returncode}: {done.stderr.strip()}")
    return calibrate(json.loads(done.stdout))


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_lines(workload, metrics, units):
    for name, value in metrics.items():
        print(f"{workload} {name} {fmt(value)} {units[name]}")


def summarize(workload, seed, untraced, traced, recorded):
    """Result record of one workload: checks plus every metric it has."""
    reps = untraced + traced
    problems = check_digests(workload, seed, reps, recorded)
    attempted = sum(len(rep["op_ms"]) for rep in reps)
    failed = attempted if problems else sum(rep["failed"] for rep in reps)
    record = {"workload": workload, "seed": seed, "correct": not problems,
              "attempted": attempted, "failed": failed, "problems": problems,
              "reps": len(untraced), "traced_reps": len(traced),
              "end_to_end": {}, "per_layer": {}}
    if untraced:
        record["end_to_end"] = end_to_end_metrics(untraced)
    if traced:
        record["per_layer"] = layer_metrics(traced, untraced)
    return record


def append_out(path, record):
    if path:
        with open(path, "a") as f:
            f.write(json.dumps(record) + "\n")


def run_workload(args, recorded):
    """The single-workload form: reps for --seconds, then the result line."""
    started = time.monotonic()
    untraced, traced = [], []
    rounds = 0
    while True:
        remaining = REP_TIMEOUT_S - (time.monotonic() - started)
        untraced.append(run_rep(BINARY, args.workload, args.seed, False,
                                timeout=max(1.0, remaining)))
        if args.trace:
            remaining = REP_TIMEOUT_S - (time.monotonic() - started)
            traced.append(run_rep(BINARY, args.workload, args.seed, True,
                                  timeout=max(1.0, remaining)))
        rounds += 1
        elapsed = time.monotonic() - started
        # Start another round only if it should end inside the budget.
        if elapsed + elapsed / rounds > args.seconds:
            break

    record = summarize(args.workload, args.seed, untraced, traced, recorded)
    append_out(args.out, record)
    for problem in record["problems"]:
        print(problem, file=sys.stderr)
    if args.trace:
        metrics, units = record["per_layer"], PER_LAYER
    else:
        metrics = record["end_to_end"]
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    print_lines(args.workload, metrics, units)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if record["correct"] else 1


def run_suite(args, recorded):
    """Interleaved rounds over every workload (w1..w4, w1..w4, ...), then
    one traced round; prints every metric of every workload."""
    untraced = {w: [] for w in WORKLOADS}
    traced = {w: [] for w in WORKLOADS}
    for _ in range(SUITE_ROUNDS):
        for w in WORKLOADS:
            untraced[w].append(run_rep(BINARY, w, args.seed, False))
    for w in WORKLOADS:
        traced[w].append(run_rep(BINARY, w, args.seed, True))

    e2e_units = {name: spec[0] for name, spec in END_TO_END.items()}
    ok = True
    for w in WORKLOADS:
        record = summarize(w, args.seed, untraced[w], traced[w], recorded)
        append_out(args.out, record)
        for problem in record["problems"]:
            print(problem, file=sys.stderr)
        ok = ok and record["correct"]
        print_lines(w, record["end_to_end"], e2e_units)
        print_lines(w, {"fail_ratio": ratio(record["failed"], record["attempted"])},
                    {"fail_ratio": "ratio"})
        print_lines(w, record["per_layer"], PER_LAYER)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# compare


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare_metric(a, b, better, bound):
    """Judges change B against parent A for one metric, runs paired in order.

    gain:       >= 10 pairs, B wins >= 9/10 of them (ties count for
                neither), and the medians differ by more than A's
                inter-quartile distance, in B's favour.
    regressed:  B's median is worse than A's by more than `bound` of A's.
    unresolved: A's own spread is wider than the bound, unless every B run
                beats every A run.
    ok:         otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    ma, mb = median(a), median(b)
    q1, _, q3 = quartiles(a)
    worse_share = sign * (mb - ma) / ma if ma else 0.0
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (ma - mb) > q3 - q1):
        verdict = "gain"
    elif worse_share > bound:
        verdict = "regressed"
    elif spread(a) > bound and not all(sign * (x - y) > 0 for x in a for y in b):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"median_a": ma, "median_b": mb, "change": (mb - ma) / ma if ma else 0.0,
            "spread_a": spread(a), "pairs": len(pairs), "wins": wins,
            "verdict": verdict}


def compare(path_a, path_b):
    a_records, b_records = load_records(path_a), load_records(path_b)
    print(f"{'workload':10} {'metric':12} {'median A':>11} {'median B':>11} "
          f"{'change':>8} {'spread A':>8} {'wins':>7}  verdict")
    regressed = False
    for w in WORKLOADS:
        a = [r for r in a_records if r["workload"] == w and r["end_to_end"]]
        b = [r for r in b_records if r["workload"] == w and r["end_to_end"]]
        if not a or not b:
            continue
        for name, (_, better, bound) in END_TO_END.items():
            row = compare_metric([r["end_to_end"][name] for r in a],
                                 [r["end_to_end"][name] for r in b], better, bound)
            regressed = regressed or row["verdict"] == "regressed"
            print(f"{w:10} {name:12} {row['median_a']:11.5g} {row['median_b']:11.5g} "
                  f"{row['change']:+8.2%} {row['spread_a']:8.2%} "
                  f"{row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}")
        failed_a = sum(r["failed"] for r in a)
        failed_b = sum(r["failed"] for r in b)
        if failed_b > failed_a:
            regressed = True
            print(f"{w:10} failed ops: {failed_a} -> {failed_b}  regressed")
    return 1 if regressed else 0


def summarize_records(paths):
    """Q1, median and Q3 of every metric over result records (--out files),
    per workload, as JSON on stdout."""
    values = {}
    for path in paths:
        for r in load_records(path):
            for section in ("end_to_end", "per_layer"):
                for name, value in r[section].items():
                    values.setdefault(r["workload"], {}).setdefault(name, []).append(value)
    table = {
        w: {name: {"q1": q1, "median": q2, "q3": q3, "runs": len(v)}
            for name, v in sorted(metrics.items())
            for q1, q2, q3 in [quartiles(v)]}
        for w, metrics in values.items()
    }
    print(json.dumps(table, indent=2))
    return 0


# ---------------------------------------------------------------------------
# smoke and digest recording


def smoke(binary):
    recorded = load_digests()["smoke"]
    ok = True
    for w in WORKLOADS:
        rep = run_rep(binary, w, 1, True, smoke=True)
        problems = check_digests(w, 1, [rep], recorded)
        if rep["failed"]:
            problems.append(f"{w}: {rep['failed']} failed ops")
        if not problems:
            layer_metrics([rep], [])  # every metric must compute
        for problem in problems:
            print(problem, file=sys.stderr)
        ok = ok and not problems
        print(f"{w} smoke digest {rep['digest']} {'ok' if not problems else 'FAIL'}")
    return 0 if ok else 1


def record_digests(seeds, smoke_sizes):
    digests = load_digests()
    section = digests["smoke" if smoke_sizes else "full"]
    for w in WORKLOADS:
        for seed in seeds:
            rep = run_rep(BINARY, w, seed, False, smoke=smoke_sizes)
            section.setdefault(w, {})[str(seed)] = rep["digest"]
            print(f"{w} seed {seed} digest {rep['digest']}")
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


# ---------------------------------------------------------------------------


def seed_arg(text):
    value = int(text)
    if not 0 <= value <= 2 ** 48:
        raise argparse.ArgumentTypeError("seed must be in [0, 2^48]")
    return value


def main(argv):
    # A terminated run still kills and reaps its current rep.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("parent")
        p.add_argument("change")
        a = p.parse_args(argv[1:])
        return compare(a.parent, a.change)
    if argv[:1] == ["summarize"]:
        p = argparse.ArgumentParser(prog="run.py summarize")
        p.add_argument("records", nargs="+")
        return summarize_records(p.parse_args(argv[1:]).records)
    if argv[:1] == ["smoke"]:
        p = argparse.ArgumentParser(prog="run.py smoke")
        p.add_argument("--binary", type=Path)
        a = p.parse_args(argv[1:])
        if a.binary is None:
            build()
        return smoke(a.binary or BINARY)
    if argv[:1] == ["record-digests"]:
        p = argparse.ArgumentParser(prog="run.py record-digests")
        p.add_argument("--seeds", default="1,2")
        p.add_argument("--smoke", action="store_true")
        a = p.parse_args(argv[1:])
        build()
        return record_digests([seed_arg(s) for s in a.seeds.split(",")], a.smoke)

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=seed_arg, default=1)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append each workload's result record here")
    args = p.parse_args(argv)

    build()
    recorded = load_digests()["full"]
    if args.workload:
        return run_workload(args, recorded)
    return run_suite(args, recorded)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
