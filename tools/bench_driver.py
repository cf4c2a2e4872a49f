#!/usr/bin/env python3
"""Runs every paper-reproduction bench in parallel and aggregates their
per-bench BENCH_*.json reports into one BENCH_REPORT.json.

Each bench binary mirrors its tables — and its free-form commentary
(the "Paper: ..." comparison footers and expected-shape notes, recorded
by bench::comment into the report's "comments" array) — to
BENCH_<id>.json in its working directory (see bench/bench_common.h);
this driver gives every binary a private scratch directory so
concurrent runs cannot collide, then folds the collected reports — plus
run metadata (wall time, exit status, host core count) — into a single
document, ready for figure regeneration. The aggregate is
self-describing: tables, paper comparisons and commentary all ride in
the JSON, so nothing of the bench output lives only on stdout.

Usage:
    tools/bench_driver.py [--build-dir build] [--jobs N] [--output PATH]
                          [--baseline PATH] [--update-baseline PATH]
                          [--threshold PCT] [--allow-removed NAME ...]

The aggregate lands in <build-dir>/bench/BENCH_REPORT.json by default.
bench_micro (google-benchmark) is skipped: it has no JSON report and
measures wall-clock, which a saturated machine would distort.

With --baseline, every numeric table cell (leading number of each cell,
so "0.275 Mbps" and "10.9%" count) except machine-dependent wall-clock
columns is compared against the checked-in baseline, and the run fails
when any metric shifts by more than --threshold percent (default 15) in
either direction. The simulations are seeded and deterministic, so on
identical code the comparison is exact; any larger shift is a behaviour
change — either a regression to fix or an intentional improvement, in
which case --update-baseline regenerates the baseline file from the run
just made (commit it and say so in the PR).
"""

import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SKIP = {"bench_micro"}

# Columns whose values depend on the host machine rather than on the
# (deterministic) simulation — the only cells not worth pinning. Wall
# clock and peak RSS both vary with the host (RSS with allocator, page
# size and whatever ran earlier in the process).
EXCLUDE_HEADER = re.compile(r"wall|rss", re.IGNORECASE)

# Leading number of a cell: "0.275 Mbps" -> 0.275, "10.9%" -> 10.9,
# "chain-8" / "DBA" -> no match (labels are not metrics).
NUMBER_RE = re.compile(r"^-?\d+(?:\.\d+)?")


def cell_value(cell: str) -> float | None:
    match = NUMBER_RE.match(cell.strip())
    return float(match.group(0)) if match else None


def extract_metrics(results: list[dict]) -> dict[str, float]:
    """Flattens every guarded numeric cell out of the table reports.

    Key shape: "<bench id>/t<table#>/<row label>/c<col#>:<column header>";
    the row label is the row's first cell (the sweep variable), which the
    benches keep unique within a table, and the column index disambiguates
    tables that reuse a header (e.g. two "gain" columns).
    """
    metrics: dict[str, float] = {}
    for result in results:
        for report in result.get("reports", []):
            bench_id = report.get("bench", result["binary"])
            for ti, table in enumerate(report.get("tables", [])):
                headers = table.get("headers", [])
                for row in table.get("rows", []):
                    label = row[0] if row else ""
                    # Column 0 is the row label itself, not a result.
                    for ci, (header, cell) in enumerate(
                            zip(headers[1:], row[1:]), start=1):
                        if EXCLUDE_HEADER.search(header):
                            continue
                        value = cell_value(cell)
                        if value is None:
                            continue
                        key = f"{bench_id}/t{ti}/{label}/c{ci}:{header}"
                        if key in metrics:
                            # Silently overwriting would shrink baseline
                            # coverage; make the bench fix its row labels.
                            sys.exit(f"bench_driver: duplicate metric key "
                                     f"{key!r} — rows of one table need "
                                     "unique first cells")
                        metrics[key] = value
    return metrics


def check_baseline(metrics: dict[str, float], baseline: dict,
                   threshold_pct: float,
                   allow_removed: list[str] | None = None) -> list[str]:
    """Returns a list of failure messages (empty = within budget).

    A baseline metric with no counterpart in the run is normally a hard
    failure (a silently vanished metric would shrink coverage forever);
    names in `allow_removed` — exact metric keys or prefixes, as printed
    in the failure message — downgrade that to an audited notice for the
    run where a bench intentionally dropped or renamed a table.
    """
    reference: dict[str, float] = baseline["metrics"]
    allowed = tuple(allow_removed or [])
    failures = []
    for key, old in reference.items():
        new = metrics.get(key)
        if new is None:
            if allowed and (key in allowed or key.startswith(allowed)):
                print(f"bench_driver: allowed removed metric "
                      f"(was {old:g}): {key}")
                continue
            failures.append(f"missing metric (was {old:g}): {key}")
            continue
        if old == 0.0:
            if new != 0.0:
                failures.append(f"changed from 0: {key} -> {new:g}")
            continue
        shift_pct = abs(new - old) / abs(old) * 100.0
        if shift_pct > threshold_pct:
            failures.append(
                f"shifted {shift_pct:.1f}% (> {threshold_pct:g}%): {key} "
                f"{old:g} -> {new:g}")
    new_keys = sorted(set(metrics) - set(reference))
    if new_keys:
        print(f"bench_driver: {len(new_keys)} metric(s) not in baseline "
              "(new benches?); run --update-baseline to adopt them")
    return failures


def discover(bench_dir: Path) -> list[Path]:
    # Resolved to absolute paths: each bench runs with cwd set to a
    # scratch directory, where a relative --build-dir would not resolve.
    benches = [
        path.resolve()
        for path in sorted(bench_dir.glob("bench_*"))
        if path.is_file() and os.access(path, os.X_OK) and path.name not in SKIP
    ]
    if not benches:
        sys.exit(f"bench_driver: no bench binaries under {bench_dir} "
                 "(build them first: cmake --build <build-dir>)")
    return benches


def run_one(binary: Path) -> dict:
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix=f"{binary.name}.") as scratch:
        try:
            proc = subprocess.run(
                [str(binary)],
                cwd=scratch,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            exit_code = proc.returncode
            output = proc.stdout
        except OSError as err:
            exit_code = -1
            output = str(err)
        reports = []
        for report_path in sorted(Path(scratch).glob("BENCH_*.json")):
            try:
                reports.append(json.loads(report_path.read_text()))
            except json.JSONDecodeError as err:
                exit_code = exit_code or 1
                output += f"\nbad JSON in {report_path.name}: {err}"
    return {
        "binary": binary.name,
        "exit_code": exit_code,
        "seconds": round(time.monotonic() - started, 3),
        "reports": reports,
        # stdout is the rendered tables and commentary (both already in
        # the JSON report); keep a tail for diagnosing failures without
        # bloating the file.
        "output_tail": output.splitlines()[-20:] if exit_code != 0 else [],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build", type=Path)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    parser.add_argument("--output", type=Path, default=None,
                        help="default: <build-dir>/bench/BENCH_REPORT.json")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="compare throughput metrics against this "
                             "baseline JSON and fail on regression")
    parser.add_argument("--update-baseline", type=Path, default=None,
                        help="write the extracted metrics as a new baseline")
    parser.add_argument("--threshold", type=float, default=None,
                        help="max allowed metric shift in either direction, "
                             "percent (default: the baseline's recorded "
                             "threshold_pct, else 15)")
    parser.add_argument("--allow-removed", action="append", default=[],
                        metavar="NAME",
                        help="baseline metric key (or key prefix) that may "
                             "be absent from this run without failing the "
                             "gate; repeatable. For intentionally dropped "
                             "or renamed tables — follow up with "
                             "--update-baseline and commit it.")
    args = parser.parse_args()

    bench_dir = args.build_dir / "bench"
    benches = discover(bench_dir)
    output = args.output or bench_dir / "BENCH_REPORT.json"

    print(f"bench_driver: {len(benches)} benches, {args.jobs} in parallel")
    started = time.monotonic()
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        results = list(pool.map(run_one, benches))
    elapsed = time.monotonic() - started

    failed = [r["binary"] for r in results if r["exit_code"] != 0]
    report = {
        "total_seconds": round(elapsed, 3),
        "bench_count": len(results),
        # The host's core count, for reading the wall columns and the
        # per-bench seconds: the benches ran --jobs at a time, and the
        # sweep benches spread their points over every core.
        "host_cpus": os.cpu_count(),
        "failed": failed,
        "benches": results,
    }
    output.write_text(json.dumps(report, indent=1) + "\n")

    for r in results:
        status = "ok" if r["exit_code"] == 0 else f"FAILED ({r['exit_code']})"
        print(f"  {r['binary']:<32} {r['seconds']:>8.1f}s  {status}")
    print(f"bench_driver: wrote {output} in {elapsed:.1f}s")
    if failed:
        print(f"bench_driver: {len(failed)} bench(es) failed: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1

    metrics = extract_metrics(results)
    if args.update_baseline:
        args.update_baseline.write_text(json.dumps(
            {"threshold_pct": args.threshold if args.threshold is not None
                              else 15.0,
             "metrics": metrics},
            indent=1, sort_keys=True) + "\n")
        print(f"bench_driver: wrote baseline ({len(metrics)} metrics) "
              f"to {args.update_baseline}")
    if args.baseline:
        baseline = json.loads(args.baseline.read_text())
        threshold = (args.threshold if args.threshold is not None
                     else baseline.get("threshold_pct", 15.0))
        regressions = check_baseline(metrics, baseline, threshold,
                                     args.allow_removed)
        if regressions:
            print(f"bench_driver: {len(regressions)} metric shift(s) "
                  "vs baseline:", file=sys.stderr)
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"bench_driver: all {len(metrics)} metrics within "
              f"{threshold:g}% of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
