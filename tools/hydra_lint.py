#!/usr/bin/env python3
"""hydra-lint — the determinism linter.

The simulator's contract is that a (scenario, seed) pair produces
bit-identical traces and stats regardless of thread count, cull
margin or host. That contract dies quietly: one hash-order walk or
wall-clock read in the schedule/trace/stats path and digests diverge
only on some standard library or some machine. This linter bans the
constructs that historically cause it, in src/ only (tests/, bench/
and examples/ sit outside the simulation core and may measure wall
time or iterate hash maps freely).

Rules:

  unordered-member  A named std::unordered_{map,set,multimap,multiset}
                    declaration. Hash containers are fine for O(1)
                    lookup but their iteration order is unspecified, so
                    every declaration must justify (via an allow
                    comment) that it is never iterated.
  unordered-iter    Range-for or .begin()/.cbegin()/.rbegin() over a
                    container that rule `unordered-member` saw declared
                    anywhere in the tree. Hash-order walks are how
                    nondeterminism actually leaks into event order.
  raw-rand          std::rand/std::srand/std::random_device. All
                    randomness flows through sim::Rng (seeded, drawn
                    in event order); random_device is
                    nondeterministic by construction. sim/rng.* is
                    exempt — it owns the engine.
  wall-clock        std::chrono::{system,steady,high_resolution}_clock,
                    gettimeofday, clock_gettime, time(nullptr).
                    Simulation time is sim::TimePoint; host time in the
                    core makes results machine-dependent.
  thread-id         std::this_thread::get_id(). Thread identity varies
                    run to run; anything keyed or ordered by it is
                    nondeterministic under sweep workers, which run
                    each simulation on whichever thread is free.
  ptr-order         Ordered containers keyed on pointers
                    (std::map<T*, ...>, std::set<T*>, std::less<T*>).
                    Pointer values depend on allocation order and
                    ASLR; iterating such a container is a hidden
                    address-order walk. Key on ids or attach order.
  raw-mutex         std::mutex / std::condition_variable / std::lock
                    wrappers. The concurrent core uses util::Mutex and
                    friends so clang -Wthread-safety can see every
                    acquire/release; a raw std::mutex is invisible to
                    the analysis. util/mutex.h is exempt — it is the
                    annotated wrapper.
  raw-thread        std::thread / std::jthread (not followed by `::`, so
                    std::thread::id and hardware_concurrency() pass) and
                    std::async calls. A simulation runs on one thread;
                    the only threads in src/ are the sweep's, started
                    by util::parallel_for. util/parallel_for.h is
                    exempt — it is that fork-join.
  float-order       Reductions whose operand association the standard
                    leaves unspecified, applied to floating point.
                    std::reduce / std::transform_reduce may reassociate
                    (that is their point), and FP addition is not
                    associative, so the same data can sum to different
                    bits run to run — they are flagged always.
                    std::accumulate folds left-to-right and is flagged
                    only when its statement mentions float/double or a
                    floating literal: a float fold is one refactor away
                    from a reduce, and over any container whose order
                    is not pinned it is already nondeterministic.
                    Integer folds (e.g. summing wire bytes with a
                    std::size_t init) are associative and exact, and do
                    not fire.
  host-env          getenv / std::getenv / secure_getenv. An environment
                    variable read in the core is a hidden option: the
                    same (scenario, seed) behaves differently on a host
                    that happens to set it. Every setting travels in a
                    config struct; no file is exempt.

Escape hatch (same line as the violation, or the line immediately
above; the reason is mandatory):

    // hydra-lint: allow(<rule>[, <rule>...]) — <why this is safe>

Self-test mode (`--self-test`) lints tests/lint_fixtures/ with the
path exemptions off and compares the findings against the fixtures'
`// hydra-lint-expect: <rule>[, <rule>...]` markers (a marker on a
comment-only line applies to the next line, otherwise to its own), so
the fixtures prove every rule still fires and the allow hatch still
suppresses.

Run from anywhere: paths resolve relative to the repo root (the parent
of this script's directory).
"""

import argparse
import re
import sys
from pathlib import Path

RULES = {
    "unordered-member": "named unordered container declaration",
    "unordered-iter": "iteration over an unordered container",
    "raw-rand": "non-seeded randomness outside sim::Rng",
    "wall-clock": "host clock read in the core",
    "thread-id": "std::this_thread::get_id()",
    "ptr-order": "ordered container keyed on pointer values",
    "raw-mutex": "raw std::mutex outside util/mutex.h",
    "raw-thread": "thread started outside util/parallel_for.h",
    "float-order": "order-sensitive floating-point reduction",
    "host-env": "environment variable read in the core",
}

# Per-rule path exemptions, relative to the scanned tree. The exempted
# files are the sanctioned owners of the banned construct.
EXEMPT = {
    "raw-rand": {"sim/rng.h", "sim/rng.cc"},
    "raw-mutex": {"util/mutex.h"},
    "raw-thread": {"util/parallel_for.h"},
}

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<.*>\s*"
    r"([A-Za-z_]\w*)"
)
RAW_RAND_RE = re.compile(r"\bstd::s?rand\s*\(|\brandom_device\b")
WALL_CLOCK_RE = re.compile(
    r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\("
    r"|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"
)
THREAD_ID_RE = re.compile(r"\bthis_thread\s*::\s*get_id\b")
PTR_ORDER_RE = re.compile(
    r"\bstd::(?:map|set|multimap|multiset)\s*<[^<>,]*\*"
    r"|\bstd::less\s*<[^<>]*\*\s*>"
)
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable"
    r"|condition_variable_any|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock)\b"
)
RAW_THREAD_RE = re.compile(
    r"\bstd::j?thread\b(?!\s*::)|\bstd::async\s*\("
)
HOST_ENV_RE = re.compile(r"\b(?:secure_)?getenv\b")
REDUCE_RE = re.compile(r"\bstd::(?:reduce|transform_reduce)\s*\(")
ACCUMULATE_RE = re.compile(r"\bstd::accumulate\s*\(")
# Floating-point hints inside an accumulate statement: a float/double
# mention, a decimal literal (1.0, 0.f) or an exponent literal (1e9).
FLOATISH_RE = re.compile(r"\b(?:float|double)\b|\d\.\d|\d\.f|\d[eE][-+]?\d")

ALLOW_RE = re.compile(
    r"hydra-lint:\s*allow\(\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)\s*\)"
    r"\s*(?:—|--?)\s*(\S.*)"
)
ALLOW_MARKER_RE = re.compile(r"hydra-lint:\s*allow")
EXPECT_RE = re.compile(r"hydra-lint-expect:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")


def strip_line_comment(line: str) -> str:
    """Drops a trailing // comment so prose never reads as code."""
    return line.split("//", 1)[0]


def collect_unordered_names(files: list[Path]) -> set[str]:
    names = set()
    for path in files:
        for line in path.read_text().splitlines():
            code = strip_line_comment(line)
            names.update(UNORDERED_DECL_RE.findall(code))
    return names


def marker_lines(lines: list[str], regex: re.Pattern) -> dict[int, set[str]]:
    """Maps 1-based line numbers to the rule set a marker attaches to.

    A marker on a comment-only line governs the next line; a marker
    trailing code governs its own line.
    """
    attached: dict[int, set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = regex.search(line)
        if not match:
            continue
        rules = {r.strip() for r in match.group(1).split(",")}
        target = lineno + 1 if line.lstrip().startswith("//") else lineno
        attached.setdefault(target, set()).update(rules)
    return attached


def lint_file(
    path: Path,
    rel: str,
    unordered_names: set[str],
    exempt: bool = True,
) -> list[tuple[str, int, str, str]]:
    """Returns (rel, lineno, rule, detail) findings for one file."""
    lines = path.read_text().splitlines()
    allows = marker_lines(lines, ALLOW_RE)
    findings = []

    iter_res = []
    if unordered_names:
        alt = "|".join(sorted(map(re.escape, unordered_names)))
        iter_res = [
            re.compile(r"for\s*\([^;)]*:\s*(?:[\w.>\-]*[.\->])?(%s)\s*\)" % alt),
            re.compile(r"\b(%s)\s*\.\s*(?:c|r|cr)?begin\s*\(" % alt),
        ]

    def flag(lineno: int, rule: str, detail: str) -> None:
        if exempt and rel in EXEMPT.get(rule, ()):
            return
        if rule in allows.get(lineno, ()):
            return
        findings.append((rel, lineno, rule, detail))

    for lineno, line in enumerate(lines, start=1):
        # A malformed allow (missing rule list or the mandatory reason)
        # suppresses nothing; call it out so it cannot rot silently.
        if ALLOW_MARKER_RE.search(line) and not ALLOW_RE.search(line):
            findings.append(
                (rel, lineno, "bad-allow",
                 "malformed allow — need allow(<rule>) — <reason>")
            )
        code = strip_line_comment(line)
        for name in UNORDERED_DECL_RE.findall(code):
            flag(lineno, "unordered-member",
                 f"unordered container '{name}' — justify that it is "
                 "never iterated")
        for regex in iter_res:
            if m := regex.search(code):
                flag(lineno, "unordered-iter",
                     f"hash-order iteration over '{m.group(1)}'")
        if RAW_RAND_RE.search(code):
            flag(lineno, "raw-rand", "randomness outside sim::Rng")
        if WALL_CLOCK_RE.search(code):
            flag(lineno, "wall-clock", "host clock read in the core")
        if THREAD_ID_RE.search(code):
            flag(lineno, "thread-id", "thread identity is not stable")
        if PTR_ORDER_RE.search(code):
            flag(lineno, "ptr-order",
                 "pointer-keyed ordered container — key on ids instead")
        if RAW_MUTEX_RE.search(code):
            flag(lineno, "raw-mutex",
                 "use util::Mutex so -Wthread-safety can see the lock")
        if RAW_THREAD_RE.search(code):
            flag(lineno, "raw-thread",
                 "start threads through util::parallel_for")
        if HOST_ENV_RE.search(code):
            flag(lineno, "host-env",
                 "environment read in the core — pass the setting in a "
                 "config struct")
        if REDUCE_RE.search(code):
            flag(lineno, "float-order",
                 "std::reduce may reassociate operands — use an ordered "
                 "fold over a pinned range")
        if m := ACCUMULATE_RE.search(code):
            # Join the call statement across lines (balanced parens,
            # bounded) so an init value or lambda placed on a later
            # line still counts as part of this accumulate.
            span = code[m.start():]
            depth = span.count("(") - span.count(")")
            nxt = lineno  # enumerate starts at 1: lines[lineno] is next
            while depth > 0 and nxt < len(lines) and nxt < lineno + 8:
                more = strip_line_comment(lines[nxt])
                span += " " + more
                depth += more.count("(") - more.count(")")
                nxt += 1
            if FLOATISH_RE.search(span):
                flag(lineno, "float-order",
                     "floating-point accumulate — the sum is "
                     "order-sensitive; pin the range order or keep "
                     "integer units")
    return findings


def lint_tree(base: Path, exempt: bool = True) -> list[tuple[str, int, str, str]]:
    files = sorted(
        p for p in base.rglob("*") if p.suffix in (".h", ".cc")
    )
    names = collect_unordered_names(files)
    findings = []
    for path in files:
        rel = path.relative_to(base).as_posix()
        findings.extend(lint_file(path, rel, names, exempt=exempt))
    return findings


def self_test(fixtures: Path) -> int:
    if not fixtures.is_dir():
        print(f"hydra-lint: no fixture directory {fixtures}", file=sys.stderr)
        return 1
    found = {
        (rel, lineno, rule)
        for rel, lineno, rule, _ in lint_tree(fixtures, exempt=False)
    }
    expected = set()
    for path in sorted(fixtures.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(fixtures).as_posix()
        lines = path.read_text().splitlines()
        for lineno, rules in marker_lines(lines, EXPECT_RE).items():
            expected.update((rel, lineno, rule) for rule in rules)
    missing = sorted(expected - found)
    surprise = sorted(found - expected)
    for rel, lineno, rule in missing:
        print(
            f"hydra-lint self-test: {rel}:{lineno}: expected rule "
            f"'{rule}' did not fire",
            file=sys.stderr,
        )
    for rel, lineno, rule in surprise:
        print(
            f"hydra-lint self-test: {rel}:{lineno}: unexpected finding "
            f"'{rule}'",
            file=sys.stderr,
        )
    if missing or surprise:
        return 1
    n_files = sum(1 for p in fixtures.rglob("*") if p.suffix in (".h", ".cc"))
    print(
        f"hydra-lint self-test: OK ({len(expected)} expected findings "
        f"across {n_files} fixtures, no surprises)"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repo root (default: the parent of tools/)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="lint tests/lint_fixtures/ against its expect markers",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.root / "tests" / "lint_fixtures")

    findings = lint_tree(args.root / "src")
    for rel, lineno, rule, detail in findings:
        print(f"src/{rel}:{lineno}: [{rule}] {detail}", file=sys.stderr)
    if findings:
        print(
            f"hydra-lint: {len(findings)} finding(s) — fix, or annotate "
            "with '// hydra-lint: allow(<rule>) — <reason>'",
            file=sys.stderr,
        )
        return 1
    print(f"hydra-lint: OK ({len(RULES)} rules over src/)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
