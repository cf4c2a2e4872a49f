#!/usr/bin/env python3
"""Enforces the source layer DAG.

Layers, bottom to top:

    util -> sim -> proto -> phy -> core -> mac -> net -> transport
         -> stats -> topo -> app

Four rules, all fatal:

  1. No file under src/<layer>/ may #include a header from a layer above
     it (tests/, bench/ and examples/ sit on top of everything and are
     exempt).
  2. No src/<layer>/CMakeLists.txt may link a hydra::<layer> target from
     a layer above it.
  3. The retired compatibility aliases for the proto vocabulary
     (net::Packet, mac::MacAddress, phy::PhyMode, ...) must not be
     spelled anywhere — canonical proto:: names only. This covers
     tests/, bench/ and examples/ too, so the aliases cannot creep back
     through call sites.
  4. src/proto/ headers must not declare other hydra namespaces (that is
     how the aliases were implemented).

Run from anywhere: paths are resolved relative to the repo root (the
parent of this script's directory). `--self-test` builds a throwaway
tree containing one instance of each violation kind, asserts all four
are flagged, then repairs the tree and asserts it comes back clean —
so a regex change that silently stops a rule from firing fails in CI
before it ships.
"""

import argparse
import re
import sys
import tempfile
from pathlib import Path

LAYERS = [
    "util",
    "sim",
    "proto",
    "phy",
    "core",
    "mac",
    "net",
    "transport",
    "stats",
    "topo",
    "app",
]
RANK = {name: i for i, name in enumerate(LAYERS)}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
LINK_RE = re.compile(r"hydra::(\w+)")

# The proto vocabulary that used to be re-exported under net::/mac::/phy::.
# These spellings are retired; only proto:: is canonical.
ALIAS_NAMES = {
    "net": [
        "Packet", "PacketPtr", "Ipv4Header", "TcpHeader", "TcpFlags",
        "UdpHeader", "DiscoveryHeader", "Ipv4Address", "Endpoint", "Port",
        "make_udp_packet", "make_tcp_packet", "make_flood_packet",
        "make_discovery_packet", "kProtoTcp", "kProtoUdp", "kProtoFlood",
        "kProtoDiscovery",
    ],
    "mac": [
        "MacAddress", "AggregateFrame", "ControlFrame", "FrameType",
        "MacSubframe", "subframe_wire_bytes", "encode_duration_us",
        "decode_duration_us", "kMacHeaderBytes", "kFcsBytes", "kEncapBytes",
        "kMinSubframeBytes", "kSubframeAlign", "kRtsBytes", "kCtsBytes",
        "kAckBytes", "kBlockAckBytes",
    ],
    "phy": [
        "PhyMode", "CodeRate", "Modulation", "base_mode", "hydra_modes",
        "mode_by_index", "mode_for_mbps_x100", "mode_index_of",
    ],
}
ALIAS_RE = re.compile(
    # The optional hydra:: prefix keeps fully-qualified spellings like
    # hydra::net::Packet from slipping past the lookbehind.
    r"(?<![:\w])(?:hydra::)?(?:"
    + "|".join(
        rf"{ns}::(?:{'|'.join(names)})\b" for ns, names in ALIAS_NAMES.items()
    )
    + ")"
)
# Rule 4: proto must not re-open other hydra namespaces.
PROTO_NAMESPACE_RE = re.compile(r"namespace\s+hydra::(?!proto\b)(\w+)")


def include_violations(src: Path) -> list[str]:
    problems = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        layer = path.relative_to(src).parts[0]
        if layer not in RANK:
            problems.append(f"{path}: unknown layer directory '{layer}'")
            continue
        for included in INCLUDE_RE.findall(path.read_text()):
            dep = included.split("/")[0]
            if dep not in RANK:
                continue  # system or third-party header
            if RANK[dep] > RANK[layer]:
                problems.append(
                    f"{path.relative_to(src.parent)}: includes "
                    f'"{included}" — {dep} is above {layer} in the DAG'
                )
    return problems


def link_violations(src: Path) -> list[str]:
    problems = []
    for layer in LAYERS:
        cmake = src / layer / "CMakeLists.txt"
        if not cmake.exists():
            problems.append(f"{cmake}: missing per-layer CMakeLists.txt")
            continue
        # Strip comments so prose mentioning a hydra::<layer> target does
        # not read as a link edge.
        code = "\n".join(
            line.split("#", 1)[0] for line in cmake.read_text().splitlines()
        )
        for dep in LINK_RE.findall(code):
            if dep not in RANK:
                problems.append(
                    f"{cmake.relative_to(src.parent)}: links unknown "
                    f"target hydra::{dep}"
                )
            elif RANK[dep] > RANK[layer]:
                problems.append(
                    f"{cmake.relative_to(src.parent)}: links hydra::{dep} "
                    f"— {dep} is above {layer} in the DAG"
                )
    return problems


def alias_violations(root: Path) -> list[str]:
    problems = []
    for tree in ("src", "tests", "bench", "examples"):
        base = root / tree
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                for match in ALIAS_RE.finditer(line):
                    problems.append(
                        f"{path.relative_to(root)}:{lineno}: retired alias "
                        f"spelling '{match.group(0)}' — use proto::"
                    )
    proto = root / "src" / "proto"
    for path in sorted(proto.rglob("*.h")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if match := PROTO_NAMESPACE_RE.search(line):
                problems.append(
                    f"{path.relative_to(root)}:{lineno}: proto header opens "
                    f"namespace hydra::{match.group(1)} (alias re-export?)"
                )
    return problems


def all_violations(root: Path) -> list[str]:
    src = root / "src"
    return (
        include_violations(src)
        + link_violations(src)
        + alias_violations(root)
    )


def self_test() -> int:
    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        src = root / "src"
        for layer in LAYERS:
            (src / layer).mkdir(parents=True)
            (src / layer / "CMakeLists.txt").write_text(
                f"add_library(hydra_{layer} INTERFACE)\n"
            )
        tests = root / "tests"
        tests.mkdir()

        # One instance of each violation kind.
        (src / "util" / "bad.h").write_text('#include "sim/scheduler.h"\n')
        (src / "sim" / "CMakeLists.txt").write_text(
            "add_library(hydra_sim INTERFACE)\n"
            "target_link_libraries(hydra_sim INTERFACE hydra::app)\n"
        )
        (tests / "alias.cc").write_text("fixture::consume(net::Packet{});\n")
        (src / "proto" / "evil.h").write_text("namespace hydra::mac {}\n")

        problems = all_violations(root)
        checks = [
            ("upward #include", "sim is above util"),
            ("upward CMake link", "app is above sim"),
            ("retired alias spelling", "retired alias spelling 'net::Packet'"),
            ("proto namespace reopen", "namespace hydra::mac"),
        ]
        failures = [
            label
            for label, needle in checks
            if not any(needle in problem for problem in problems)
        ]
        for label in failures:
            print(
                f"layering self-test: '{label}' was not detected",
                file=sys.stderr,
            )
        if len(problems) != len(checks):
            print(
                f"layering self-test: expected exactly {len(checks)} "
                f"violations, got {len(problems)}:",
                file=sys.stderr,
            )
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            failures.append("violation count")

        # The same tree, repaired, must come back clean.
        (src / "util" / "bad.h").write_text('#include "util/parallel_for.h"\n')
        (src / "sim" / "CMakeLists.txt").write_text(
            "add_library(hydra_sim INTERFACE)\n"
            "target_link_libraries(hydra_sim INTERFACE hydra::util)\n"
        )
        (tests / "alias.cc").write_text(
            "fixture::consume(proto::Packet{});\n"
        )
        (src / "proto" / "evil.h").write_text("namespace hydra::proto {}\n")
        for problem in all_violations(root):
            print(
                f"layering self-test: repaired tree still flagged: "
                f"{problem}",
                file=sys.stderr,
            )
            failures.append("repaired tree")

        if failures:
            return 1
        print(
            f"layering self-test: OK ({len(checks)}/{len(checks)} violation "
            "kinds detected, repaired tree passes)"
        )
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="assert every rule fires on a synthetic bad tree",
    )
    if parser.parse_args().self_test:
        return self_test()

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    problems = (
        include_violations(src)
        + link_violations(src)
        + alias_violations(root)
    )
    for problem in problems:
        print(f"layering: {problem}", file=sys.stderr)
    if problems:
        print(f"layering: {len(problems)} violation(s)", file=sys.stderr)
        return 1
    print(f"layering: OK ({' -> '.join(LAYERS)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
