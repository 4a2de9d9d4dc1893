#!/usr/bin/env python3
"""sdcheck — the SmartDIMM static analyzer for project invariants.

It checks the contracts generic tools (clang-tidy, compiler warnings)
cannot express: plain per-file text rules and cross-translation-unit
joins over registries that span src/, tests/ and bench/baselines/. It
needs nothing beyond the Python standard library.

Rule catalogue:

  per-file        plain regex rules over one file's text. Scope:
                  src/; the topology-construction rule also covers
                  bench/, examples/ and tests/ (minus the analyzer's
                  own fixtures).
    determinism     no rand()/srand()/std::random_device: randomness
                    flows through sd::Rng so runs replay from a seed.
    iostream        no <iostream> in headers; sinks take std::ostream&.
    guards          every header has an #ifndef SD_* include guard.
    recoverable-assert
                    modules under fault injection degrade instead of
                    asserting; SD_ASSERTs there match a per-file budget.
    queue-bypass    CompCpyEngine::startOp() is named only by the engine
                    and the work queue: one execution path.
    wakeup-bypass   schedulePass() events are scheduled only inside
                    requestPass(), which coalesces wakeups.
    topology-construction
                    MemorySystem/BufferDevice are constructed only by
                    the topo::Topology factory, which owns each DIMM's
                    address window and MMIO base.
  fault-coverage  every fault::Site enum member must be (a) injected
                  somewhere in src/ outside src/fault/, (b) named in the
                  kSiteNames stats table in positional (snake_case)
                  agreement with the enum, and (c) referenced by at
                  least one test — so a new fault site cannot ship
                  unobservable or untested.
  stat-registry   stat/span names declared in src/ (registry.add
                  components, block.scalar rows, span kinds) vs names
                  asserted in tests/ and rows committed under
                  bench/baselines/: coordinate-grammar violations,
                  orphan references, near-miss typos, and the explicit
                  1x1-legacy vs ".chC.dD" dual-naming contract (every
                  coordinate-tagged registration must degrade to a bare
                  legacy name at 1x1).
  mmio-map        the MmioReg register map: every k* offset defined
                  once, 8-byte aligned, 64-byte non-overlapping, inside
                  the device's MMIO window; and *accesses* flow only
                  through the window helpers (Driver::mmio() on the
                  host side, the device's own decoder) so per-DIMM
                  rebasing can never be bypassed with raw mmio_base
                  arithmetic.
  addr-arith      address arithmetic in mem/address_map, mem/dimm_mux,
                  topo/dispatcher and cache/: narrowing casts of
                  div/mod results must go through the checked
                  narrowIdx()/bits() helpers, byte<->line<->page unit
                  conversions must use the named constants
                  (kCacheLineSize/kLineBits/kLinesPerPage/...), and
                  line-unit and byte-unit quantities must not be mixed
                  additively in one expression.
  dead-parameter  every field of a *Config/*Params/*Timing/*Spec/
                  *Geometry/*Model struct in src/, and every
                  DdrCommandType and MmioOpcode enumerator, is read
                  somewhere in src/ (a write such as `cfg.x = 3` is
                  not a read), and
                  each such field is set somewhere in src/, bench/ or
                  perfbench/ (a field only tests/ or examples/ set is
                  a constant to every product run). A write counts for
                  the type of its target when the same file declares
                  it (`x.f =` and `x->f =` by x's declaration,
                  `T{.f = ...}` for T), by member name otherwise, so
                  a same-named field of another struct hides nothing.
                  So is each class member of such a struct type
                  (assigned, constructor-initialised with a value or
                  memcpy'd into; a member nothing sets is a
                  per-instance constant).
                  The parameters not enforced yet and those nothing
                  sets yet are exact budgets.

Findings ({rule, file, line, context, msg}) are compared against the
committed baseline tools/sdcheck_baseline.json with the same contract
as tools/bench_gate.py: unbaselined findings fail, stale baseline
entries warn, --update-baseline adopts the current set. The clean-tree
contract is an *empty* baseline — fix findings instead of baselining
them.

Usage:
  tools/sdcheck.py [--root DIR] [--baseline FILE] [--update-baseline]
  tools/sdcheck.py --self-test [--root DIR]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from collections import Counter

SRC_EXTS = {".h", ".cc"}

# The self-test fixture corpus lives inside tests/ but is analyzer
# input, not repo code — the real-tree walk must skip it or the bad
# fixtures would (correctly) fail the clean-tree contract.
FIXTURE_DIR = "tests/tools/fixtures/"


def is_fixture(rel: str) -> bool:
    return rel.startswith(FIXTURE_DIR)

# --------------------------------------------------------------------------
# Shared text utilities
# --------------------------------------------------------------------------


# A quote inside a number (100'000, 0xFFFF'FFFF) separates digits; it
# does not open a character literal.
DIGIT_SEPARATOR_RE = re.compile(r"\b\d\w*$")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving offsets
    and newlines so line numbers and brace positions stay valid."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'" and not DIGIT_SEPARATOR_RE.search(
                    text, max(0, i - 40), i):
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append("\n")
            elif c == "\\" and nxt == "\n":
                out.append(" \n")
                i += 2
                continue
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # str / chr
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" ")
        i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def blank_preprocessor(clean: str) -> str:
    """Blank preprocessor lines (macro definitions must not count as
    uses) while keeping newlines."""
    lines = clean.split("\n")
    for idx, ln in enumerate(lines):
        if ln.lstrip().startswith("#"):
            lines[idx] = ""
    return "\n".join(lines)


def _matching_brace(clean: str, open_pos: int):
    """Offset of the '}' closing the '{' at @p open_pos, or None."""
    depth = 0
    for i in range(open_pos, len(clean)):
        if clean[i] == "{":
            depth += 1
        elif clean[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return None


def string_literals(text: str) -> list:
    """All double-quoted literals with their offsets (comment-stripped
    first so commented-out names don't count)."""
    # Strip comments but keep strings: run the stripper but remember
    # literal spans separately.
    out = []
    i, n = 0, len(text)
    state = "code"
    start = 0
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                i += 2
                continue
            if c == '"':
                state = "str"
                start = i + 1
                i += 1
                continue
            if c == "'":
                state = "chr"
                i += 1
                continue
        elif state == "line":
            if c == "\n":
                state = "code"
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
        elif state == "str":
            if c == "\\":
                i += 2
                continue
            if c == '"':
                out.append((text[start:i], start))
                state = "code"
        else:  # chr
            if c == "\\":
                i += 2
                continue
            if c == "'":
                state = "code"
        i += 1
    return out


def camel_to_snake(name: str) -> str:
    """kAlertStorm -> alert_storm."""
    if name.startswith("k"):
        name = name[1:]
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def edit_distance(a: str, b: str, cap: int = 3) -> int:
    """Levenshtein with an early-out cap."""
    if abs(len(a) - len(b)) > cap:
        return cap + 1
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        best = i
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1,
                           prev[j - 1] + (ca != cb)))
            best = min(best, cur[-1])
        if best > cap:
            return cap + 1
        prev = cur
    return prev[-1]


class Finding:
    """One analyzer finding. Baseline identity deliberately excludes
    the line number so unrelated edits above a baselined finding do not
    churn the baseline (same philosophy as bench_gate row keys)."""

    def __init__(self, rule: str, file: str, line: int, context: str,
                 msg: str):
        self.rule = rule
        self.file = file
        self.line = line
        self.context = context
        self.msg = msg

    def key(self) -> tuple:
        return (self.rule, self.file, self.context)

    def __repr__(self):
        return f"{self.file}:{self.line}: [{self.rule}] {self.msg}"


# --------------------------------------------------------------------------
# Rule: fault-coverage — Site enum cross-referenced repo-wide
# --------------------------------------------------------------------------

SITE_ENUM_RE = re.compile(
    r"enum\s+class\s+Site[^{]*\{(.*?)\}", re.DOTALL)
SITE_MEMBER_RE = re.compile(r"\b(k[A-Z]\w*)\b")
SITE_NAMES_ARRAY_RE = re.compile(
    r"kSiteNames\s*(?:\[\s*\])?\s*=\s*\{(.*?)\}", re.DOTALL)


def check_fault_coverage(root: pathlib.Path, findings: list,
                         read=None) -> dict:
    """@return summary dict (the coverage line main() prints)."""
    read = read or (lambda p: p.read_text())
    fault_h = root / "src" / "fault" / "fault.h"
    fault_cc = root / "src" / "fault" / "fault.cc"
    summary = {"sites": [], "covered": 0}
    if not fault_h.is_file():
        return summary
    clean_h = strip_comments_and_strings(read(fault_h))
    m = SITE_ENUM_RE.search(clean_h)
    if not m:
        findings.append(Finding(
            "fault-coverage", "src/fault/fault.h", 1, "Site",
            "cannot locate `enum class Site`"))
        return summary
    members = [x for x in SITE_MEMBER_RE.findall(m.group(1))
               if x != "kCount"]
    enum_line = line_of(clean_h, m.start())

    names = []
    if fault_cc.is_file():
        clean_cc = strip_comments_and_strings(read(fault_cc))
        # String literals are blanked by the stripper, so re-read them
        # from the raw text inside the array extent.
        raw_cc = read(fault_cc)
        am = SITE_NAMES_ARRAY_RE.search(raw_cc)
        if am:
            names = [lit for lit, _ in string_literals(am.group(1))]
        del clean_cc

    # Positional snake_case agreement between enum and names table.
    if len(names) != len(members):
        findings.append(Finding(
            "fault-coverage", "src/fault/fault.cc", 1, "kSiteNames",
            f"kSiteNames has {len(names)} entries but enum Site has "
            f"{len(members)} members (excluding kCount); stats and "
            "spec parsing would misattribute sites"))
    else:
        for i, (member, name) in enumerate(zip(members, names)):
            expect = camel_to_snake(member)
            if name != expect:
                findings.append(Finding(
                    "fault-coverage", "src/fault/fault.cc", 1,
                    member,
                    f"kSiteNames[{i}] is '{name}' but Site::{member} "
                    f"expects '{expect}' — positional mismatch breaks "
                    "siteName()/fromSpec round-trips"))

    # Gather usage: injection sites in src (outside src/fault), test
    # references in tests/ (by enum name or snake name).
    src_uses = {mname: [] for mname in members}
    test_uses = {mname: [] for mname in members}
    for base, bucket in (("src", src_uses), ("tests", test_uses)):
        for path in sorted((root / base).rglob("*")):
            if path.suffix not in SRC_EXTS or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if base == "src" and rel.startswith("src/fault/"):
                continue
            if is_fixture(rel):
                continue
            text = read(path)
            clean = strip_comments_and_strings(text)
            for mname in members:
                if re.search(rf"\bSite\s*::\s*{mname}\b", clean):
                    bucket[mname].append(rel)
                elif base == "tests" and camel_to_snake(mname) in text:
                    bucket[mname].append(rel)

    for mname in members:
        site = {"site": mname, "name": camel_to_snake(mname),
                "injection_sites": src_uses[mname],
                "tests": test_uses[mname],
                "stats_counter": camel_to_snake(mname) in names}
        summary["sites"].append(site)
        missing = []
        if not src_uses[mname]:
            missing.append("an injection call site in src/")
        if camel_to_snake(mname) not in names:
            missing.append("a kSiteNames stats entry")
        if not test_uses[mname]:
            missing.append("a test reference")
        if missing:
            findings.append(Finding(
                "fault-coverage", "src/fault/fault.h", enum_line, mname,
                f"Site::{mname} lacks " + " and ".join(missing) +
                "; fault sites must ship observable and tested"))
        else:
            summary["covered"] += 1
    return summary


# --------------------------------------------------------------------------
# Rule: stat-registry — declared vs referenced stat/span names
# --------------------------------------------------------------------------

HIST_SUFFIXES = (".count", ".mean", ".p50", ".p90", ".p99", ".max")
COORD_RE = re.compile(r"^([a-z_]+(?:\.[a-z_]+)*)\.ch(\d+)(?:\.d(\d+))?$")
STAT_LIKE_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

REGISTRY_ADD_RE = re.compile(r'registry\.add\(\s*"([^"]+)"')
REGISTRY_ADD_PREFIX_RE = re.compile(
    r'registry\.add\(\s*(?:prefix\s*\+\s*)?"([^"]+)"\s*\+?')
SCALAR_RE = re.compile(r'(?:scalar|hist)\(\s*"([^"]+)"')
SCALAR_PREFIX_RE = re.compile(r'(?:scalar|hist)\(\s*\w+\s*\+\s*"(\.[^"]+)"')
SPAN_KIND_RE = re.compile(
    r'(?:beginSpan|internString)\(\s*"([a-z][a-z0-9_.]*)"')
CH_CONCAT_RE = re.compile(r'"\.?ch"\s*\+|"([a-z_.]+\.ch)"\s*\+')
# A registration under a composed variable name,
# `registry.add(name, ...)`, where `name` is a tagged/legacy ternary:
# `tagged ? "queue.ch" + ... : std::string("queue")`. The ternary
# declares the legacy component and the coordinate base.
REGISTRY_ADD_VAR_RE = re.compile(r'registry\.add\(\s*[a-z_]\w*\s*,')
TERNARY_NAME_RE = re.compile(
    r'\?\s*"([a-z_]+(?:\.[a-z_]+)*)\.ch"\s*\+[^;?]*?:\s*'
    r'std::string\(\s*"([a-z_]+(?:\.[a-z_]+)*)"\s*\)')


def empty_declarations() -> dict:
    return {"components": set(), "scalars": set(), "spans": set(),
            "coord_bases": set(), "files": {}}


def declare_names(text: str, rel: str, decl: dict) -> None:
    """Add the stat/span names one src/ file declares to @p decl."""
    for m in REGISTRY_ADD_PREFIX_RE.finditer(text):
        decl["components"].add(m.group(1))
        decl["files"].setdefault(m.group(1), rel)
    if REGISTRY_ADD_VAR_RE.search(text):
        for m in TERNARY_NAME_RE.finditer(text):
            decl["coord_bases"].add(m.group(1))
            decl["components"].add(m.group(2))
            decl["files"].setdefault(m.group(2), rel)
    for m in SCALAR_RE.finditer(text):
        decl["scalars"].add(m.group(1))
    for m in SCALAR_PREFIX_RE.finditer(text):
        decl["scalars"].add("*" + m.group(1))  # suffix pattern
    for m in SPAN_KIND_RE.finditer(text):
        decl["spans"].add(m.group(1))
    for m in CH_CONCAT_RE.finditer(text):
        # A ".ch" concatenation marks coordinate tagging; the base
        # is whatever literal component(s) this file registers.
        for c in REGISTRY_ADD_PREFIX_RE.findall(text):
            decl["coord_bases"].add(c.rstrip("."))


def collect_declared_names(root: pathlib.Path, read=None) -> dict:
    read = read or (lambda p: p.read_text())
    decl = empty_declarations()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in SRC_EXTS or not path.is_file():
            continue
        declare_names(read(path), path.relative_to(root).as_posix(), decl)
    # Fault-site stat rows are derived, not literal.
    fault_cc = root / "src" / "fault" / "fault.cc"
    if fault_cc.is_file():
        am = SITE_NAMES_ARRAY_RE.search(read(fault_cc))
        if am:
            for lit, _ in string_literals(am.group(1)):
                decl["scalars"].add(lit + ".triggers")
                decl["scalars"].add(lit + ".injected")
    return decl


def _declared_component(name: str, decl: dict) -> bool:
    if name in decl["components"]:
        return True
    m = COORD_RE.match(name)
    if m:
        base = m.group(1)
        # "queue.ch0.d0" is declared via the literal "queue.ch" concat
        # or a bare base that topology tags with a suffix.
        if base in decl["components"] or base + ".ch" in \
                {c.rstrip(".") + ".ch" for c in decl["components"]}:
            return True
        if base in decl["coord_bases"]:
            return True
        # "mc.ch0": declared as "mc.ch" + to_string(ch).
        if any(c.endswith(".ch") and base == c[:-3].rstrip(".")
               for c in decl["components"]):
            return True
    return False


def _scalar_declared(name: str, decl: dict) -> bool:
    if name in decl["scalars"] or name in decl["spans"]:
        return True
    for suffix in HIST_SUFFIXES:
        if name.endswith(suffix) and (
                name[:-len(suffix)] in decl["scalars"]):
            return True
    for pattern in decl["scalars"]:
        if pattern.startswith("*") and name.endswith(pattern[1:]):
            return True
    return False


def check_stat_registry(root: pathlib.Path, findings: list,
                        read=None) -> None:
    read = read or (lambda p: p.read_text())
    decl = collect_declared_names(root, read)

    # (a) Dual-naming contract: a name composing BOTH ".ch" and ".d"
    # coordinates (the chC.dD two-coordinate grammar) must provide the
    # 1x1 legacy alternative — an empty suffix, a bare-literal
    # fallback, or a `tagged`-style guard — in the same statement.
    # Channel-only names ("mc.chN") are canonical at every topology
    # and carry no dual-naming obligation.
    for path in sorted((root / "src").rglob("*.cc")):
        if not path.is_file():
            continue
        text = read(path)
        rel = path.relative_to(root).as_posix()
        for m in re.finditer(r'"(\.?[a-z_.]*ch)"\s*\+', text):
            window = text[max(0, m.start() - 400):m.start() + 400]
            if '".d"' not in window and '".d" +' not in window:
                continue
            if ("std::string()" not in window and
                    not re.search(r':\s*std::string\("[a-z_]+"\)', window)
                    and "suffix" not in window
                    and "tagged" not in window):
                findings.append(Finding(
                    "stat-registry", rel, line_of(text, m.start()),
                    m.group(1),
                    "coordinate-tagged stat name has no 1x1 legacy "
                    "fallback in the same registration; at 1x1 the "
                    "legacy (untagged) name must be emitted so "
                    "existing dashboards and goldens keep resolving"))

    # (b) References in tests/: exact component/scalar names pass;
    # near-misses are typos; coordinate grammar must parse.
    known = decl["components"] | decl["scalars"] | decl["spans"]
    for path in sorted((root / "tests").rglob("*.cc")):
        if not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        if is_fixture(rel):
            continue
        text = read(path)
        for lit, pos in string_literals(text):
            if not STAT_LIKE_RE.match(lit) or len(lit) < 4:
                continue
            if "." not in lit:
                continue  # bare words are too ambiguous to audit
            if _declared_component(lit, decl) or _scalar_declared(
                    lit, decl):
                continue
            m = COORD_RE.match(lit)
            if m and not _declared_component(lit, decl):
                findings.append(Finding(
                    "stat-registry", rel, line_of(text, pos), lit,
                    f"test references coordinate stat '{lit}' whose "
                    f"base '{m.group(1)}' no src/ registration "
                    "declares — orphan or typo"))
                continue
            best, dist = None, 3
            for cand in known:
                d = edit_distance(lit, cand, cap=2)
                if d < dist:
                    best, dist = cand, d
            if best is not None and dist <= 2:
                findings.append(Finding(
                    "stat-registry", rel, line_of(text, pos), lit,
                    f"test references stat name '{lit}' which no src/ "
                    f"code declares; did you mean '{best}'?"))

    # (c) bench/baselines rows: every gated metric key must be emitted
    # by some bench source, else the baseline gates a phantom metric.
    bench_srcs = ""
    bench_dir = root / "bench"
    if bench_dir.is_dir():
        for path in sorted(bench_dir.glob("*")):
            if path.suffix in SRC_EXTS and path.is_file():
                bench_srcs += read(path)
    baselines = root / "bench" / "baselines"
    if baselines.is_dir() and bench_srcs:
        for bpath in sorted(baselines.glob("*.json")):
            try:
                doc = json.loads(read(bpath))
            except (ValueError, OSError):
                findings.append(Finding(
                    "stat-registry",
                    bpath.relative_to(root).as_posix(), 1,
                    bpath.name, "baseline file is not valid JSON"))
                continue
            rel = bpath.relative_to(root).as_posix()
            keys = set()
            for row in doc.get("results", []):
                keys.update(k for k, v in row.items()
                            if isinstance(v, (int, float)))
            for key in sorted(keys):
                # JSON keys appear in bench sources as escaped
                # literals: << "\"key\": " — match both forms.
                if not re.search(r'\\?"' + re.escape(key) + r'\\?"',
                                 bench_srcs):
                    findings.append(Finding(
                        "stat-registry", rel, 1, key,
                        f"baseline metric '{key}' is emitted by no "
                        "bench/*.cc — stale row or emitter typo; the "
                        "bench gate would fail on a missing metric"))


# --------------------------------------------------------------------------
# Rule: mmio-map — register map shape + window-helper-only access
# --------------------------------------------------------------------------

MMIO_ENUM_RE = re.compile(r"enum\s+class\s+MmioReg[^{]*\{(.*?)\}",
                          re.DOTALL)
MMIO_ENTRY_RE = re.compile(r"(\w+)\s*=\s*(0[xX][0-9a-fA-F]+|\d+)")
MMIO_BYTES_RE = re.compile(
    r"kMmioBytes\s*=\s*(\d+)\s*ULL\s*<<\s*(\d+)|kMmioBytes\s*=\s*(\d+)")
MMIO_REG_BYTES = 64

# Files allowed to touch mmio_base / decode MmioReg numerically: the
# config that defines the window, the driver (host-side window
# helper), the device decoder, and the topology factory that rebases
# per-slot windows.
MMIO_RAW_ALLOWED = {
    "src/smartdimm/config.h",
    "src/compcpy/driver.h",
    "src/smartdimm/buffer_device.h",
    "src/smartdimm/buffer_device.cc",
    "src/topo/topology.h",
    "src/topo/topology.cc",
}


def check_mmio_map(root: pathlib.Path, findings: list, read=None):
    read = read or (lambda p: p.read_text())
    config_h = root / "src" / "smartdimm" / "config.h"
    window_bytes = 1 << 20
    entries = []
    if config_h.is_file():
        clean = strip_comments_and_strings(read(config_h))
        wm = MMIO_BYTES_RE.search(clean)
        if wm:
            if wm.group(1):
                window_bytes = int(wm.group(1)) << int(wm.group(2))
            else:
                window_bytes = int(wm.group(3))
        em = MMIO_ENUM_RE.search(clean)
        if em:
            base_line = line_of(clean, em.start(1))
            for entry in MMIO_ENTRY_RE.finditer(em.group(1)):
                name, value = entry.group(1), int(entry.group(2), 0)
                lineno = base_line + em.group(1).count(
                    "\n", 0, entry.start())
                entries.append((name, value, lineno))

    rel_cfg = "src/smartdimm/config.h"
    seen = {}
    for name, value, lineno in entries:
        if value % 8 != 0:
            findings.append(Finding(
                "mmio-map", rel_cfg, lineno, name,
                f"MmioReg::{name} = {value:#x} is not 8-byte aligned; "
                "the DSA decoder does 64-bit MMIO loads"))
        if value in seen:
            findings.append(Finding(
                "mmio-map", rel_cfg, lineno, name,
                f"MmioReg::{name} = {value:#x} collides with "
                f"MmioReg::{seen[value]}"))
        else:
            seen[value] = name
        if value + MMIO_REG_BYTES > window_bytes:
            findings.append(Finding(
                "mmio-map", rel_cfg, lineno, name,
                f"MmioReg::{name} = {value:#x} does not fit the "
                f"{window_bytes:#x}-byte per-DIMM MMIO window; the "
                "topology's rebased windows would overlap the next "
                "slot"))
    # 64-byte register granularity: registers are full MMIO bursts,
    # so any two offsets closer than 64 bytes overlap.
    ordered = sorted((v, n, ln) for n, v, ln in entries)
    for (v1, n1, _), (v2, n2, ln2) in zip(ordered, ordered[1:]):
        if v2 - v1 < MMIO_REG_BYTES and v1 != v2:  # dup reported above
            findings.append(Finding(
                "mmio-map", rel_cfg, ln2, n2,
                f"MmioReg::{n2} = {v2:#x} overlaps the 64-byte "
                f"register MmioReg::{n1} = {v1:#x}"))

    # Access discipline: outside the allowlist, mmio_base arithmetic
    # and numeric MmioReg casts are banned; MmioReg uses must flow
    # through a .mmio(...) window-helper call.
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in SRC_EXTS or not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        if rel in MMIO_RAW_ALLOWED:
            continue
        clean = strip_comments_and_strings(read(path))
        for m in re.finditer(r"\bmmio_base\b", clean):
            findings.append(Finding(
                "mmio-map", rel, line_of(clean, m.start()), "mmio_base",
                "raw mmio_base arithmetic outside the window helpers; "
                "use Driver::mmio(MmioReg::...) so per-DIMM rebasing "
                "cannot be bypassed"))
        for m in re.finditer(
                r"static_cast\s*<\s*(?:sd::)?Addr\s*>\s*\(\s*"
                r"(?:[\w:]+::)?MmioReg", clean):
            findings.append(Finding(
                "mmio-map", rel, line_of(clean, m.start()), "MmioReg-cast",
                "numeric MmioReg cast outside the window helpers; go "
                "through Driver::mmio()"))
        for m in re.finditer(r"\bMmioReg\s*::\s*k\w+", clean):
            before = clean[max(0, m.start() - 80):m.start()]
            if re.search(r"\bmmio\s*\(\s*(?:[\w:]+::)?$", before):
                continue  # driver.mmio(MmioReg::kX) — the blessed helper
            if re.search(r"\bcase\s*$", before.rstrip()[-8:] + ""):
                continue  # decoder switch (allowlisted files anyway)
            findings.append(Finding(
                "mmio-map", rel, line_of(clean, m.start()), m.group(0),
                f"{m.group(0)} used outside a .mmio(...) window-helper "
                "call; register addresses must come from Driver::mmio()"))


# --------------------------------------------------------------------------
# Rule: addr-arith — narrowing + unit-mixing in address arithmetic
# --------------------------------------------------------------------------

ADDR_AUDITED = (
    "src/mem/address_map.h", "src/mem/address_map.cc",
    "src/mem/dimm_mux.h",
    "src/topo/dispatcher.h", "src/topo/dispatcher.cc",
    "src/cache/cache.h", "src/cache/cache.cc",
    "src/cache/memory_system.h", "src/cache/memory_system.cc",
)

NARROW_CAST_RE = re.compile(
    r"static_cast\s*<\s*(unsigned(?:\s+int)?|int|std::uint(?:8|16|32)_t)"
    r"\s*>\s*\(")
MAGIC_UNIT_RES = [
    (re.compile(r"(?:>>|<<)\s*6\b"),
     "magic shift by 6; use kLineBits (line<->byte) or kPageLineBits "
     "(line<->page) so the unit conversion is named"),
    (re.compile(r"(?:>>|<<)\s*12\b"),
     "magic shift by 12; use kPageBits for byte<->page conversions"),
    (re.compile(r"[*/%]\s*64\b(?!\s*['\w])"),
     "magic 64 in address arithmetic; use kCacheLineSize or "
     "kLinesPerPage"),
    (re.compile(r"&\s*63\b"),
     "magic mask 63; use (kCacheLineSize - 1) or (kLinesPerPage - 1)"),
    (re.compile(r"\b4096\b"),
     "magic 4096 in address arithmetic; use kPageSize"),
]
LINEISH_RE = re.compile(r"\b\w*lines?\w*\b", re.IGNORECASE)
BYTEISH_RE = re.compile(r"\b\w*bytes?\w*\b", re.IGNORECASE)
UNIT_OK_RE = re.compile(r"kCacheLineSize|kLineBits|kPageSize|kPageBits"
                        r"|kLinesPerPage|kPageLineBits")


def _balanced_extent(text: str, open_pos: int) -> str:
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_pos + 1:i]
    return text[open_pos + 1:]


def check_addr_arith(root: pathlib.Path, findings: list, read=None,
                     audited=ADDR_AUDITED):
    read = read or (lambda p: p.read_text())
    for rel in audited:
        path = root / rel
        if not path.is_file():
            continue
        clean = blank_preprocessor(
            strip_comments_and_strings(read(path)))

        # (a) narrowing casts of div/mod results must be checked.
        for m in NARROW_CAST_RE.finditer(clean):
            arg = _balanced_extent(clean, m.end() - 1)
            if not re.search(r"[/%]", arg):
                continue
            if re.search(r"\b(?:bits|narrowIdx)\s*\(", arg):
                continue
            findings.append(Finding(
                "addr-arith", rel, line_of(clean, m.start()),
                m.group(0).replace(" ", ""),
                f"unchecked narrowing cast of a div/mod result "
                f"('{arg.strip()[:40]}'); route through narrowIdx() "
                "(bound-asserting) or bits() so a geometry bug cannot "
                "silently truncate an index"))

        # (b) magic unit constants.
        for unit_re, msg in MAGIC_UNIT_RES:
            for m in unit_re.finditer(clean):
                findings.append(Finding(
                    "addr-arith", rel, line_of(clean, m.start()),
                    m.group(0).replace(" ", ""), msg))

        # (c) additive mixing of line-unit and byte-unit quantities.
        for stmt_m in re.finditer(r"[^;{}]+", clean):
            stmt = stmt_m.group(0)
            if "+" not in stmt and "-" not in stmt:
                continue
            if UNIT_OK_RE.search(stmt):
                continue
            # Only additive contexts: split on = to get the expression.
            expr = stmt.split("=", 1)[-1]
            lin = LINEISH_RE.search(expr)
            byt = BYTEISH_RE.search(expr)
            if not lin or not byt:
                continue
            between = expr[min(lin.start(), byt.start()):
                           max(lin.end(), byt.end())]
            if re.search(r"[+\-]", between) and "/" not in between \
                    and "*" not in between:
                findings.append(Finding(
                    "addr-arith", rel,
                    line_of(clean, stmt_m.start() +
                            stmt.find(expr.strip()[:1]) if True else 0),
                    f"{lin.group(0)}+{byt.group(0)}",
                    f"additive mix of line-unit '{lin.group(0)}' and "
                    f"byte-unit '{byt.group(0)}' without a "
                    "kCacheLineSize conversion — unit confusion"))


# --------------------------------------------------------------------------
# Rule: dead-parameter — config fields nothing reads or nothing sets,
# and DDR commands nothing issues or MMIO opcodes nothing decodes
# --------------------------------------------------------------------------

PARAM_STRUCT_RE = re.compile(
    r"\bstruct\s+(\w*(?:Config|Params|Timing|Spec|Geometry|Model))\b"
    r"[^;{()]*\{")
# Enums whose enumerators are parameters too: a DDR command nothing
# issues, or an MMIO opcode nothing decodes, is declared but dead.
PARAM_ENUMS = ("DdrCommandType", "MmioOpcode")
PARAM_ENUM_RE = re.compile(
    r"\benum\s+class\s+(" + "|".join(PARAM_ENUMS) + r")\b[^;{]*\{")
NOT_A_FIELD_RE = re.compile(
    r"^\s*(?:static|using|friend|template|typedef|struct|class|enum|"
    r"union)\b")
ACCESS_RE = re.compile(r"\b(?:public|private|protected)\s*:(?!:)")

# Parameters declared but not yet read, each with the reason. The list
# is exact: a fourth unread parameter is a finding, and so is an entry
# whose parameter gains a reader or disappears, so it only shrinks.
# ROADMAP item 2 (enforce the DDR4 timing model) empties it.
DEAD_PARAMETER_BUDGET = {
    "DramTiming::tCCD_S": "tCCD_L applies per bank whatever the group",
    "DramTiming::tWR": "write recovery before PRE is not enforced",
    "DdrCommandType::kRefresh": "the controller never refreshes",
}


# Parameters nothing sets, each with the reason. A field of a parameter
# struct that no file in WRITER_DIRS assigns (`.f =`, `->f =`, a
# designated initializer, a write through a nested member, a memcpy
# into it; see _write_target_type for which struct a write counts
# for) is a fixed value posing as a knob: make it a named constexpr
# next to its reader. Tests and examples are not writers: a value only
# they turn is a setting no product run exercises, so the test should
# reach its state at the constant instead. So is a class member of a
# parameter struct type that nothing assigns, constructor-initialises
# with a value or memcpys into. An entry names one field ("Struct::field"), one member
# ("Class::member") or a whole struct ("Struct"). The list is exact,
# like the one above: an entry that no longer covers an unset field is
# a finding too.
UNSET_PARAMETER_BUDGET = {
    "CostModel": "ROADMAP item 4 calibrates the cost model",
    "CpuParams": "ROADMAP item 4 calibrates the cost model",
    "MemoryParams": "ROADMAP item 4 calibrates the cost model",
    "SmartNicParams": "ROADMAP item 4 calibrates the cost model",
    "QatParams": "ROADMAP item 4 calibrates the cost model",
    "SmartDimmParams": "ROADMAP item 4 calibrates the cost model",
    "CxlParams": "ROADMAP item 4 calibrates the cost model",
    "ServerConfig::model": "the cost model item 4 calibrates",
    "DramTiming": "read only through its one constexpr, kDramTiming",
    "DramGeometry::channel_bytes":
        "test_address_map.cc shrinks the channel to keep its walks short",
    "LossConfig::reorder_prob":
        "the TCP loss-recovery tests drive reordering",
    "LossConfig::burst_len": "the TCP loss-recovery tests drive bursts",
}

# The directories whose writes make a field a knob: the simulator, its
# benches and the repository benchmark.
WRITER_DIRS = ("src", "bench", "perfbench")
# One assignment target: a member chain, then `=` or a compound
# assignment (not `==`). Every member named in the chain is written:
# `spec.llc.size_bytes = x` sets llc as well as size_bytes.
MEMBER_WRITE_RE = re.compile(
    r"((?:(?:\.|->)\s*\w+\s*(?:\[[^\]=;]*\]\s*)*)+)"
    r"(?:[-+*/%|&^]|<<|>>)?=(?!=)")
MEMCPY_INTO_RE = re.compile(
    r"\bmemcpy\s*\(\s*\w+((?:\s*(?:\.|->)\s*\w+)+)")
MEMBER_NAME_RE = re.compile(r"(?:\.|->)\s*(\w+)")


def _is_writer(rel: str) -> bool:
    """Whether a write in @p rel can make a field a knob; tests/ (the
    analyzer's fixtures included) and examples/ cannot."""
    return rel.split("/", 1)[0] in WRITER_DIRS


# A type name: CamelCase, maybe namespace-qualified or a template.
TYPE_NAME = r"((?:\w+::)*[A-Z]\w*)\b(?:\s*<[^;{}()]*>)?"
# What precedes a designated initializer's brace: `T name{`, `T name =
# {` or a temporary `T{`.
BRACED_DECL_RE = re.compile(TYPE_NAME + r"(?:\s*[&*]+\s*|\s+)\w+\s*=?\s*$")
BRACED_TEMP_RE = re.compile(TYPE_NAME + r"\s*$")


def _declared_type(clean: str, var: str, pos: int):
    """The type of variable @p var at offset @p pos of @p clean: its
    nearest declaration before @p pos, else its first one after (a
    class member declared below its use). None when @p clean declares
    no @p var with a CamelCase type (`auto`, a built-in, elsewhere)."""
    found = None
    decl = re.compile(TYPE_NAME + r"(?:\s+const\b)?\s*[&*]*\s*\b" +
                      re.escape(var) + r"\s*(?=[;,)={(\[])")
    for m in decl.finditer(clean):
        if m.start() >= pos and found:
            break
        found = m
    return found.group(1).split("::")[-1] if found else None


def _enclosing_brace(clean: str, pos: int):
    """Offset of the `{` that opens the braced list around @p pos, or
    None when a parenthesis, bracket or statement end comes first."""
    depth = 0
    for i in range(pos - 1, -1, -1):
        c = clean[i]
        if c in ")]}":
            depth += 1
        elif c in "([{":
            if depth == 0:
                return i if c == "{" else None
            depth -= 1
        elif c == ";" and depth == 0:
            return None
    return None


def _write_target_type(clean: str, chain_start: int):
    """The type whose member the write chain at @p chain_start names
    first: a designated initializer's `T{` or `T name{`, or the
    declared type of the base variable in `x.f =`/`x->f =`. None when
    unresolved."""
    prev = clean[:chain_start].rstrip()
    if prev.endswith(("{", ",")):
        brace = len(prev) - 1 if prev.endswith("{") else \
            _enclosing_brace(clean, len(prev) - 1)
        if brace is None:
            return None
        before = clean[:brace].rstrip()
        m = BRACED_DECL_RE.search(before) or BRACED_TEMP_RE.search(before)
        return m.group(1).split("::")[-1] if m else None
    base = re.search(r"\b([A-Za-z_]\w*)$", prev)
    return _declared_type(clean, base.group(1), chain_start) if base \
        else None


def _written_members(files: dict) -> tuple:
    """The members some writer file in @p files (comment-stripped
    source) assigns: a set of (type, member) for writes whose target
    type resolves in the same file, and a set of bare member names for
    the rest (and for every member past the first of a chain)."""
    typed, named = set(), set()
    for rel, clean in files.items():
        if not _is_writer(rel):
            continue
        for regex in (MEMBER_WRITE_RE, MEMCPY_INTO_RE):
            for m in regex.finditer(clean):
                names = MEMBER_NAME_RE.findall(m.group(1))
                owner = _write_target_type(clean, m.start(1))
                if owner:
                    typed.add((owner, names[0]))
                    names = names[1:]
                named.update(names)
    return typed, named


def _is_function(stmt: str) -> bool:
    paren, eq = stmt.find("("), stmt.find("=")
    return paren >= 0 and (eq < 0 or paren < eq)


def _struct_fields(body: str) -> list:
    """(name, offset in body, declared type) of each data member
    declared at the top level of a struct body; member functions,
    nested types and static members are skipped."""
    flat, depth, closes = list(body), 0, set()
    for i, c in enumerate(body):
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                closes.add(i)
        elif depth == 0 or c == "\n":
            continue
        flat[i] = " "
    flat = "".join(flat)
    fields, start = [], 0
    for i, c in enumerate(flat):
        if c != ";" and i not in closes:
            continue
        stmt = ACCESS_RE.sub(" ", flat[start:i])
        if c != ";" and not _is_function(stmt):
            continue  # a brace initializer: the ';' ends the member
        stmt_start, start = start, i + 1
        if not stmt.strip() or NOT_A_FIELD_RE.match(stmt) or \
                _is_function(stmt):
            continue
        decl = re.sub(r"\[[^\]]*\]", " ", stmt.split("=")[0])
        decl = re.sub(r"\s:\s*\d+\s*$", " ", decl)  # bit-field width
        m = re.search(r"\S\s*[&*\s]\s*(\w+)\s*$", decl)
        if m:
            fields.append((m.group(1), stmt_start + stmt.find(m.group(1)),
                           decl[:m.start(1)]))
    return fields


def dead_parameter_findings(files: dict, budget: dict,
                            writers: dict = None,
                            unset_budget: dict = None) -> list:
    """@p files maps repo-relative src/ paths to comment-stripped
    source. With @p writers, the same map for every file under
    WRITER_DIRS, a field none of them sets is a finding too unless
    @p unset_budget lists it, and so is a class member of a parameter
    struct type none of them sets."""
    declared = []  # (qualified name, bare name, rel, line)
    param_types = set()
    for rel, clean in sorted(files.items()):
        for m in PARAM_STRUCT_RE.finditer(clean):
            param_types.add(m.group(1))
            close = _matching_brace(clean, m.end() - 1)
            if close is None:
                continue
            for name, off, _ in _struct_fields(clean[m.end():close]):
                declared.append((f"{m.group(1)}::{name}", name, rel,
                                 line_of(clean, m.end() + off)))
        for m in PARAM_ENUM_RE.finditer(clean):
            close = _matching_brace(clean, m.end() - 1)
            body = clean[m.end():close]
            for e in re.finditer(r"(?:^|,)\s*(k\w+)", body):
                declared.append((f"{m.group(1)}::{e.group(1)}",
                                 e.group(1), rel,
                                 line_of(clean, m.end() + e.start(1))))

    text = "\n".join(files.values())
    uses = Counter(re.findall(r"\w+", text))
    writes = Counter(re.findall(r"(?:\.|->)\s*(\w+)\s*=(?!=)", text))
    decls = Counter(name for _, name, _, _ in declared)
    findings, seen = [], set()
    for qual, name, rel, line in declared:
        seen.add(qual)
        read = uses[name] - writes[name] - decls[name] > 0
        if not read and qual not in budget:
            findings.append(Finding(
                "dead-parameter", rel, line, qual,
                f"{qual} is declared but nothing in src/ reads it: "
                "enforce it or delete it (a parameter that is declared "
                "and never read is a bug)"))
        elif read and qual in budget:
            findings.append(Finding(
                "dead-parameter", rel, line, qual,
                f"{qual} is read now: remove it from "
                "DEAD_PARAMETER_BUDGET in tools/sdcheck.py"))
    for qual in sorted(set(budget) - seen):
        findings.append(Finding(
            "dead-parameter", "tools/sdcheck.py", 1, qual,
            f"DEAD_PARAMETER_BUDGET lists {qual}, which is no longer "
            "declared: remove the entry"))
    if writers is not None:
        findings.extend(_unset_findings(
            declared, _param_members(files, param_types),
            writers, unset_budget or {}))
    return findings


# A class or struct head: name, optional `final`, optional base list.
CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(\w+(?:::\w+)*)\s*(?:final\b\s*)?"
    r"(?::[^;{()]*)?\{")


def _param_members(files: dict, param_types: set) -> list:
    """(Class::member, member, rel, line) of each data member whose
    type is a parameter struct, in classes and structs that are not
    parameter structs themselves (their fields are checked by name)."""
    if not param_types:
        return []
    type_re = re.compile(
        r"\b(?:" + "|".join(sorted(param_types)) + r")\b")
    members = []
    for rel, clean in sorted(files.items()):
        for m in CLASS_HEAD_RE.finditer(clean):
            if m.group(1) in param_types:
                continue
            close = _matching_brace(clean, m.end() - 1)
            if close is None:
                continue
            for name, off, decl in _struct_fields(clean[m.end():close]):
                if type_re.search(decl) and not re.search(r"[&*]", decl):
                    members.append((f"{m.group(1)}::{name}", name, rel,
                                    line_of(clean, m.end() + off)))
    return members


def _member_set(name: str, text: str) -> bool:
    """Whether @p text gives member @p name a value: an assignment to
    it or through it, a constructor initializer with an argument, or a
    memcpy into it. Its default member initializer does not count."""
    n = re.escape(name)
    return bool(
        re.search(rf"\b{n}\b(?:\s*(?:\.|->)\s*\w+|\s*\[[^\]=;]*\])*"
                  r"\s*(?:[-+*/%|&^]|<<|>>)?=(?!=)", text) or
        re.search(rf"[:,]\s*{n}\s*[({{]\s*[^\s)}}]", text) or
        re.search(rf"\bmemcpy\s*\(\s*&?\s*{n}\b", text))


def _unset_findings(declared: list, members: list, writers: dict,
                    budget: dict) -> list:
    typed, named = _written_members(writers)
    text = "\n".join(clean for rel, clean in writers.items()
                     if _is_writer(rel))
    unset = [(qual, rel, line) for qual, name, rel, line in declared
             if qual.split("::")[0] not in PARAM_ENUMS and
             name not in named and
             (qual.split("::")[0], name) not in typed]
    unset += [(qual, rel, line) for qual, name, rel, line in members
              if not _member_set(name, text)]
    findings, used = [], set()
    for qual, rel, line in unset:
        entry = next((k for k in (qual, qual.split("::")[0])
                      if k in budget), None)
        if entry:
            used.add(entry)
            continue
        findings.append(Finding(
            "dead-parameter", rel, line, "unset " + qual,
            f"nothing in {', '.join(WRITER_DIRS)} sets {qual}, and a "
            "write under tests/ or examples/ does not count: make it a "
            "named constexpr next to its reader and let the tests reach "
            "their state at it (a knob no product run turns is a "
            "constant)"))
    for entry in sorted(set(budget) - used):
        findings.append(Finding(
            "dead-parameter", "tools/sdcheck.py", 1, "unset " + entry,
            f"UNSET_PARAMETER_BUDGET lists {entry}, which no unset "
            "field matches any more: remove the entry"))
    return findings


def check_dead_parameters(root: pathlib.Path, findings: list,
                          budget: dict = DEAD_PARAMETER_BUDGET,
                          unset_budget: dict = UNSET_PARAMETER_BUDGET):
    writers = {}
    for sub in WRITER_DIRS:
        for p in sorted((root / sub).rglob("*")):
            if p.suffix in SRC_EXTS and p.is_file():
                writers[p.relative_to(root).as_posix()] = \
                    strip_comments_and_strings(p.read_text())
    files = {rel: clean for rel, clean in writers.items()
             if rel.startswith("src/") and
             pathlib.PurePosixPath(rel).suffix in SRC_EXTS}
    findings.extend(dead_parameter_findings(files, budget, writers,
                                            unset_budget))


# --------------------------------------------------------------------------
# Rule family: per-file — plain regex rules over one file's text
# --------------------------------------------------------------------------

RANDOM_RE = re.compile(r"\b(?:srand|rand)\s*\(|std\s*::\s*random_device")
IOSTREAM_RE = re.compile(r"^\s*#\s*include\s*<iostream>", re.MULTILINE)
GUARD_RE = re.compile(
    r"^\s*#\s*ifndef\s+(SD_\w+)\s*$\s*^\s*#\s*define\s+\1\s*$",
    re.MULTILINE)
ASSERT_RE = re.compile(r"\bSD_ASSERT\s*\(")
QUEUE_BYPASS_RE = re.compile(r"\bstartOp\s*\(")
WAKEUP_BYPASS_RE = re.compile(r"\bschedule(?:In)?\s*\([^;]*schedulePass",
                              re.DOTALL)
# Only construction matches: references, pointers, container element
# types and template parameters are uses.
TOPOLOGY_CTOR_RE = re.compile(
    r"\bnew\s+(?:[\w:]+\s*::\s*)?(?:MemorySystem|BufferDevice)\b"
    r"|\bmake_unique\s*<\s*[\w:]*(?:MemorySystem|BufferDevice)\s*>"
    r"|\b(?:MemorySystem|BufferDevice)\s+\w+\s*[({]")

# Modules threaded with fault-injection sites (src/fault): code here
# runs under the chaos soak, so a *new* SD_ASSERT is usually a panic on
# a recoverable path — prefer a degraded-mode completion (kDegraded,
# rejected registration, bounded retry) and a stat. The budgets count
# the asserts that guard genuine programming errors, exactly: a file
# above *or* below its budget is a finding, so budgets only ratchet.
INJECTED_MODULES = ("mem", "smartdimm", "compcpy", "net")
RECOVERABLE_ASSERT_BUDGET = {
    "src/mem/address_map.cc": 2,  # construction-time geometry invariants
    "src/mem/cxl_link.cc": 2,  # construction-time link-config invariants
    "src/mem/bank_state.h": 1,
    "src/mem/dimm_mux.h": 2,  # chip-select decode of a malformed coord
    "src/mem/memory_controller.cc": 2,
    "src/smartdimm/buffer_device.cc": 2,
    "src/smartdimm/config_memory.cc": 4,
    "src/smartdimm/cuckoo_table.cc": 1,
    "src/smartdimm/deflate_dsa.cc": 2,
    "src/smartdimm/scratchpad.cc": 8,
    "src/smartdimm/tls_dsa.cc": 3,
    "src/smartdimm/bank_table.h": 1,
    "src/compcpy/compcpy.cc": 3,
    "src/compcpy/offload_engine.cc": 1,
    "src/compcpy/queue.cc": 6,
    "src/compcpy/driver.h": 2,
    "src/net/tcp_stream.cc": 1,
}

# startOp() is CompCpyEngine's private execution hook; only the queue
# (which owns dispatch ordering) and the engine itself (declaration and
# definition) may name it. Any other call site skips descriptor
# accounting, completion records and the per-queue fallback decision.
QUEUE_BYPASS_ALLOWED = {
    "src/compcpy/compcpy.h",
    "src/compcpy/compcpy.cc",
    "src/compcpy/queue.cc",
}

# requestPass() is the only place allowed to put a schedulePass() event
# on the queue: it owns the pending-pass flag, the pass epoch and the
# wakeups_requested/coalesced accounting. The budget is the sites the
# regex sees there: the uncoalesced reference mode. (The epoch-guarded
# lambda has a ';' before its schedulePass() call, so it never matches.)
WAKEUP_BYPASS_BUDGET = {
    "src/mem/memory_controller.cc": 1,
}

# The factory computes the per-slot capacity windows, rebases each
# device's MMIO base into its slot, threads fault scopes and keeps the
# per-device stat names consistent. A hand-wired rig silently gets one
# global MMIO window and unscoped faults. Each test listed here wires
# components directly because the wiring itself is what it checks.
TOPOLOGY_CTOR_ALLOWED = {
    "src/topo/topology.h": "the factory itself",
    "src/topo/topology.cc": "the factory itself",
    "tests/topo/test_topology.cc":
        "the hand-wired 1x1 reference the factory must reproduce",
    "tests/cache/test_memory_system.cc":
        "MemorySystem over PlainDimms, with no buffer device at all",
    "tests/fault/test_alert_recovery.cc":
        "MemorySystem over an AlertingDimm that storms ALERT_N",
}


def _each_match(rule: str, rel: str, clean: str, regex, msg: str) -> list:
    return [Finding(rule, rel, line_of(clean, m.start()),
                    " ".join(m.group(0).split()), msg)
            for m in regex.finditer(clean)]


def _exact_budget(rule: str, rel: str, clean: str, regex, budget: int,
                  what: str, over_msg: str) -> list:
    matches = list(regex.finditer(clean))
    if len(matches) == budget:
        return []
    if len(matches) > budget:
        line, advice = line_of(clean, matches[budget].start()), over_msg
    else:
        line, advice = 1, ("lower the budget in tools/sdcheck.py so it "
                           "keeps matching the code")
    return [Finding(rule, rel, line, what,
                    f"{rel} has {len(matches)} {what} site(s), budget "
                    f"{budget}: {advice}")]


def check_topology_construction(rel: str, clean: str) -> list:
    if rel in TOPOLOGY_CTOR_ALLOWED:
        return []
    return _each_match(
        "topology-construction", rel, clean, TOPOLOGY_CTOR_RE,
        "construct MemorySystem/BufferDevice through the topo::Topology "
        "factory (topo/topology.h): it owns the address windows, rebased "
        "MMIO bases, fault scopes and stat names (a test whose subject is "
        "the wiring itself goes in TOPOLOGY_CTOR_ALLOWED with a reason)")


def check_per_file(rel: str, text: str, clean: str) -> list:
    """All seven per-file rules over one src/ file."""
    findings = _each_match(
        "determinism", rel, clean, RANDOM_RE,
        "rand()/srand()/std::random_device breaks replayability; use "
        "sd::Rng seeded from the config")
    if rel.endswith(".h"):
        findings += _each_match(
            "iostream", rel, clean, IOSTREAM_RE,
            "<iostream> in a header drags the ios_base initialiser into "
            "every TU; take std::ostream& instead")
        if not GUARD_RE.search(text):
            findings.append(Finding(
                "guards", rel, 1, "include-guard",
                "header lacks an #ifndef SD_* include guard"))
    parts = rel.split("/")
    if len(parts) >= 2 and parts[-2] in INJECTED_MODULES:
        findings += _exact_budget(
            "recoverable-assert", rel, clean, ASSERT_RE,
            RECOVERABLE_ASSERT_BUDGET.get(rel, 0), "SD_ASSERT",
            "this module runs under fault injection — handle the failure "
            "as a degraded mode (retry/reject/kDegraded + stat) or, for a "
            "genuine invariant, raise RECOVERABLE_ASSERT_BUDGET in "
            "tools/sdcheck.py")
    if rel not in QUEUE_BYPASS_ALLOWED:
        findings += _each_match(
            "queue-bypass", rel, clean, QUEUE_BYPASS_RE,
            "startOp() bypasses the work-queue front end; submit a "
            "Descriptor through the device's WorkQueue (or call its "
            "run()) so the call is accounted and reaped")
    findings += _exact_budget(
        "wakeup-bypass", rel, clean, WAKEUP_BYPASS_RE,
        WAKEUP_BYPASS_BUDGET.get(rel, 0), "schedulePass",
        "scheduling schedulePass() directly bypasses requestPass() wakeup "
        "coalescing; call requestPass(when) instead (or, for a new "
        "legitimate site inside it, raise WAKEUP_BYPASS_BUDGET in "
        "tools/sdcheck.py)")
    return findings + check_topology_construction(rel, clean)


# --------------------------------------------------------------------------
# Driver: run all rules over the tree
# --------------------------------------------------------------------------


def run_analysis(root: pathlib.Path):
    """@return (findings, fault_summary)."""
    findings = []

    # Per-file rules over every src/ translation unit.
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in SRC_EXTS or not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        text = path.read_text()
        clean = strip_comments_and_strings(text)
        findings.extend(check_per_file(rel, text, clean))

    # bench/, examples/ and tests/ build systems too, so the
    # topology-construction rule (and only it) extends there. The
    # analyzer's fixtures are inputs, not rigs.
    for sub in ("bench", "examples", "tests"):
        for path in sorted((root / sub).rglob("*")):
            rel = path.relative_to(root).as_posix()
            if (path.suffix in SRC_EXTS | {".cpp"} and path.is_file() and
                    not is_fixture(rel)):
                findings.extend(check_topology_construction(
                    rel, strip_comments_and_strings(path.read_text())))

    # Cross-module rules.
    fault_summary = check_fault_coverage(root, findings)
    check_stat_registry(root, findings)
    check_mmio_map(root, findings)
    check_addr_arith(root, findings)
    check_dead_parameters(root, findings)
    return findings, fault_summary


# --------------------------------------------------------------------------
# Baseline contract (same shape as bench_gate: committed file, fail on
# unbaselined, warn on stale, --update-baseline adopts)
# --------------------------------------------------------------------------


def load_baseline(path: pathlib.Path) -> list:
    if not path.is_file():
        return []
    doc = json.loads(path.read_text())
    return [(e["rule"], e["file"], e["context"]) for e in
            doc.get("findings", [])]


def apply_baseline(findings: list, baseline: list):
    """@return (unbaselined, stale)."""
    budget = {}
    for key in baseline:
        budget[key] = budget.get(key, 0) + 1
    unbaselined = []
    for f in findings:
        if budget.get(f.key(), 0) > 0:
            budget[f.key()] -= 1
        else:
            unbaselined.append(f)
    stale = [k for k, n in budget.items() for _ in range(n) if n > 0]
    return unbaselined, stale


def write_baseline(findings: list, path: pathlib.Path):
    doc = {"findings": [
        {"rule": f.rule, "file": f.file, "context": f.context}
        for f in sorted(findings, key=lambda f: f.key())]}
    path.write_text(json.dumps(doc, indent=2) + "\n")


# --------------------------------------------------------------------------
# Self test — embedded corpus + on-disk fixtures (tests/tools/fixtures)
# --------------------------------------------------------------------------

def _sites(asserts: int = 0, wakeups: int = 0) -> str:
    """Source with @p asserts SD_ASSERTs and @p wakeups direct
    schedulePass() sites: a case naming a budgeted file holds the
    budgets it does not test, so rules don't cross-report."""
    return ("void g() {" + " SD_ASSERT(a, \"x\");" * asserts + " }\n" +
            "void r() { events_.schedule(t, [this] { schedulePass(); }); }\n"
            * wakeups)


PER_FILE_SELF_TESTS = [
    # (name, source, suffix, expected rule names); a "/" in the name
    # makes it the module-relative path under src/.
    ("rand-call", "int f() { return rand(); }", ".cc", ["determinism"]),
    ("srand-call", "void f() { srand(42); }", ".cc", ["determinism"]),
    ("random-device", "#include <random>\nstd::random_device rd;", ".cc",
     ["determinism"]),
    ("rand-in-comment", "// rand() is banned\nint f() { return 0; }", ".cc",
     []),
    ("rand-in-string",
     '#ifndef SD_X_H\n#define SD_X_H\nconst char *k = "rand()";\n#endif',
     ".h", []),
    ("rand-substring", "int grand() { return strand(); }", ".cc", []),
    ("digit-separator", "long n = 100'000;\nint f() { return rand(); }",
     ".cc", ["determinism"]),  # the quote opens no char literal
    ("iostream-header",
     "#ifndef SD_A_H\n#define SD_A_H\n#include <iostream>\n#endif", ".h",
     ["iostream"]),
    ("iostream-impl", "#include <iostream>\nint x;", ".cc", []),
    ("guard-missing", "int x;", ".h", ["guards"]),
    # recoverable-assert
    ("mem/new_unit", "void f() { SD_ASSERT(x, \"boom\"); }", ".cc",
     ["recoverable-assert"]),
    ("mem/memory_controller", _sites(2, 1), ".cc", []),  # at budget
    ("mem/memory_controller", _sites(3, 1), ".cc",
     ["recoverable-assert"]),  # above budget
    ("mem/memory_controller", _sites(1, 1), ".cc",
     ["recoverable-assert"]),  # below budget: lower it
    ("trace/trace", "void f() { SD_ASSERT(x, \"fine\"); }", ".cc",
     []),  # not an injected module
    ("mem/new_unit2", "// SD_ASSERT(x) would be wrong here\nint x;",
     ".cc", []),  # comments don't count
    # queue-bypass
    ("compcpy/rogue_caller", "void f() { engine.startOp(p, s, cb); }",
     ".cc", ["queue-bypass"]),
    ("compcpy/queue", _sites(6) + "void f() { engine_.startOp(p, s, cb); }",
     ".cc", []),  # the queue is the blessed dispatcher
    ("compcpy/compcpy", _sites(3) + "void f() { startOp(p, s, cb); }",
     ".cc", []),  # the engine's own definition
    ("smartdimm/rogue2", "// startOp() is off limits\nint x;", ".cc",
     []),  # comments don't count
    # wakeup-bypass
    ("mem/rogue_scheduler",
     "void f() { events_.schedule(t, [this] { schedulePass(); }); }",
     ".cc", ["wakeup-bypass"]),
    ("mem/rogue_scheduler2",
     "void f() { events_.scheduleIn(5, [this] { schedulePass(); }); }",
     ".cc", ["wakeup-bypass"]),
    # requestPass() as written: the epoch-guarded lambda's ';' hides
    # its schedulePass() from the regex, so one site counts.
    ("mem/memory_controller", _sites(2, 1) +
     "void b() { events_.schedule(t, [this, e] {\n"
     "  if (e != epoch_) return; schedulePass(); }); }", ".cc", []),
    ("mem/memory_controller", _sites(2, 2), ".cc",
     ["wakeup-bypass"]),  # a second site is over budget
    ("mem/memory_controller", _sites(2, 3), ".cc",
     ["wakeup-bypass"]),  # so is a third
    ("mem/ok_request", "void f() { requestPass(clock_.nextEdge(now)); }",
     ".cc", []),  # the blessed entry point
    ("mem/comment_only", "// events_.schedule(t, schedulePass) is banned\n",
     ".cc", []),  # comments don't count
    # topology-construction
    ("cache/rogue_rig",
     "void f() { cache::MemorySystem memory(e, g, i, c, d); }", ".cc",
     ["topology-construction"]),
    ("smartdimm/rogue_dimm",
     "void f() { smartdimm::BufferDevice dimm(e, m, s); }", ".cc",
     ["topology-construction"]),
    ("app/rogue_ptr",
     "auto m = std::make_unique<cache::MemorySystem>(a, b);", ".cc",
     ["topology-construction"]),
    ("app/rogue_new",
     "auto *d = new smartdimm::BufferDevice(a, b, c);", ".cc",
     ["topology-construction"]),
    ("topo/topology",
     "void f() { cache::MemorySystem memory(a, b); }", ".cc",
     []),  # the factory itself is the blessed construction site
    ("cache/ref_ok",
     "void f(cache::MemorySystem &m, smartdimm::BufferDevice *d) "
     "{ m.writeSync(0, p, n); }", ".cc",
     []),  # references and pointers are uses, not construction
    ("cache/member_ok",
     "void f() { std::deque<smartdimm::BufferDevice> pool; }", ".cc",
     []),  # container element types are not construction sites
    ("tests/compcpy/test_end_to_end",
     "void f() { cache::MemorySystem m(e, map, c, d); }", ".cc",
     ["topology-construction"]),  # a test rig growing back
    ("tests/topo/test_topology",
     "void f() { cache::MemorySystem memory(e, map, c, d); }", ".cc",
     []),  # the 1x1 equivalence reference
]


# The dispatcher's form: the registered name is a variable holding a
# tagged/legacy ternary.
_TERNARY_REGISTRATION = (
    "const std::string name =\n"
    "    tagged ? \"queue.ch\" + std::to_string(ch) + \".d\" +\n"
    "                 std::to_string(d)\n"
    "           : std::string(\"queue\");\n"
    "registry.add(name, [&q](trace::StatsBlock &b) { q.report(b); });\n")

STAT_REGISTRY_SELF_TESTS = [
    # (name, src/ source, referenced name, declared?)
    ("ternary-tagged-side", _TERNARY_REGISTRATION, "queue.ch1.d0", True),
    ("ternary-legacy-side", _TERNARY_REGISTRATION, "queue", True),
    ("ternary-other-base", _TERNARY_REGISTRATION, "queues.ch1.d0",
     False),
    ("ternary-never-registered",
     _TERNARY_REGISTRATION.replace("registry.add(name", "use(name"),
     "queue.ch1.d0", False),
]


DEAD_PARAMETER_SELF_TESTS = [
    # (name, {path: source}, budget, expected finding contexts)
    ("field-read",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; };",
      "src/a/use.cc": "int f(const FooConfig &c) { return c.a; }"},
     {}, []),
    ("field-unread",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; int b = 2; };",
      "src/a/use.cc": "int f(const FooConfig &c) { return c.a; }"},
     {}, ["FooConfig::b"]),
    ("write-is-not-a-read",
     {"src/a/cfg.h": "struct BarParams { int a = 1; int b = 2; };",
      "src/a/use.cc": "void f(BarParams &p) { p.b = 3; p.a = 4; }\n"
                      "int g(const BarParams *p) { return p->a; }"},
     {}, ["BarParams::b"]),
    ("compare-is-a-read",
     {"src/a/cfg.h": "struct BarSpec { int b = 2; };",
      "src/a/use.cc": "bool f(const BarSpec &s) { return s.b == 3; }"},
     {}, []),
    ("members-not-fields",
     {"src/a/cfg.h":
         "struct FooTiming {\n  static constexpr int kMax = 1;\n"
         "  enum class Mode { kA, kB };\n  int x{0};\n"
         "  int twice() const { return x * 2; }\n"
         "  unsigned flags : 3;\n  std::uint8_t key[16] = {};\n};",
      "src/a/use.cc": "int f(const FooTiming &t) { return t.flags +"
                      " t.key[0]; }"},
     {}, []),  # x is read by twice(); kMax, Mode and twice are skipped
    ("other-structs-ignored",
     {"src/a/cfg.h": "struct FooState { int unused = 0; };"}, {}, []),
    ("digit-separator",
     {"src/a/cfg.h": "struct FooConfig { long t = 100'000; long u = 2; };",
      "src/a/use.cc": "long f(const FooConfig &c) { return c.t + c.u; }"},
     {}, []),  # the quote must not swallow the rest of the file
    ("ddr-command-unread",
     {"src/mem/cmd.h":
         "enum class DdrCommandType : int { kActivate, kRefresh };",
      "src/mem/mc.cc": "auto t = DdrCommandType::kActivate;"},
     {}, ["DdrCommandType::kRefresh"]),
    ("mmio-opcode-undecoded",
     {"src/smartdimm/mmio_layout.h":
         "enum class MmioOpcode : std::uint16_t\n"
         "{\n    kRegisterTlsPage = 1,\n    kUnregisterPage = 3,\n};",
      "src/smartdimm/buffer_device.cc":
         "bool tls = op == MmioOpcode::kRegisterTlsPage;"},
     {}, ["MmioOpcode::kUnregisterPage"]),
    # Both sides of the exact budget.
    ("budgeted-dead-parameter",
     {"src/mem/cmd.h":
         "enum class DdrCommandType : int { kActivate, kRefresh };",
      "src/mem/mc.cc": "auto t = DdrCommandType::kActivate;"},
     {"DdrCommandType::kRefresh": "not modelled"}, []),
    ("budgeted-parameter-now-read",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; };",
      "src/a/use.cc": "int f(const FooConfig &c) { return c.a; }"},
     {"FooConfig::a": "not enforced"}, ["FooConfig::a"]),
    ("budget-entry-gone",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; };",
      "src/a/use.cc": "int f(const FooConfig &c) { return c.a; }"},
     {"FooConfig::gone": "deleted"}, ["FooConfig::gone"]),
]


UNSET_PARAMETER_SELF_TESTS = [
    # (name, {path: source}, unset budget, expected finding contexts).
    # Every field is read in src/, so only unset findings can appear.
    ("set-in-bench",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; int b = 2; };",
      "src/a/use.cc": "int f(const FooConfig &c) { return c.a + c.b; }",
      "bench/a/b.cc": "void g(FooConfig &c) { c.a = 3; }"},
     {}, ["unset FooConfig::b"]),
    ("set-only-in-tests",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; };",
      "src/a/use.cc": "int f(const FooConfig &c) { return c.a; }",
      "tests/a/t.cc": "void g(FooConfig &c) { c.a = 3; }"},
     {}, ["unset FooConfig::a"]),  # no product run turns it
    ("each-writer-dir-counts",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; int b = 2;\n"
                     "  int c = 3; int d = 4; int e = 5; };",
      "src/a/use.cc": "int f(const FooConfig &c) {\n"
                      "  return c.a + c.b + c.c + c.d + c.e; }\n"
                      "void s(FooConfig *p) { p->a = 1; }",
      "bench/b.cc": "void g(FooConfig &c) { c.b = 3; }",
      "perfbench/p.cc": "void g(FooConfig &c) { c.c = 3; }",
      "examples/e.cpp": "void g(FooConfig &c) { c.d = 3; }",
      "tests/t.cc": "void g(FooConfig &c) { c.e = 3; }"},
     {}, ["unset FooConfig::d", "unset FooConfig::e"]),
    ("designated-nested-memcpy-compound",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; BarSpec inner;\n"
                     "  std::uint8_t key[16]; int n = 0; };\n"
                     "struct BarSpec { int x = 0; };",
      "src/a/use.cc": "int f(const FooConfig &c) {\n"
                      "  return c.a + c.inner.x + c.key[0] + c.n; }",
      "bench/b.cc": "FooConfig c{.a = 2};\n"
                    "void g(FooConfig &c, const std::uint8_t *k) {\n"
                    "  c.inner.x = 1; std::memcpy(c.key, k, 16);\n"
                    "  c.n += 1; }"},
     {}, []),  # c.inner.x = 1 sets both inner and x
    # Both sides of a name collision: a write counts for the type of
    # its target when the same file declares the base variable or the
    # braced type, and by bare name only when it does not.
    ("collision-other-type-sets-nothing",
     {"src/a/cfg.h": "struct FooConfig { int queue = 1; };\n"
                     "struct Doorbell { int queue = 0; };",
      "src/a/use.cc": "int f(const FooConfig &c) { return c.queue; }",
      "bench/b.cc": "void g(Doorbell *p, const Doorbell &d) {\n"
                    "  Doorbell db; db.queue = 2; p->queue = 3;\n"
                    "  sd::Doorbell qc{.queue = 4};\n"
                    "  h(Doorbell{.queue = 5, .queue = 6}); }"},
     {}, ["unset FooConfig::queue"]),
    ("collision-own-type-sets",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; int b = 2;\n"
                     "  int c = 3; };\n"
                     "struct Doorbell { int a = 0; };",
      "src/a/use.cc": "int f(const FooConfig &c) {\n"
                      "  return c.a + c.b + c.c; }",
      "bench/b.cc": "void g(topo::FooConfig &cfg) { Doorbell a;\n"
                    "  a.a = 1; cfg.a = 2; }\n"
                    "auto x = FooConfig{.b = 1};\n"
                    "const FooConfig y = {.a = 0, .c = 2};"},
     {}, []),
    ("collision-unresolved-base-matches-by-name",
     {"src/a/cfg.h": "struct FooConfig { int queue = 1; int id = 2; };\n"
                     "struct Doorbell { int queue = 0; int id = 0; };",
      "src/a/use.cc": "int f(const FooConfig &c) {\n"
                      "  return c.queue + c.id; }",
      "bench/b.cc": "void g(std::vector<Doorbell> &v) {\n"
                    "  v[0].queue = 2; auto &d = v[1]; d.id = 3; }"},
     {}, []),  # an element or an `auto` variable has no declared type
    ("compare-is-not-a-write",
     {"src/a/cfg.h": "struct FooParams { int a = 1; };",
      "src/a/use.cc": "bool f(const FooParams &p) {\n"
                      "  return p.a == 1 || p.a != 2 || p.a <= 3 ||"
                      " p.a >= 4; }"},
     {}, ["unset FooParams::a"]),
    ("fixture-writes-ignored",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; };",
      "src/a/use.cc": "int f(const FooConfig &c) { return c.a; }",
      "tests/tools/fixtures/x/src/w.cc":
          "void g(FooConfig &c) { c.a = 3; }"},
     {}, ["unset FooConfig::a"]),
    # Both sides of the exact budget, by field and by struct.
    ("budgeted-unset-field",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; };",
      "src/a/use.cc": "int f(const FooConfig &c) { return c.a; }"},
     {"FooConfig::a": "calibrated later"}, []),
    ("budgeted-unset-struct",
     {"src/a/cfg.h": "struct FooModel { int a = 1; int b = 2; };",
      "src/a/use.cc": "int f(const FooModel &m) { return m.a + m.b; }"},
     {"FooModel": "calibrated later"}, []),
    ("budgeted-field-now-set",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; };",
      "src/a/use.cc": "int f(FooConfig &c) { c.a = 2; return c.a; }"},
     {"FooConfig::a": "calibrated later"}, ["unset FooConfig::a"]),
    ("budgeted-struct-gone",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; };",
      "src/a/use.cc": "int f(FooConfig &c) { c.a = 2; return c.a; }"},
     {"GoneConfig": "deleted"}, ["unset GoneConfig"]),
    # A class member of a parameter struct type that nothing sets is a
    # per-instance copy of a constant; its default initializer, an
    # empty constructor initializer and reads do not set it.
    ("member-never-set",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; };",
      "src/a/dev.h": "class Dev : public Base {\n"
                     "  public: Dev() : cfg_() {}\n"
                     "  int f() const { return cfg_.a; }\n"
                     "  private: FooConfig cfg_{2}; };",
      "bench/b.cc": "void g(FooConfig &c) { c.a = 3; }"},
     {}, ["unset Dev::cfg_"]),
    ("member-set-each-way",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; };",
      "src/a/dev.h": "class Dev final {\n"
                     "  public: explicit Dev(const FooConfig &c) : x_(0),\n"
                     "      cfg_(c) {}\n"
                     "  int f() const { return cfg_.a + b_.a + c_.a; }\n"
                     "  int x_; FooConfig cfg_; FooConfig b_; FooConfig c_;\n"
                     "  const FooConfig &ref_; FooConfig *ptr_; };",
      "src/a/dev.cc": "void Dev::set(int w) { b_.a = w; }\n"
                      "void Dev::load(const void *p) {\n"
                      "  std::memcpy(&c_, p, sizeof(c_)); }",
      "bench/b.cc": "void g(FooConfig &c) { c.a = 3; }"},
     {}, []),  # a reference or pointer member is not a copy
    ("budgeted-unset-member",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; };",
      "src/a/dev.h": "struct Dev { FooConfig cfg_; };",
      "src/a/use.cc": "int f(FooConfig &c) { c.a = 2; return c.a; }"},
     {"Dev::cfg_": "calibrated later"}, []),
    ("budgeted-member-now-set",
     {"src/a/cfg.h": "struct FooConfig { int a = 1; };",
      "src/a/dev.h": "struct Dev { FooConfig cfg_; };",
      "src/a/use.cc": "int f(FooConfig &c, Dev &d) {\n"
                      "  c.a = 2; d.cfg_ = c; return c.a; }"},
     {"Dev::cfg_": "calibrated later"}, ["unset Dev::cfg_"]),
]


def run_fixture(root: pathlib.Path, rule: str) -> list:
    """Run exactly one rule family over a fixture tree."""
    findings = []
    if rule == "fault-coverage":
        check_fault_coverage(root, findings)
    elif rule == "stat-registry":
        check_stat_registry(root, findings)
    elif rule == "mmio-map":
        check_mmio_map(root, findings)
    elif rule == "addr-arith":
        audited = tuple(
            p.relative_to(root).as_posix()
            for p in sorted((root / "src").rglob("*"))
            if p.suffix in SRC_EXTS and p.is_file())
        check_addr_arith(root, findings, audited=audited)
    elif rule == "dead-parameter":
        check_dead_parameters(root, findings, budget={}, unset_budget={})
    else:
        raise ValueError(f"unknown fixture rule {rule}")
    return findings


def self_test(repo_root: pathlib.Path) -> int:
    failures = 0

    # 1. Embedded per-file corpus. A tests/ case gets only the rule
    # run_analysis() applies there.
    for name, source, suffix, expected in PER_FILE_SELF_TESTS:
        clean = strip_comments_and_strings(source)
        if name.startswith("tests/"):
            findings = check_topology_construction(name + suffix, clean)
        else:
            rel = f"src/{name}{suffix}" if "/" in name else \
                f"<self-test:{name}>{suffix}"
            findings = check_per_file(rel, source, clean)
        got = sorted(f.rule for f in findings)
        if got != sorted(expected):
            failures += 1
            print(f"FAIL per-file/{name}: expected {sorted(expected)}, "
                  f"got {got}")
            for f in findings:
                print(f"    {f}")
        else:
            print(f"ok   per-file/{name}")

    # 2. Embedded stat-registry declaration corpus.
    for name, source, probe, declared in STAT_REGISTRY_SELF_TESTS:
        decl = empty_declarations()
        declare_names(source, "src/topo/self_test.cc", decl)
        if _declared_component(probe, decl) != declared:
            failures += 1
            print(f"FAIL stat-registry/{name}: '{probe}' declared is "
                  f"{not declared}, expected {declared}")
        else:
            print(f"ok   stat-registry/{name}")

    # 3. Embedded dead-parameter corpus, budget included.
    for name, sources, budget, expected in DEAD_PARAMETER_SELF_TESTS:
        files = {rel: strip_comments_and_strings(src)
                 for rel, src in sources.items()}
        got = sorted(f.context
                     for f in dead_parameter_findings(files, budget))
        if got != sorted(expected):
            failures += 1
            print(f"FAIL dead-parameter/{name}: expected "
                  f"{sorted(expected)}, got {got}")
        else:
            print(f"ok   dead-parameter/{name}")

    for name, sources, budget, expected in UNSET_PARAMETER_SELF_TESTS:
        writers = {rel: strip_comments_and_strings(src)
                   for rel, src in sources.items()}
        files = {rel: clean for rel, clean in writers.items()
                 if rel.startswith("src/")}
        got = sorted(f.context
                     for f in dead_parameter_findings(files, {}, writers,
                                                      budget))
        if got != sorted(expected):
            failures += 1
            print(f"FAIL unset-parameter/{name}: expected "
                  f"{sorted(expected)}, got {got}")
        else:
            print(f"ok   unset-parameter/{name}")

    # 4. On-disk fixtures: tests/tools/fixtures/<rule>/{good,bad}/ —
    # good trees must be clean, bad trees must raise >= 1 finding of
    # their rule.
    fixtures = repo_root / "tests" / "tools" / "fixtures"
    if fixtures.is_dir():
        for rule_dir in sorted(fixtures.iterdir()):
            if not rule_dir.is_dir():
                continue
            rule = rule_dir.name.replace("_", "-")
            for kind in ("good", "bad"):
                tree = rule_dir / kind
                if not tree.is_dir():
                    failures += 1
                    print(f"FAIL fixture {rule}/{kind}: missing tree")
                    continue
                findings = run_fixture(tree, rule)
                rule_findings = [f for f in findings if f.rule == rule]
                ok = (not rule_findings) if kind == "good" else \
                    bool(rule_findings)
                if ok:
                    print(f"ok   fixture {rule}/{kind} "
                          f"({len(rule_findings)} finding(s))")
                else:
                    failures += 1
                    print(f"FAIL fixture {rule}/{kind}: "
                          f"{len(rule_findings)} {rule} finding(s)")
                    for f in findings:
                        print(f"    {f}")
    else:
        failures += 1
        print(f"FAIL fixtures directory missing: {fixtures}")

    # 5. Baseline mechanics.
    fs = [Finding("r", "f.cc", 1, "ctx", "m"),
          Finding("r", "f.cc", 2, "ctx", "m"),
          Finding("r2", "g.cc", 3, "other", "m")]
    unb, stale = apply_baseline(fs, [("r", "f.cc", "ctx")])
    if len(unb) == 2 and not stale:
        print("ok   baseline/count-budget")
    else:
        failures += 1
        print(f"FAIL baseline/count-budget: {len(unb)} unbaselined, "
              f"{len(stale)} stale")
    unb, stale = apply_baseline([], [("r", "f.cc", "ctx")])
    if not unb and len(stale) == 1:
        print("ok   baseline/stale-entry")
    else:
        failures += 1
        print("FAIL baseline/stale-entry")

    if failures:
        print(f"sdcheck --self-test: {failures} failure(s)",
              file=sys.stderr)
        return 1
    print("sdcheck --self-test: all cases pass")
    return 0


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def main() -> int:
    repo = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=pathlib.Path, default=repo,
                        help="repository root")
    parser.add_argument("--baseline", type=pathlib.Path, default=None,
                        help="baseline JSON (default: "
                             "tools/sdcheck_baseline.json)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="adopt current findings as the baseline")
    parser.add_argument("--self-test", action="store_true",
                        help="run the analyzer's own corpus + fixtures")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.root)

    root = args.root.resolve()
    baseline_path = args.baseline or root / "tools" / \
        "sdcheck_baseline.json"

    findings, fault_summary = run_analysis(root)
    print(f"sdcheck: {len(findings)} raw finding(s)")

    covered = fault_summary.get("covered", 0)
    total = len(fault_summary.get("sites", []))
    print(f"sdcheck: fault-site coverage {covered}/{total} sites have "
          "injection + stats + test")

    if args.update_baseline:
        write_baseline(findings, baseline_path)
        print(f"sdcheck: baseline written to {baseline_path} "
              f"({len(findings)} entries)")
        return 0

    baseline = load_baseline(baseline_path)
    unbaselined, stale = apply_baseline(findings, baseline)
    for key in stale:
        print(f"sdcheck: stale baseline entry {key} (fixed? run "
              "--update-baseline)")
    for f in unbaselined:
        print(f"{f.file}:{f.line}: [{f.rule}] {f.msg}")
    if unbaselined:
        print(f"sdcheck: {len(unbaselined)} unbaselined finding(s)",
              file=sys.stderr)
        return 1
    print("sdcheck: clean (no unbaselined findings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
