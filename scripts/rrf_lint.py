#!/usr/bin/env python3
"""RRF source lint: determinism, architecture layering, hot-path hygiene.

Grown out of the determinism lint (which it supersedes), this linter
enforces three families of repo-specific rules that neither the compiler
nor clang-tidy can express:

Determinism (the original family — one seed must produce bit-identical
allocations; golden tests, flight-recorder replay and rrf_verify depend
on it):

  raw-rng      rand()/srand()/std::random_device, and any standard
               engine (std::mt19937, std::mt19937_64, std::minstd_rand*,
               std::default_random_engine, std::ranlux*, std::knuth_b and
               the *_engine templates), anywhere except the seeded wrapper
               in src/common/rng.hpp, whose engine is the one the
               simulator draws from.  Unseeded entropy makes runs
               unreproducible; a second engine escapes Rng's forked,
               seed-keyed streams.
  wall-clock   time()/std::chrono::system_clock outside src/obs/.
               Wall-clock timestamps in the decision path leak real time
               into simulated state; observability may timestamp freely.
  prof-clock   std::chrono::steady_clock outside src/obs/.  Monotonic
               time never feeds allocation decisions, but scattering raw
               clock reads through the codebase makes the wall-clock rule
               unenforceable by accretion — timing belongs to the
               profiler/phase scopes (src/obs/) and the handful of
               infrastructure files granted in the allowlist (logger
               timestamps, thread-pool/lock instrumentation).
  unordered    std::unordered_map/std::unordered_set in the deterministic
               paths (src/alloc, src/sim, src/cluster).  Iteration order
               is libstdc++-version- and hash-seed-dependent; use std::map
               or a sorted vector.
  float-eq     == / != against a floating-point literal outside the
               approved helpers in src/common/float_eq.hpp.  Exact float
               comparison is usually a bug; when it is deliberate
               (sentinels, skip-zero fast paths) say so through
               exactly_equal()/is_exact_zero() or a suppression.

Architecture:

  layering     #include edges must follow the module DAG (see
               docs/STATIC_ANALYSIS.md):

                   common -> obs -> {alloc, hypervisor, workload}
                          -> cluster -> sim -> core

               Lower layers never include upward.  The one sanctioned
               exception: the allocation stack (alloc, hypervisor,
               cluster) may include the five obs *hook* headers
               (metrics, profiler, provenance, trace, flightrec) so
               algorithms can emit telemetry without obs growing a
               reverse dependency.  The full obs surface (ops hub,
               journal, incidents, exposition) is reserved for sim/core.

Hot-path hygiene:

  hot-path     Heap-allocating constructs inside the per-round sections
               marked `// rrf-hot-path: begin(<name>)` ... `end(<name>)`
               (src/sim/engine.cpp, src/sim/predictor.cpp,
               src/alloc/rrf.cpp, src/alloc/irt.cpp, src/alloc/iwa.cpp,
               src/alloc/wmmf.cpp, src/alloc/drf.cpp).
               Flagged: `new`, make_unique/make_shared, constructing a
               std:: container/string by value, std::to_string, and
               push_back/emplace_back (reserve + assign scratch instead).
               Code behind the observability/contract guards
               (metrics_enabled(), tracing_enabled(), provenance_sink(),
               contract::armed(), ...) is a cold island and exempt:
               those branches are off in benchmarked configurations.

Suppressions:
  * inline, same line:   // rrf-lint: allow(<rule>[, <rule>...])
                         (the legacy `determinism-lint: allow(...)`
                         spelling is still honoured)
  * repo-wide:           scripts/rrf_lint_allow.txt — lines of
                         "<rule> <path-glob>" (fnmatch against the
                         repo-relative path), '#' comments.

Usage:
  rrf_lint.py [paths...]      lint files/trees (default: src)
  rrf_lint.py --self-test     run the fixture suite in
                              scripts/lint_fixtures/ and exit

Exit status: 0 clean, 1 findings, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import fnmatch
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".h", ".cxx"}

FLOAT_LITERAL = r"(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+"

# rule name -> (regex, path predicate, message).  The predicate receives a
# repo-relative posix path and says whether the rule applies there.
# These are the per-line rules; `layering` and `hot-path` below need file
# structure and are implemented as dedicated passes.
LINE_RULES = {
    "raw-rng": (
        re.compile(r"\bstd::random_device\b|(?<![\w:])s?rand\s*\("
                   r"|\bstd::(?:mt19937(?:_64)?|minstd_rand0?|ranlux\w*|knuth_b"
                   r"|\w+_engine)\b"),
        lambda p: p != "src/common/rng.hpp",
        "unseeded randomness or a raw standard engine; use rrf::Rng "
        "(src/common/rng.hpp)",
    ),
    "wall-clock": (
        re.compile(r"\bsystem_clock\b|(?<![\w:])time\s*\("),
        lambda p: not p.startswith("src/obs/"),
        "wall-clock time outside obs/; simulated time must come from the "
        "engine clock",
    ),
    "prof-clock": (
        re.compile(r"\bsteady_clock\b"),
        lambda p: not p.startswith("src/obs/"),
        "monotonic clock read outside obs/; route timing through "
        "obs/profiler (ProfileScope) or obs/phase, or grant the file in "
        "scripts/rrf_lint_allow.txt",
    ),
    "unordered": (
        re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b"),
        lambda p: p.startswith(("src/alloc/", "src/sim/", "src/cluster/")),
        "hash-ordered container in a deterministic path; iteration order "
        "is not reproducible — use std::map or a sorted vector",
    ),
    "float-eq": (
        re.compile(
            rf"(?:==|!=)\s*[-+]?(?:{FLOAT_LITERAL})"
            rf"|(?:{FLOAT_LITERAL})\s*(?:==|!=)(?!=)"
        ),
        lambda p: p != "src/common/float_eq.hpp",
        "exact floating-point comparison; use approx_eq/approx_le or the "
        "deliberate exactly_equal/is_exact_zero (src/common/float_eq.hpp)",
    ),
}

ALL_RULES = sorted(LINE_RULES) + ["layering", "hot-path"]

# ---------------------------------------------------------------------------
# layering rule: the module DAG
# ---------------------------------------------------------------------------

# module -> modules it may include.  This IS the architecture diagram in
# docs/STATIC_ANALYSIS.md; change them together.
MODULE_DEPS = {
    "common": {"common"},
    "obs": {"common", "obs"},
    "workload": {"common", "workload"},
    "alloc": {"common", "alloc"},
    "hypervisor": {"common", "alloc", "hypervisor"},
    "cluster": {"common", "alloc", "hypervisor", "workload", "cluster"},
    "sim": {"common", "obs", "alloc", "hypervisor", "workload", "cluster",
            "sim"},
    "core": {"common", "obs", "alloc", "hypervisor", "workload", "cluster",
             "sim", "core"},
}

# The telemetry hook headers the allocation stack may include even though
# it does not (and must not) depend on the rest of obs.  Everything here
# is fire-and-forget instrumentation behind a cheap enabled() check.
OBS_HOOK_HEADERS = {
    "obs/metrics.hpp",
    "obs/profiler.hpp",
    "obs/provenance.hpp",
    "obs/trace.hpp",
    "obs/flightrec.hpp",
}
OBS_HOOK_USERS = {"alloc", "hypervisor", "cluster"}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def layering_findings(text: str, rel: str) -> list[dict]:
    """Checks every quoted #include in a src/ file against MODULE_DEPS."""
    parts = rel.split("/")
    if len(parts) < 3 or parts[0] != "src" or parts[1] not in MODULE_DEPS:
        return []  # tests/bench/tools may include anything
    module = parts[1]
    allowed = MODULE_DEPS[module]
    findings = []
    for lineno, line in enumerate(text.splitlines(), 1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        inc = m.group(1)
        inc_module = inc.split("/", 1)[0]
        if inc_module not in MODULE_DEPS or inc_module in allowed:
            continue  # external header, or a sanctioned edge
        if (inc_module == "obs" and module in OBS_HOOK_USERS
                and inc in OBS_HOOK_HEADERS):
            continue  # telemetry hook exception
        hint = (" (only the obs hook headers are allowed here: " +
                ", ".join(sorted(OBS_HOOK_HEADERS)) + ")"
                if inc_module == "obs" else "")
        findings.append({
            "rule": "layering",
            "file": rel,
            "line": lineno,
            "message": f'include of "{inc}" breaks the module DAG: '
                       f"{module} may only include "
                       f"{{{', '.join(sorted(allowed))}}}{hint}",
        })
    return findings


# ---------------------------------------------------------------------------
# hot-path rule: no heap allocation in marked per-round regions
# ---------------------------------------------------------------------------

HOT_MARKER_RE = re.compile(r"rrf-hot-path:\s*(begin|end)\(([\w.]+)\)")

# Branches that only run with an observability/contract feature enabled
# are cold islands: allocation there never taxes a benchmarked round.
GUARD_RE = re.compile(
    r"\b(?:contract::armed|tracing_enabled|metrics_enabled|"
    r"provenance_sink|profiling_enabled)\s*\("
    r"|\bflight_on\b"
    r"|\bif\s*\(\s*traces\s*\)"
)

# Containers whose by-value construction inside a hot region means a
# fresh heap block per round; hoist to caller-owned scratch instead.
CONTAINER_RE = re.compile(
    r"\bstd::(?:vector|deque|list|map|multimap|set|multiset|string|"
    r"basic_string|function|ostringstream|istringstream|stringstream|"
    r"unordered_map|unordered_set)\b"
)

HOT_PATTERNS = [
    (re.compile(r"(?<![\w.])new\b(?!\s*\()"),
     "`new` allocates every round; hoist the buffer to caller scratch"),
    (re.compile(r"(?<![\w.])new\s*\("),
     "`new` allocates every round; hoist the buffer to caller scratch"),
    (re.compile(r"\bstd::make_(?:unique|shared)\b"),
     "make_unique/make_shared allocates every round"),
    (re.compile(r"\bstd::to_string\s*\("),
     "std::to_string builds a heap string per call; format off the hot "
     "path or behind an observability guard"),
    (re.compile(r"\.(?:push_back|emplace_back)\s*\("),
     "push_back/emplace_back may reallocate; size the scratch vector "
     "between rounds and assign by index"),
]


def _skip_template_args(line: str, pos: int) -> int:
    """Given pos at '<', returns the index just past the matching '>'
    (or len(line) if it does not close on this line)."""
    depth = 0
    while pos < len(line):
        c = line[pos]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return pos + 1
        pos += 1
    return pos


def container_constructions(line: str) -> bool:
    """True when the line constructs a std:: container by value (a
    declaration or temporary).  References, pointers and nested-type
    uses (std::vector<T>::size_type) do not allocate and pass."""
    for m in CONTAINER_RE.finditer(line):
        pos = m.end()
        while pos < len(line) and line[pos].isspace():
            pos += 1
        if pos < len(line) and line[pos] == "<":
            pos = _skip_template_args(line, pos)
            if pos >= len(line):
                continue  # template args continue on the next line; punt
            while pos < len(line) and line[pos].isspace():
                pos += 1
        if pos >= len(line):
            continue
        nxt = line[pos]
        if nxt in "&*" or line.startswith("::", pos):
            continue  # reference/pointer/nested type: no construction
        if nxt in ">,)":
            continue  # a template or parameter-list argument, not a decl
        if nxt.isalnum() or nxt == "_" or nxt in "({":
            return True
    return False


def hot_path_findings(text: str, stripped: str, rel: str,
                      suppressed: dict[int, set[str]]) -> list[dict]:
    lines = stripped.splitlines()
    raw_lines = text.splitlines()

    # Region markers live in comments, so scan the raw text.
    regions: list[tuple[str, int, int]] = []
    stack: list[tuple[str, int]] = []
    findings: list[dict] = []
    for lineno, line in enumerate(raw_lines, 1):
        for kind, name in HOT_MARKER_RE.findall(line):
            if kind == "begin":
                stack.append((name, lineno))
            elif not stack or stack[-1][0] != name:
                findings.append({
                    "rule": "hot-path", "file": rel, "line": lineno,
                    "message": f"end({name}) does not match an open "
                               "rrf-hot-path region",
                })
            else:
                begin_name, begin_line = stack.pop()
                regions.append((begin_name, begin_line + 1, lineno - 1))
    for name, lineno in stack:
        findings.append({
            "rule": "hot-path", "file": rel, "line": lineno,
            "message": f"rrf-hot-path region '{name}' is never closed",
        })

    for name, start, end in regions:
        i = start
        while i <= end:
            line = lines[i - 1]
            if GUARD_RE.search(line):
                # Cold island: consume the guarded statement or block.
                pdepth = bdepth = 0
                opened = False
                while i <= end:
                    l = lines[i - 1]
                    pdepth += l.count("(") - l.count(")")
                    bdepth += l.count("{") - l.count("}")
                    if bdepth > 0:
                        opened = True
                    i += 1
                    if opened and bdepth <= 0:
                        break
                    if not opened and pdepth <= 0 and l.rstrip().endswith(";"):
                        break
                continue
            if "hot-path" not in suppressed.get(i, set()):
                for pattern, why in HOT_PATTERNS:
                    if pattern.search(line):
                        findings.append({
                            "rule": "hot-path", "file": rel, "line": i,
                            "message": f"in region '{name}': {why}",
                        })
                if container_constructions(line):
                    findings.append({
                        "rule": "hot-path", "file": rel, "line": i,
                        "message": f"in region '{name}': constructing a "
                                   "std:: container allocates every round; "
                                   "hoist to caller-owned scratch (reuse "
                                   "with .assign/.clear)",
                    })
            i += 1

    return [f for f in findings
            if f["rule"] not in suppressed.get(f["line"], set())]


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

SUPPRESS_RE = re.compile(r"(?:rrf|determinism)-lint:\s*allow\(([\w,\s-]+)\)")


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving newlines
    (and therefore line numbers) so matches report real locations."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(n, i + 2)
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":  # unterminated; bail at line end
                    break
                i += 1
            i = min(n, i + 1)
            out.append(quote + quote)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def load_allowlist(path: pathlib.Path) -> list[tuple[str, str]]:
    entries = []
    if not path.exists():
        return entries
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ALL_RULES:
            sys.stderr.write(
                f"{path}:{lineno}: malformed allowlist entry: {raw!r}\n")
            sys.exit(2)
        entries.append((parts[0], parts[1]))
    return entries


def inline_suppressions(text: str) -> dict[int, set[str]]:
    """Line number -> rules allowed on that line (scanned pre-stripping,
    since the marker lives in a comment)."""
    allowed: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        m = SUPPRESS_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            allowed.setdefault(lineno, set()).update(rules)
    return allowed


def file_allowed(rel: str, rule: str,
                 allowlist: list[tuple[str, str]]) -> bool:
    return any(fnmatch.fnmatch(rel, glob)
               for r, glob in allowlist if r == rule)


def lint_file(path: pathlib.Path, rel: str,
              allowlist: list[tuple[str, str]]) -> list[dict]:
    """Returns findings as dicts: {rule, file, line, message}."""
    text = path.read_text(encoding="utf-8", errors="replace")
    suppressed = inline_suppressions(text)
    stripped = strip_comments_and_strings(text)
    findings = []
    for rule, (pattern, applies, message) in LINE_RULES.items():
        if not applies(rel) or file_allowed(rel, rule, allowlist):
            continue
        for lineno, line in enumerate(stripped.splitlines(), 1):
            if not pattern.search(line):
                continue
            if rule in suppressed.get(lineno, set()):
                continue
            findings.append({"rule": rule, "file": rel, "line": lineno,
                             "message": message})
    if not file_allowed(rel, "layering", allowlist):
        findings.extend(f for f in layering_findings(text, rel)
                        if f["rule"] not in suppressed.get(f["line"], set()))
    if not file_allowed(rel, "hot-path", allowlist):
        findings.extend(hot_path_findings(text, stripped, rel, suppressed))
    return findings


def collect_files(paths: list[str]) -> list[pathlib.Path]:
    files = []
    for p in paths:
        path = pathlib.Path(p)
        if path.is_dir():
            files.extend(sorted(f for f in path.rglob("*")
                                if f.suffix in SOURCE_SUFFIXES))
        elif path.is_file():
            files.append(path)
        else:
            sys.stderr.write(f"rrf_lint: no such path: {p}\n")
            sys.exit(2)
    return files


def relpath(path: pathlib.Path) -> str:
    resolved = path.resolve()
    try:
        return resolved.relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return resolved.as_posix()


def run_lint(paths: list[str],
             allowlist_path: pathlib.Path | None = None) -> list[dict]:
    """Library entry point (scripts/rrf_analyze.py imports this)."""
    if allowlist_path is None:
        allowlist_path = REPO_ROOT / "scripts" / "rrf_lint_allow.txt"
    allowlist = load_allowlist(allowlist_path)
    findings = []
    for f in collect_files(paths):
        findings.extend(lint_file(f, relpath(f), allowlist))
    return findings


def format_finding(f: dict) -> str:
    return f"{f['file']}:{f['line']}: [{f['rule']}] {f['message']}"


def self_test() -> int:
    """Every rule needs a fixture pair: <rule>_trigger.cxx must produce at
    least one finding of exactly that rule, and one on every line marked
    `// finding: <rule>`; <rule>_ok.cxx must be clean.
    A <rule>_allow.cxx fixture, when present, reproduces the trigger with
    inline `rrf-lint: allow(...)` markers and must also be clean.
    Fixtures are linted as if they lived in src/alloc/ so every rule's
    path predicate applies."""
    fixture_dir = REPO_ROOT / "scripts" / "lint_fixtures"
    failures = 0
    checks = 0
    for rule in ALL_RULES:
        stem = rule.replace("-", "_")
        for kind in ("trigger", "ok", "allow"):
            fixture = fixture_dir / f"{stem}_{kind}.cxx"
            if not fixture.exists():
                if kind == "allow":
                    continue  # allow fixtures are optional
                print(f"self-test FAIL: missing fixture {fixture}")
                failures += 1
                checks += 1
                continue
            checks += 1
            pretend = f"src/alloc/{fixture.name}"
            findings = lint_file(fixture, pretend, allowlist=[])
            hits = [f for f in findings if f["rule"] == rule]
            marked = [n for n, line in enumerate(
                fixture.read_text().splitlines(), 1)
                if f"// finding: {rule}" in line]
            missed = sorted(set(marked) - {f["line"] for f in hits})
            if kind == "trigger" and not hits:
                print(f"self-test FAIL: {fixture.name} triggered nothing "
                      f"for rule {rule}")
                failures += 1
            elif kind == "trigger" and missed:
                print(f"self-test FAIL: {fixture.name} lines {missed} are "
                      f"marked but raised no {rule} finding")
                failures += 1
            elif kind in ("ok", "allow") and findings:
                print(f"self-test FAIL: {fixture.name} should be clean, "
                      f"got:\n  " +
                      "\n  ".join(format_finding(f) for f in findings))
                failures += 1
    print(f"self-test: {checks - failures}/{checks} fixture checks passed")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="RRF source lint (see module docstring)")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint (default: src)")
    parser.add_argument("--self-test", action="store_true",
                        help="validate the linter against its fixtures")
    parser.add_argument("--allowlist",
                        default=str(REPO_ROOT / "scripts" /
                                    "rrf_lint_allow.txt"),
                        help="allowlist file (rule path-glob per line)")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    paths = args.paths or [str(REPO_ROOT / "src")]
    findings = run_lint(paths, pathlib.Path(args.allowlist))
    for finding in findings:
        print(format_finding(finding))
    if findings:
        print(f"rrf_lint: {len(findings)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
