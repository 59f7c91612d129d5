#!/usr/bin/env python3
"""Determinism lint for the gpump source tree (DESIGN.md §12).

The simulator's headline guarantee is byte-identical output across
--jobs x --workers (DESIGN.md §4/§10).  The goldens and
`cmp` checks in CI catch a violation *after* it changed the numbers;
this lint rejects the constructs that cause violations at review time,
before any golden moves.

Rules (each has a stable ID; see --list-rules):

  wall-clock        No wall-clock / time-of-day reads anywhere in src/:
                    time(), gettimeofday(), clock(), localtime(),
                    gmtime(), std::chrono::system_clock and
                    high_resolution_clock (which may alias it).
                    std::chrono::steady_clock is allowed — it is
                    monotonic and only feeds the wallSeconds telemetry
                    that is explicitly outside the determinism contract.

  raw-rand          No rand()/srand()/rand_r()/drand48()/random_device
                    outside sim::Rng (src/sim/random.*).  All
                    randomness must flow through the seeded,
                    fork-deterministic sim::Rng stream.

  unordered-output  No unordered_map/unordered_set in any file that
                    feeds report/wire/JSONL output (harness/report,
                    harness/exec/wire, harness/runner, harness/suite,
                    metrics/, serve/slo).  This is
                    deliberately stronger than banning just iteration:
                    a hash container declared in an output path is one
                    refactor away from being iterated, and iteration
                    order depends on hash seeding and pointer values.

  float-format      No %e/%f/%g-style double formatting in
                    harness/exec/wire.* — the worker/coordinator wire
                    codec must round-trip doubles bit-exactly, so only
                    hexfloat (%a/%A) conversions are permitted there.

  ptr-sort          No std::sort/std::stable_sort over containers of
                    raw pointers without an explicit comparator:
                    default operator< on pointers sorts by address,
                    which differs run to run under ASLR.

Suppressions: append `// gpump-lint: allow(<rule-id>)` to the flagged
line.  Each pragma covers exactly one line and one rule (repeat the
pragma for several rules).  An unused pragma is itself an error, so
stale allowlist entries cannot accumulate.

Exit status: 0 = clean, 1 = findings, 2 = usage/IO error.
"""

import argparse
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Rule definitions
# ---------------------------------------------------------------------------

# Files whose bytes (or whose in-memory ordering) reach report/wire/
# JSONL output.  Relative to the repository root, forward slashes.
OUTPUT_PATH_PATTERNS = (
    r"src/harness/report\.(hh|cc)$",
    r"src/harness/exec/wire\.(hh|cc)$",
    r"src/harness/runner\.(hh|cc)$",
    r"src/harness/suite\.(hh|cc)$",
    r"src/metrics/.*\.(hh|cc)$",
    r"src/serve/slo\.(hh|cc)$",
)

# Files allowed to touch raw randomness: the sim::Rng implementation.
RNG_PATH_PATTERNS = (r"src/sim/random\.(hh|cc)$",)

# Files held to the hexfloat-only contract.
WIRE_PATH_PATTERNS = (r"src/harness/exec/wire\.(hh|cc)$",)

WALL_CLOCK_RE = re.compile(
    r"(?:\b(?:time|gettimeofday|clock|localtime|localtime_r|gmtime|"
    r"gmtime_r|ftime|clock_gettime)\s*\()"
    r"|(?:std\s*::\s*chrono\s*::\s*system_clock)"
    r"|(?:std\s*::\s*chrono\s*::\s*high_resolution_clock)"
    r"|(?:\bsystem_clock\s*::)"
    r"|(?:\bhigh_resolution_clock\s*::)"
)

RAW_RAND_RE = re.compile(
    r"(?:\b(?:rand|srand|rand_r|drand48|lrand48|mrand48)\s*\()"
    r"|(?:\brandom_device\b)"
)

UNORDERED_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")

# A printf conversion ending in a decimal floating conversion letter.
# %a/%A (hexfloat) and %% are fine; flags/width/precision/length are
# consumed so "%-12.6f" and "%.17g" are caught.
FLOAT_FORMAT_RE = re.compile(r"%[-+ #0]*[\d*]*(?:\.[\d*]+)?(?:[hlLqjzt]|ll|hh)?[efgEFG]")

SORT_CALL_RE = re.compile(r"\bstd\s*::\s*(?:stable_)?sort\s*\(")

# Container-of-raw-pointer declarations: `std::vector<Foo *> names`,
# `std::deque<const Bar*> &q` (reference parameters included) etc.
# Captures the variable name.
PTR_CONTAINER_DECL_RE = re.compile(
    r"\b(?:vector|deque)\s*<[^<>]*\*\s*>\s*&?\s*(\w+)"
)

PRAGMA_RE = re.compile(r"//\s*gpump-lint:\s*allow\(([a-z-]+)\)")

ALL_RULES = {
    "wall-clock": "wall-clock/time-of-day reads (steady_clock is allowed)",
    "raw-rand": "raw randomness outside sim::Rng",
    "unordered-output": "unordered containers in report/wire/JSONL paths",
    "float-format": "decimal double formatting in the wire codec "
                    "(hexfloat only)",
    "ptr-sort": "std::sort over raw pointers without a comparator",
}


def matches_any(rel: str, patterns) -> bool:
    return any(re.search(p, rel) for p in patterns)


# ---------------------------------------------------------------------------
# Comment / string stripping
# ---------------------------------------------------------------------------

def strip_code(text: str):
    """Blank out comments and string/char literals, preserving line
    structure, so rule regexes only see code.  Returns the stripped
    text; pragmas are extracted from the raw text separately."""
    out = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = STRING
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = CHAR
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                out.append("\n")
            else:
                out.append(" ")
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in (STRING, CHAR):
            quote = '"' if state == STRING else "'"
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = NORMAL
                out.append(quote)
            elif c == "\n":  # unterminated; keep line structure
                state = NORMAL
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def strip_strings_keep_comments_blanked(text: str) -> str:
    # Convenience wrapper used for the wire float-format rule, where
    # the *format strings themselves* carry the violation: strip only
    # comments, keep string literal contents.
    out = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING = range(4)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = STRING
            out.append(c)
        elif state == LINE_COMMENT:
            out.append("\n" if c == "\n" else " ")
            if c == "\n":
                state = NORMAL
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # STRING
            if c == "\\" and nxt:
                out.append(c + nxt)
                i += 2
                continue
            if c == '"' or c == "\n":
                state = NORMAL
            out.append(c)
        i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Per-file linting
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def find_statement_end(lines, start):
    """Index (inclusive) of the line where the statement opened on
    `start` closes (first `;` at or after it)."""
    for j in range(start, min(start + 20, len(lines))):
        if ";" in lines[j]:
            return j
    return start


def lint_file(path: Path, rel: str):
    try:
        raw = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)

    raw_lines = raw.splitlines()
    code = strip_code(raw)
    code_lines = code.splitlines()
    with_strings = strip_strings_keep_comments_blanked(raw)
    with_strings_lines = with_strings.splitlines()

    # pragmas[line_no] = set of allowed rule ids on that raw line
    pragmas = {}
    for ln, line in enumerate(raw_lines, 1):
        for m in PRAGMA_RE.finditer(line):
            pragmas.setdefault(ln, set()).add(m.group(1))
    used_pragmas = set()

    findings = []

    def flag(ln, rule, message):
        if rule in pragmas.get(ln, set()):
            used_pragmas.add((ln, rule))
            return
        findings.append(Finding(rel, ln, rule, message))

    in_output_path = matches_any(rel, OUTPUT_PATH_PATTERNS)
    in_rng_path = matches_any(rel, RNG_PATH_PATTERNS)
    in_wire_path = matches_any(rel, WIRE_PATH_PATTERNS)

    for ln, line in enumerate(code_lines, 1):
        m = WALL_CLOCK_RE.search(line)
        if m:
            flag(ln, "wall-clock",
                 f"wall-clock read {m.group(0).strip()!r}: determinism "
                 "forbids time-of-day; use sim time or steady_clock "
                 "telemetry")
        if not in_rng_path:
            m = RAW_RAND_RE.search(line)
            if m:
                flag(ln, "raw-rand",
                     f"raw randomness {m.group(0).strip()!r}: draw from "
                     "the seeded sim::Rng stream instead")
        if in_output_path:
            m = UNORDERED_RE.search(line)
            if m:
                flag(ln, "unordered-output",
                     f"{m.group(0)} in an output-feeding file: hash "
                     "iteration order is not deterministic; use "
                     "std::map/std::set or a sorted vector")

    if in_wire_path:
        for ln, line in enumerate(with_strings_lines, 1):
            m = FLOAT_FORMAT_RE.search(line)
            if m:
                flag(ln, "float-format",
                     f"decimal double conversion {m.group(0)!r} in the "
                     "wire codec: doubles must round-trip bit-exactly; "
                     "use hexfloat %a")

    # ptr-sort: two passes — collect pointer-container names, then
    # examine each std::sort statement that references one.
    ptr_containers = set()
    for line in code_lines:
        for m in PTR_CONTAINER_DECL_RE.finditer(line):
            ptr_containers.add(m.group(1))
    if ptr_containers:
        for ln0, line in enumerate(code_lines):
            if not SORT_CALL_RE.search(line):
                continue
            end = find_statement_end(code_lines, ln0)
            stmt = " ".join(code_lines[ln0:end + 1])
            referenced = [v for v in ptr_containers
                          if re.search(rf"\b{re.escape(v)}\b", stmt)]
            if not referenced:
                continue
            # A comparator shows up as a lambda or a named callable
            # after the range arguments; the reliable tell for the
            # two-argument (comparator-less) form is exactly one
            # top-level comma inside the call parens.
            call = stmt[stmt.index("sort"):]
            depth = 0
            commas = 0
            for ch in call[call.index("("):]:
                if ch in "([{<":
                    depth += 1
                elif ch in ")]}>":
                    depth -= 1
                    if depth == 0:
                        break
                elif ch == "," and depth == 1:
                    commas += 1
            if commas <= 1:
                flag(ln0 + 1, "ptr-sort",
                     f"std::sort over pointer container "
                     f"{referenced[0]!r} without a comparator sorts by "
                     "address (ASLR-dependent); pass an explicit key")

    # Stale pragmas are findings too: an allow() that suppresses
    # nothing hides future violations on that line.
    for ln, rules in sorted(pragmas.items()):
        for rule in sorted(rules):
            if rule not in ALL_RULES:
                findings.append(Finding(
                    rel, ln, "bad-pragma",
                    f"unknown rule {rule!r} in gpump-lint pragma"))
            elif (ln, rule) not in used_pragmas:
                findings.append(Finding(
                    rel, ln, "stale-pragma",
                    f"allow({rule}) suppresses nothing on this line; "
                    "remove it"))

    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_sources(roots):
    files = []
    for root in roots:
        p = Path(root)
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            files.extend(sorted(p.rglob("*.hh")))
            files.extend(sorted(p.rglob("*.cc")))
            files.extend(sorted(p.rglob("*.cpp")))
            files.extend(sorted(p.rglob("*.h")))
        else:
            print(f"error: no such file or directory: {root}",
                  file=sys.stderr)
            sys.exit(2)
    return sorted(set(files))


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="gpump determinism lint (see DESIGN.md §12)")
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories to lint (default: src/)")
    ap.add_argument("--repo-root", default=None,
                    help="repository root for path classification "
                         "(default: parent of this script's directory)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule table and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in ALL_RULES.items():
            print(f"{rule:18} {desc}")
        return 0

    repo_root = Path(args.repo_root) if args.repo_root \
        else Path(__file__).resolve().parent.parent
    roots = args.paths or [repo_root / "src"]

    all_findings = []
    files = collect_sources(roots)
    for f in files:
        try:
            rel = f.resolve().relative_to(repo_root.resolve()).as_posix()
        except ValueError:
            rel = f.as_posix()
        all_findings.extend(lint_file(f, rel))

    for finding in all_findings:
        print(finding)
    if all_findings:
        print(f"lint_determinism: {len(all_findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"lint_determinism: {len(files)} file(s) clean",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
