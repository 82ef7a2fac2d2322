#!/usr/bin/env python3
"""dcfs_lint — project-specific lint wall for the DeltaCFS tree.

Checks (all on src/ unless noted):

  raw-mutex       std::mutex / std::shared_mutex / std::lock_guard /
                  std::scoped_lock / std::unique_lock / std::recursive_mutex
                  anywhere outside src/chk.  Long-lived locks must be the
                  lockdep-tracked chk::Mutex / chk::SharedMutex so their
                  acquisition order is verified at runtime (docs/ANALYSIS.md).
  raw-annotation  Bare Clang thread-safety attributes — __attribute__((
                  guarded_by(...))) and friends, or their [[clang::...]]
                  spellings — outside src/chk/annotations.h.  Annotations
                  must go through the DCFS_* macros so they stay no-ops on
                  non-Clang compilers and the vocabulary stays greppable.
  naked-new       `new` outside a smart-pointer factory.  Ownership must be
                  expressed with std::make_unique/std::make_shared or a
                  container; the rare intentional leak carries a suppression.
  metric-name     String literals passed to .counter("...") / .gauge("...") /
                  .histogram("...") must match ^[a-z]+(\\.[a-z_]+)+$ — the
                  dotted subsystem.name scheme every exporter assumes.
  chunk-cdc       chunk_cdc()/chunk_boundaries() calls outside src/rsyncx.
                  Every chunking decision must flow through the sanctioned
                  rsyncx::chunk_file wrapper, which normalizes the CdcParams
                  first — direct calls with unnormalized (e.g. recursively
                  derived) params can violate the boundary-cut invariants the
                  reconciliation planner's termination depends on.
  weak-index      std::unordered_multimap in src/rsyncx or src/par.  Block
                  lookups go through rsyncx::detail::WeakIndex (prefilter +
                  sorted flat array), which keeps the candidate order the
                  delta's byte-exactness depends on; a second lookup
                  structure would have to reproduce that order by accident.
  namespace-copy  Copy-construction or copy-assignment of the server's
                  namespace (files_, tombstones_, ctx.files, ctx.tombstones)
                  in src/server.  A transactional group stages only the
                  entries its records touch; a whole-namespace copy makes
                  every apply cost what the server holds instead.
  blocking-net    Direct Transport calls (client_send/server_send/client_poll/
                  client_poll_all/server_poll) outside src/net and the two
                  sanctioned serial endpoints (src/core/client.cc,
                  src/server/cloud_server.cc).  Everything else ships through
                  the endpoints' send_frame, the one place a frame's encode,
                  charge and transport stage are accounted.
  naked-trace     tracer.begin()/tracer.end() outside src/obs.  Spans must be
                  opened through the RAII obs::Span helper so every begin is
                  paired with an end on all exit paths (exceptions included) —
                  an unbalanced track breaks the Chrome export's nesting.
  header-check    Every header under src/ must compile on its own
                  (g++ -fsyntax-only) — no hidden include-order dependencies.

Output formats (--format):

  text    path:line: [check] message            (default, human-oriented)
  json    [{"path": ..., "line": ..., "check": ..., "message": ...}, ...]
  github  ::error file=...,line=...,title=dcfs-lint/<check>::message
          (GitHub Actions workflow commands — findings become PR annotations)

--self-test lints built-in snippets and checks that each rule fires where
it must and stays quiet where it must (exit 0 when every case holds).

Suppress a finding by putting `dcfs-lint: allow(<check>)` in a comment on
the offending line (or the line directly above it).

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"lock_guard|scoped_lock|unique_lock|shared_lock)\b"
)
# Clang thread-safety attribute names, both the GNU __attribute__((...)) and
# the C++11 [[clang::...]] spellings.  The DCFS_* macros in
# src/chk/annotations.h are the only sanctioned way to emit these.
TSA_ATTR_NAMES = (
    "capability|shared_capability|scoped_lockable|lockable|"
    "guarded_by|pt_guarded_by|guarded_var|pt_guarded_var|"
    "acquired_before|acquired_after|"
    "requires_capability|requires_shared_capability|"
    "exclusive_locks_required|shared_locks_required|"
    "acquire_capability|acquire_shared_capability|"
    "exclusive_lock_function|shared_lock_function|"
    "release_capability|release_shared_capability|"
    "release_generic_capability|unlock_function|"
    "try_acquire_capability|try_acquire_shared_capability|"
    "exclusive_trylock_function|shared_trylock_function|"
    "locks_excluded|lock_returned|"
    "assert_capability|assert_shared_capability|"
    "assert_exclusive_lock|assert_shared_lock|"
    "no_thread_safety_analysis"
)
RAW_ANNOTATION_RE = re.compile(
    r"(?:__attribute__\s*\(\(\s*(?:clang::)?(?:%(n)s)\b"
    r"|\[\[\s*clang::(?:%(n)s)\b)" % {"n": TSA_ATTR_NAMES}
)
NAKED_NEW_RE = re.compile(r"\bnew\b\s*(?:\(|[A-Za-z_:<])")
METRIC_CALL_RE = re.compile(r"\.(counter|gauge|histogram)\(\s*\"([^\"]*)\"")
NAKED_TRACE_RE = re.compile(r"\btracer_?(?:\.|->)\s*(begin|end)\s*\(")
CHUNK_CDC_RE = re.compile(r"\b(chunk_cdc|chunk_boundaries)\s*\(")
WEAK_INDEX_RE = re.compile(r"\bstd::unordered_multimap\b")
NAMESPACE_MAP = (r"(?:ctx\s*(?:\.|->)\s*(?:files|tombstones)"
                 r"|\bfiles_|\btombstones_)")
NAMESPACE_COPY_RE = re.compile(
    # EntryMap staged = ctx.files;  auto copy(files_);  EntryMap m{files_};
    r"\b(?:EntryMap|auto)\s+\w+\s*(?:=|\(|\{)\s*%(m)s\s*[;)}]"
    # staged = tombstones_;
    r"|^\s*[\w.>-]+\s*=\s*%(m)s\s*;" % {"m": NAMESPACE_MAP}
)
BLOCKING_NET_RE = re.compile(
    r"\b(client_send|server_send|client_poll(?:_all)?|server_poll)\s*\("
)
# Serial endpoints that own a Transport end and pump it from tick()/pump().
BLOCKING_NET_ENDPOINTS = (
    os.path.join("src", "core", "client.cc"),
    os.path.join("src", "server", "cloud_server.cc"),
)
# The single file allowed to spell raw thread-safety attributes.
ANNOTATION_HOME = os.path.join("src", "chk", "annotations.h")
METRIC_NAME_RE = re.compile(r"^[a-z]+(\.[a-z_]+)+$")
ALLOW_RE = re.compile(r"dcfs-lint:\s*allow\(([a-z-]+)\)")


def find_sources(root: str) -> list[str]:
    out = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith(CXX_EXTENSIONS):
                out.append(os.path.join(dirpath, name))
    return sorted(out)


def strip_code(line: str, in_block_comment: bool) -> tuple[str, bool]:
    """Removes string/char literals and comments from one line, preserving
    column positions with spaces, and tracks /* ... */ state."""
    out = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if in_block_comment:
            if line.startswith("*/", i):
                in_block_comment = False
                out.append("  ")
                i += 2
            else:
                out.append(" ")
                i += 1
        elif line.startswith("//", i):
            out.append(" " * (n - i))
            break
        elif line.startswith("/*", i):
            in_block_comment = True
            out.append("  ")
            i += 2
        elif ch in "\"'":
            quote = ch
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                elif line[i] == quote:
                    out.append(" ")
                    i += 1
                    break
                else:
                    out.append(" ")
                    i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out), in_block_comment


def allowed(check: str, lines: list[str], idx: int) -> bool:
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_RE.search(lines[probe])
            if m and m.group(1) == check:
                return True
    return False


def finding(path: str, line: int, check: str, message: str) -> dict:
    return {"path": path, "line": line, "check": check, "message": message}


def lint_file(path: str) -> list[dict]:
    rel = os.path.relpath(path, REPO)
    try:
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        return [finding(rel, 1, "io", f"unreadable: {e}")]
    return lint_lines(rel, raw_lines)


def lint_lines(rel: str, raw_lines: list[str]) -> list[dict]:
    """Runs every per-line check on one file's lines; `rel` is the path
    relative to the repository root and decides which rules apply."""
    in_chk = rel.startswith(os.path.join("src", "chk") + os.sep)
    in_obs = rel.startswith(os.path.join("src", "obs") + os.sep)
    in_rsyncx = rel.startswith(os.path.join("src", "rsyncx") + os.sep)
    in_par = rel.startswith(os.path.join("src", "par") + os.sep)
    in_net = rel.startswith(os.path.join("src", "net") + os.sep)
    in_server = rel.startswith(os.path.join("src", "server") + os.sep)
    net_endpoint = rel in BLOCKING_NET_ENDPOINTS
    annotation_home = rel == ANNOTATION_HOME

    findings = []
    in_block = False
    for idx, raw in enumerate(raw_lines):
        code, in_block = strip_code(raw, in_block)

        if not in_chk and RAW_MUTEX_RE.search(code):
            if not allowed("raw-mutex", raw_lines, idx):
                findings.append(finding(
                    rel, idx + 1, "raw-mutex",
                    "use chk::Mutex / chk::LockGuard "
                    "(std primitives live in src/chk only)"
                ))

        if not annotation_home and RAW_ANNOTATION_RE.search(code):
            if not allowed("raw-annotation", raw_lines, idx):
                findings.append(finding(
                    rel, idx + 1, "raw-annotation",
                    "use the DCFS_* macros from chk/annotations.h — bare "
                    "thread-safety attributes break non-Clang builds and "
                    "bypass the greppable vocabulary"
                ))

        if not in_obs and NAKED_TRACE_RE.search(code):
            if not allowed("naked-trace", raw_lines, idx):
                findings.append(finding(
                    rel, idx + 1, "naked-trace",
                    "open spans with the RAII obs::Span helper, "
                    "not tracer.begin()/end()"
                ))

        if not in_rsyncx and CHUNK_CDC_RE.search(code):
            if not allowed("chunk-cdc", raw_lines, idx):
                findings.append(finding(
                    rel, idx + 1, "chunk-cdc",
                    "call rsyncx::chunk_file (normalizes params) — "
                    "chunk_cdc/chunk_boundaries live in src/rsyncx only"
                ))

        if (in_rsyncx or in_par) and WEAK_INDEX_RE.search(code):
            if not allowed("weak-index", raw_lines, idx):
                findings.append(finding(
                    rel, idx + 1, "weak-index",
                    "look blocks up through rsyncx::detail::WeakIndex — "
                    "its candidate order is part of the delta's output"
                ))

        if in_server and NAMESPACE_COPY_RE.search(code):
            if not allowed("namespace-copy", raw_lines, idx):
                findings.append(finding(
                    rel, idx + 1, "namespace-copy",
                    "copies the whole namespace — stage only the entries "
                    "the records touch (CloudServer::touched_paths)"
                ))

        if not (in_net or net_endpoint) and BLOCKING_NET_RE.search(code):
            if not allowed("blocking-net", raw_lines, idx):
                findings.append(finding(
                    rel, idx + 1, "blocking-net",
                    "direct Transport send/poll outside the serial "
                    "endpoints — ship through the endpoint's send_frame"
                ))

        m = NAKED_NEW_RE.search(code)
        if m and not allowed("naked-new", raw_lines, idx):
            findings.append(finding(
                rel, idx + 1, "naked-new",
                "express ownership with std::make_unique/std::make_shared "
                "or a container"
            ))

        # Metric names: literals only — computed names are the exporters'
        # business and already tested.
        for m in METRIC_CALL_RE.finditer(raw):
            name = m.group(2)
            if not METRIC_NAME_RE.match(name):
                if not allowed("metric-name", raw_lines, idx):
                    findings.append(finding(
                        rel, idx + 1, "metric-name",
                        f"'{name}' does not match ^[a-z]+(\\.[a-z_]+)+$ "
                        f"(subsystem.name scheme)"
                    ))
    return findings


def check_header(header: str, cxx: str) -> list[dict]:
    rel = os.path.relpath(header, SRC)
    with tempfile.NamedTemporaryFile(
        "w", suffix=".cc", prefix="dcfs_lint_", delete=False
    ) as tu:
        tu.write(f'#include "{rel}"\n')
        tu_path = tu.name
    try:
        proc = subprocess.run(
            [
                cxx,
                "-std=c++20",
                "-fsyntax-only",
                "-I",
                SRC,
                "-DDCFS_CHK_ENABLED=1",
                tu_path,
            ],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            first = proc.stderr.strip().splitlines()
            detail = first[0] if first else "compiler error"
            return [finding(
                f"src/{rel}", 1, "header-check",
                f"not self-contained: {detail}"
            )]
        return []
    finally:
        os.unlink(tu_path)


# (path relative to the repo, source text, checks expected to fire)
SELF_TEST_CASES = [
    (os.path.join("src", "rsyncx", "index.h"),
     "std::unordered_multimap<std::uint32_t, std::uint32_t> map;",
     ["weak-index"]),
    (os.path.join("src", "par", "scan.cc"),
     "  std::unordered_multimap<int, int> blocks;",
     ["weak-index"]),
    (os.path.join("src", "rsyncx", "index.h"),
     "// a std::unordered_multimap used to live here",
     []),
    (os.path.join("src", "rsyncx", "index.h"),
     "std::unordered_multimap<int, int> m;  // dcfs-lint: allow(weak-index)",
     []),
    (os.path.join("src", "core", "client.cc"),
     "std::unordered_multimap<int, int> by_inode;",
     []),
    (os.path.join("src", "core", "client.cc"),
     "  auto chunks = chunk_cdc(data, params, nullptr);",
     ["chunk-cdc"]),
    (os.path.join("src", "rsyncx", "recon.cc"),
     "  auto chunks = chunk_cdc(data, params, nullptr);",
     []),
    (os.path.join("src", "server", "cloud_server.cc"),
     "  EntryMap staged = ctx.files;",
     ["namespace-copy"]),
    (os.path.join("src", "server", "cloud_server.cc"),
     "  EntryMap saved(tombstones_);",
     ["namespace-copy"]),
    (os.path.join("src", "server", "cloud_server.cc"),
     "    staged = files_;",
     ["namespace-copy"]),
    (os.path.join("src", "server", "cloud_server.cc"),
     "  const EntryMap& live = files_;",
     []),
    (os.path.join("src", "server", "cloud_server.cc"),
     "  ApplyCtx ctx{files_, tombstones_, dirs_, meter_, tracer_};",
     []),
    (os.path.join("src", "server", "cloud_server.cc"),
     "    ctx.files.merge(staged);",
     []),
    (os.path.join("src", "core", "client.cc"),
     "  EntryMap staged = ctx.files;",
     []),
    (os.path.join("src", "baselines", "deltacfs_system.cc"),
     "  transport_.client_send(std::move(frame));",
     ["blocking-net"]),
    (os.path.join("src", "core", "client.cc"),
     "  transport_.client_send(std::move(frame), type);",
     []),
    (os.path.join("src", "baselines", "deltacfs_system.cc"),
     "  auto frames = transport_.client_poll_all();",
     ["blocking-net"]),
]


def self_test() -> int:
    failures = 0
    for rel, source, want in SELF_TEST_CASES:
        got = [f["check"] for f in lint_lines(rel, source.splitlines())]
        if got != want:
            failures += 1
            print(f"self-test: {rel}: {source.strip()!r} gave {got}, "
                  f"want {want}", file=sys.stderr)
    if failures:
        return 1
    print(f"dcfs_lint: self-test OK ({len(SELF_TEST_CASES)} cases)")
    return 0


def render(findings: list[dict], fmt: str, n_files: int) -> None:
    if fmt == "json":
        print(json.dumps(findings, indent=2))
        return
    for f in findings:
        if fmt == "github":
            # GitHub Actions workflow command: surfaces as a PR annotation
            # on the offending line.  Message must be single-line.
            message = f["message"].replace("\n", " ")
            print(
                f"::error file={f['path']},line={f['line']},"
                f"title=dcfs-lint/{f['check']}::{message}"
            )
        else:
            print(f"{f['path']}:{f['line']}: [{f['check']}] {f['message']}")
    if findings:
        print(f"dcfs_lint: {len(findings)} finding(s)", file=sys.stderr)
    elif fmt == "text":
        print(f"dcfs_lint: clean ({n_files} files)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (default: text; github emits ::error workflow "
        "commands for PR annotations)",
    )
    parser.add_argument(
        "--no-header-check",
        action="store_true",
        help="skip the self-containment compile of every header",
    )
    parser.add_argument(
        "--cxx",
        default=os.environ.get("CXX", "g++"),
        help="compiler for the header check (default: $CXX or g++)",
    )
    parser.add_argument(
        "-j",
        type=int,
        default=os.cpu_count() or 1,
        help="parallel header-check compiles",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="check the rules against built-in snippets and exit",
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test()

    roots = args.paths or [SRC]
    files: list[str] = []
    for root in roots:
        root = os.path.abspath(root)
        if os.path.isdir(root):
            files.extend(find_sources(root))
        elif os.path.isfile(root):
            files.append(root)
        else:
            print(f"dcfs_lint: no such path: {root}", file=sys.stderr)
            return 2

    findings: list[dict] = []
    for path in files:
        findings.extend(lint_file(path))

    if not args.no_header_check:
        headers = [f for f in files if f.endswith((".h", ".hpp"))]
        with concurrent.futures.ThreadPoolExecutor(args.j) as pool:
            for result in pool.map(
                lambda h: check_header(h, args.cxx), headers
            ):
                findings.extend(result)

    findings.sort(key=lambda f: (f["path"], f["line"], f["check"]))
    render(findings, args.format, len(files))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
