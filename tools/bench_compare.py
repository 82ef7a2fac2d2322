#!/usr/bin/env python3
"""bench_compare — perf-regression gate over the BENCH_*.json artifacts.

Compares freshly produced bench output (throughput_wall, server_scale,
recon_scale, and the paper figures fig8, fig9 and table2)
against the committed baselines in bench/baselines/ and fails when a
metric regressed beyond its tolerance band.

Two metric classes:

  exact   deterministic in the virtual-time simulation (byte counts, record
          counts, dedup/reduction ratios).  Any drift beyond float printing
          noise is a behavior change and fails in either direction.
  floor   wall-clock derived (MB/s, records/s, speedup) — noisy across CI
          machines, so only a *drop* below baseline * (1 - tol) fails.
          Ratios (speedup) get a tight band; absolute rates a loose one.

Usage:
  bench_compare.py                    # compare ./BENCH_*.json to baselines
  bench_compare.py --fresh DIR        # where the fresh JSONs live
  bench_compare.py --update           # refresh baselines from fresh output
  bench_compare.py --self-test        # prove the gate fails on a 20% drop
  bench_compare.py --join OUT IN...   # concatenate row files (BENCH_paper)
  bench_compare.py --report out.md    # also write a markdown report

Exit status: 0 clean, 1 regression (or self-test failure), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINES = os.path.join(REPO, "bench", "baselines")

EXACT_REL_TOL = 1e-6  # float printing noise only

# Per-file comparison spec: row key fields and metric classes.
SPECS = {
    "BENCH_throughput.json": {
        "key": ("kernel", "threads"),
        "metrics": {
            "bytes": ("exact", 0.0),
            "mb_per_s": ("floor", 0.50),
            "speedup": ("floor", 0.15),
        },
    },
    "BENCH_server.json": {
        "key": ("shards",),
        "metrics": {
            "records": ("exact", 0.0),
            "records_per_sec": ("floor", 0.50),
            "speedup": ("floor", 0.15),
            "dedup_ratio": ("exact", 0.0),
            "unique_bytes": ("exact", 0.0),
            "logical_bytes": ("exact", 0.0),
        },
    },
    "BENCH_recon.json": {
        "key": ("profile", "size_mb", "edits"),
        "metrics": {
            "classic_bytes": ("exact", 0.0),
            "recursive_bytes": ("exact", 0.0),
            "reduction": ("exact", 0.0),
            "rounds_classic": ("exact", 0.0),
            "rounds_recursive": ("exact", 0.0),
            "mb_per_sec": ("floor", 0.50),
        },
    },
    # fig8/fig9 --json-out (traffic bytes) and table2 --json-out (CPU
    # ticks), joined: every cell of the paper's figures, gated exactly.
    "BENCH_paper.json": {
        "key": ("bench", "host", "system", "trace"),
        "metrics": {
            "up_bytes": ("exact", 0.0),
            "down_bytes": ("exact", 0.0),
            "client_ticks": ("exact", 0.0),
            "server_ticks": ("exact", 0.0),
        },
    },
}


def load_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        rows = json.load(f)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON array of rows")
    return rows


def row_key(row: dict, fields: tuple[str, ...]) -> tuple:
    return tuple(row.get(f) for f in fields)


def compare_file(name: str, base_path: str, fresh_path: str,
                 lines: list[str]) -> list[str]:
    """Returns regression messages; appends a per-metric table to `lines`."""
    spec = SPECS[name]
    base = {row_key(r, spec["key"]): r for r in load_rows(base_path)}
    fresh = {row_key(r, spec["key"]): r for r in load_rows(fresh_path)}
    failures: list[str] = []

    missing = sorted(set(base) - set(fresh), key=str)
    for key in missing:
        failures.append(f"{name}: row {key} missing from fresh output")
    for key in sorted(set(fresh) - set(base), key=str):
        lines.append(f"| {name} {key} | (new row, not in baseline) | | |")

    for key in sorted(set(base) & set(fresh), key=str):
        b, f = base[key], fresh[key]
        for metric, (kind, tol) in spec["metrics"].items():
            if metric not in b:
                continue  # older baseline: metric added later
            if metric not in f:
                failures.append(f"{name} {key}: metric '{metric}' vanished")
                continue
            bv, fv = float(b[metric]), float(f[metric])
            scale = max(abs(bv), 1e-12)
            delta = (fv - bv) / scale
            verdict = "ok"
            if kind == "exact":
                if abs(delta) > EXACT_REL_TOL:
                    verdict = "FAIL"
                    failures.append(
                        f"{name} {key}: {metric} changed {bv:g} -> {fv:g} "
                        f"(deterministic metric, any drift is a regression)"
                    )
            elif kind == "floor":
                if fv < bv * (1.0 - tol):
                    verdict = "FAIL"
                    failures.append(
                        f"{name} {key}: {metric} regressed {bv:g} -> {fv:g} "
                        f"({delta * 100:+.1f}%, tolerance -{tol * 100:.0f}%)"
                    )
            lines.append(
                f"| {name} {key} | {metric} | {bv:g} -> {fv:g} "
                f"({delta * 100:+.2f}%) | {verdict} |"
            )
    return failures


def run_compare(fresh_dir: str, baseline_dir: str,
                report_path: str | None) -> int:
    lines = ["| row | metric | baseline -> fresh | verdict |",
             "|---|---|---|---|"]
    failures: list[str] = []
    compared = 0
    for name in sorted(SPECS):
        base_path = os.path.join(baseline_dir, name)
        fresh_path = os.path.join(fresh_dir, name)
        if not os.path.isfile(base_path):
            print(f"bench_compare: no baseline for {name}, skipping")
            continue
        if not os.path.isfile(fresh_path):
            failures.append(f"{name}: fresh output missing ({fresh_path})")
            continue
        compared += 1
        failures.extend(compare_file(name, base_path, fresh_path, lines))

    report = "\n".join(lines) + "\n"
    if report_path:
        with open(report_path, "w", encoding="utf-8") as f:
            f.write("# bench_compare report\n\n" + report)
            if failures:
                f.write("\n## Regressions\n\n")
                for failure in failures:
                    f.write(f"- {failure}\n")
    print(report, end="")

    if compared == 0:
        print("bench_compare: nothing compared", file=sys.stderr)
        return 2
    if failures:
        print(f"bench_compare: {len(failures)} regression(s):",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"bench_compare: OK ({compared} file(s) within tolerance)")
    return 0


def run_update(fresh_dir: str, baseline_dir: str) -> int:
    os.makedirs(baseline_dir, exist_ok=True)
    updated = 0
    for name in sorted(SPECS):
        fresh_path = os.path.join(fresh_dir, name)
        if not os.path.isfile(fresh_path):
            print(f"bench_compare: {name} not found in {fresh_dir}, skipped")
            continue
        load_rows(fresh_path)  # validate before committing
        shutil.copyfile(fresh_path, os.path.join(baseline_dir, name))
        print(f"bench_compare: baseline updated: {name}")
        updated += 1
    return 0 if updated else 2


def run_join(out_path: str, in_paths: list[str]) -> int:
    """Concatenates row files into one; a key must not repeat."""
    spec = SPECS.get(os.path.basename(out_path))
    rows: list[dict] = []
    seen: set[tuple] = set()
    for path in in_paths:
        for row in load_rows(path):
            if spec is not None:
                key = row_key(row, spec["key"])
                if key in seen:
                    print(f"bench_compare: duplicate row {key} in {path}",
                          file=sys.stderr)
                    return 1
                seen.add(key)
            rows.append(row)
    with open(out_path, "w", encoding="utf-8") as f:
        f.write("[\n")
        f.write(",\n".join("  " + json.dumps(row) for row in rows))
        f.write("\n]\n")
    print(f"bench_compare: joined {len(rows)} rows into {out_path}")
    return 0


def run_self_test(baseline_dir: str) -> int:
    """Negative test: a synthetic 20% throughput drop must fail the gate."""
    import tempfile

    name = "BENCH_throughput.json"
    base_path = os.path.join(baseline_dir, name)
    if not os.path.isfile(base_path):
        print(f"bench_compare: self-test needs {base_path}", file=sys.stderr)
        return 2
    rows = load_rows(base_path)
    with tempfile.TemporaryDirectory(prefix="bench_compare_") as tmp:
        # Identity compare must pass.
        for other in SPECS:
            other_path = os.path.join(baseline_dir, other)
            if os.path.isfile(other_path):
                shutil.copyfile(other_path, os.path.join(tmp, other))
        if run_compare(tmp, baseline_dir, None) != 0:
            print("bench_compare: SELF-TEST FAILED: identity compare did "
                  "not pass", file=sys.stderr)
            return 1
        # A 20% drop in the wall-clock metrics must fail.
        degraded = []
        for row in rows:
            row = dict(row)
            for metric in ("mb_per_s", "speedup"):
                if metric in row:
                    row[metric] = row[metric] * 0.8
            degraded.append(row)
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as f:
            json.dump(degraded, f)
        if run_compare(tmp, baseline_dir, None) != 1:
            print("bench_compare: SELF-TEST FAILED: 20% regression was not "
                  "flagged", file=sys.stderr)
            return 1
        # One CPU tick more in one exact paper cell must fail too.
        paper = "BENCH_paper.json"
        paper_path = os.path.join(baseline_dir, paper)
        if os.path.isfile(paper_path):
            shutil.copyfile(base_path, os.path.join(tmp, name))
            moved = load_rows(paper_path)
            next(r for r in moved if "client_ticks" in r)["client_ticks"] += 1
            with open(os.path.join(tmp, paper), "w", encoding="utf-8") as f:
                json.dump(moved, f)
            if run_compare(tmp, baseline_dir, None) != 1:
                print("bench_compare: SELF-TEST FAILED: a one-tick move in "
                      f"{paper} was not flagged", file=sys.stderr)
                return 1
    print("bench_compare: self-test OK (identity passes, -20% and a "
          "one-tick paper move fail)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", default=".",
                        help="directory holding fresh BENCH_*.json files")
    parser.add_argument("--baselines", default=BASELINES,
                        help="committed baseline directory")
    parser.add_argument("--report", default=None,
                        help="also write a markdown report here")
    parser.add_argument("--update", action="store_true",
                        help="refresh the baselines from the fresh output")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate flags an injected regression")
    parser.add_argument("--join", nargs="+", metavar=("OUT", "IN"),
                        help="write the rows of every IN file to OUT")
    args = parser.parse_args()

    if args.join:
        if len(args.join) < 2:
            parser.error("--join needs OUT and at least one IN file")
        return run_join(args.join[0], args.join[1:])
    if args.self_test:
        return run_self_test(args.baselines)
    if args.update:
        return run_update(args.fresh, args.baselines)
    return run_compare(args.fresh, args.baselines, args.report)


if __name__ == "__main__":
    sys.exit(main())
