#!/usr/bin/env python3
"""Diff two `--all` benchmark snapshots against the bounds in BENCHMARK.json.

    scripts/bench_diff.py                      # the newest committed pair
    scripts/bench_diff.py A.json B.json        # any two snapshots

Without arguments, diffs the highest-numbered `BENCH_<n>.parent.json` /
`BENCH_<n>.json` pair in the repository root.  Prints every workload x
end-to-end metric as `B / A = ratio` (A is the base) and exits 1 when a
metric of B is worse than A by more than its declared bound, when a run is
not `correct`, or when a larger share of operations failed.  No timing
happens here: CI runs it on committed snapshots.
"""
import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def newest_pair():
    """The `BENCH_<n>` pair with the largest n whose two files both exist."""
    numbers = (re.fullmatch(r"BENCH_(\d+)\.parent\.json", p.name) for p in ROOT.iterdir())
    for n in sorted((int(m.group(1)) for m in numbers if m), reverse=True):
        if (ROOT / f"BENCH_{n}.json").exists():
            return str(ROOT / f"BENCH_{n}.parent.json"), str(ROOT / f"BENCH_{n}.json")
    sys.exit("no BENCH_<n>.parent.json / BENCH_<n>.json pair in " + str(ROOT))


def main(a_path, b_path):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = (json.loads(pathlib.Path(p).read_text())["workloads"] for p in (a_path, b_path))
    print(f"base A = {a_path}, B = {b_path}")
    bad = []
    for workload in (w["name"] for w in manifest["workloads"]):
        ra, rb = a[workload]["end_to_end"], b[workload]["end_to_end"]
        fail_a = ra["failed"] / max(ra["attempted"], 1)
        fail_b = rb["failed"] / max(rb["attempted"], 1)
        if not rb["correct"] or fail_b > fail_a:
            bad.append(f"{workload}: correct={rb['correct']}, failed share {fail_b} vs {fail_a}")
        for metric in manifest["end_to_end"]:
            name, bound, higher = metric["name"], metric["bound"], metric["better"] == "higher"
            va, vb = ra["metrics"][name]["value"], rb["metrics"][name]["value"]
            ratio = vb / va if va else float("inf") if vb else 1.0
            worse = ratio < 1 - bound if higher else ratio > 1 + bound
            print(
                f"{workload:22} {name:20} {vb:16.6f} / {va:16.6f} = {ratio:7.4f}x"
                f"  ({metric['better']} is better, bound {bound:.2f})"
                f"{'  WORSE' if worse else ''}"
            )
            if worse:
                bad.append(f"{workload}.{name}: {ratio:.4f}x of base, bound {bound}")
    for line in bad:
        print("regression:", line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) not in (1, 3):
        sys.exit(__doc__)
    sys.exit(main(*(sys.argv[1:] or newest_pair())))
