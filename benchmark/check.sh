#!/usr/bin/env bash
# Smoke check for a CI step: build offline, run every workload at --quick
# scale (untraced and traced), and check the shape of each result line.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

cargo build --release --offline --quiet --manifest-path "$manifest"
cargo test --release --offline --quiet --manifest-path "$manifest"

snapshot="$(cargo run --release --offline --quiet --manifest-path "$manifest" -- --all --quick --seconds 1)"

python3 - "$here/../BENCHMARK.json" <<'EOF' "$snapshot"
import json, sys

manifest = json.load(open(sys.argv[1]))
snapshot = json.loads(sys.argv[2])
want = {
    "end_to_end": {m["name"]: m["unit"] for m in manifest["end_to_end"]},
    "traced": {m["name"]: m["unit"] for m in manifest["per_layer"]},
}
for w in manifest["workloads"]:
    row = snapshot["workloads"][w["name"]]
    for kind, metrics in want.items():
        result = row[kind]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, (w["name"], kind)
        assert result["correct"] is True and result["failed"] == 0, (w["name"], kind)
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        assert got == metrics, (w["name"], kind, set(got) ^ set(metrics))
        for n, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), (w["name"], n, m)
print("benchmark check: ok —", len(manifest["workloads"]), "workloads, shapes match BENCHMARK.json")
EOF
