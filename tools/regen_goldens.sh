#!/usr/bin/env bash
# Regenerates tests/golden/<example>.json: the `litegpu run <example> --json`
# report of every examples/scenarios/*.json. cli_smoke_test compares each
# report against its golden byte for byte, at --threads 1 and --threads 0.
#
#   tools/regen_goldens.sh [path/to/litegpu]     (default: build/litegpu)
#
# The goldens pin the report contract. Regenerate them only for an intended
# report change, and justify every regeneration in CHANGES.md: which
# goldens changed and why.
set -euo pipefail
cd "$(dirname "$0")/.."
cli=${1:-build/litegpu}
mkdir -p tests/golden
rm -f tests/golden/*.json
for scenario in examples/scenarios/*.json; do
  name=$(basename "$scenario" .json)
  "$cli" run "$scenario" --json --threads 1 >"tests/golden/$name.json"
done
echo "regen_goldens: wrote $(ls tests/golden/*.json | wc -l) goldens to tests/golden/"
