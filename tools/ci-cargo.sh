#!/usr/bin/env bash
# Runs a cargo subcommand over every first-party workspace package.
#
# The package list is derived from `cargo metadata`, not hand-maintained:
# vendored crates (vendor/*) keep their upstream formatting and lints, and
# a newly added ipv6web-* crate is picked up automatically instead of being
# silently skipped. (`cargo clippy --all-targets` at the root alone lints
# only the root package's targets.)
#
# Usage: tools/ci-cargo.sh <subcommand> [args...]
#   tools/ci-cargo.sh fmt --check
#   tools/ci-cargo.sh clippy --all-targets -- -D warnings
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -eq 0 ]]; then
  echo "usage: $0 <subcommand> [args...]" >&2
  exit 2
fi
sub=$1
shift

pkgs=$(cargo metadata --format-version 1 --no-deps |
  python3 -c '
import json, sys
meta = json.load(sys.stdin)
names = sorted(p["name"] for p in meta["packages"] if p["name"].startswith("ipv6web"))
print("\n".join(names))
')

if [[ -z "$pkgs" ]]; then
  echo "ci-cargo: no ipv6web packages found in cargo metadata" >&2
  exit 1
fi

args=()
while IFS= read -r p; do
  args+=(-p "$p")
done <<<"$pkgs"

exec cargo "$sub" "${args[@]}" "$@"
