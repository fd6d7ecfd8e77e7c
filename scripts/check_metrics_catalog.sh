#!/bin/sh
# Metrics-catalog lint, both directions:
#   - every `ideobf_*` metric name minted anywhere in src/ must have a row
#     in docs/OBSERVABILITY.md, so a new metric cannot land without its
#     documentation;
#   - every `ideobf_*` name the doc mentions must still be minted somewhere
#     under src/ or tools/, so a deleted metric cannot leave a stale row.
# Registered as the `metrics_catalog_lint` ctest entry.
#
# Matching is a literal substring check, so the catalog must spell out full
# metric names (no `ideobf_foo_{a,b}_total` shorthand), and a name counts as
# minted when it appears as a string literal ("ideobf_...") in the code.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
doc="$root/docs/OBSERVABILITY.md"

if [ ! -f "$doc" ]; then
  echo "check_metrics_catalog: missing $doc" >&2
  exit 2
fi

names="$(grep -rhoE '"ideobf_[a-z0-9_]+"' "$root/src" | tr -d '"' | sort -u)"
if [ -z "$names" ]; then
  echo "check_metrics_catalog: found no ideobf_* literals under src/ (bad checkout?)" >&2
  exit 2
fi

missing=0
for name in $names; do
  if ! grep -qF "$name" "$doc"; then
    echo "undocumented metric: $name (add a catalog row to docs/OBSERVABILITY.md)" >&2
    missing=1
  fi
done

minted="$(grep -rhoE '"ideobf_[a-z0-9_]+"' "$root/src" "$root/tools" | tr -d '"' | sort -u)"
documented="$(grep -oE 'ideobf_[a-z0-9_]+' "$doc" | sort -u)"
for name in $documented; do
  if ! printf '%s\n' "$minted" | grep -qxF "$name"; then
    echo "stale catalog row: $name is documented but nothing under src/ or tools/ mints it" >&2
    missing=1
  fi
done

if [ "$missing" -eq 0 ]; then
  echo "check_metrics_catalog: all $(printf '%s\n' "$names" | wc -l) metric names documented, no stale rows"
fi
exit "$missing"
