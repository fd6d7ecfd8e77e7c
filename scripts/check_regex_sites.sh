#!/bin/sh
# Regex-site lint: under src/psinterp/, std::regex (and <regex>) may appear
# only in pattern.cpp. Every pattern operator (-split, -replace, -match,
# Select-String, [regex]::Split/Replace/Matches) goes through the Pattern
# helper there, which runs literal patterns as a substring scan; a new
# direct std::regex call would bypass that fast path. `//` comments are
# ignored, so documentation may name std::regex freely.
# Registered as the `regex_sites_lint` ctest entry.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
dir="$root/src/psinterp"

if [ ! -f "$dir/pattern.cpp" ]; then
  echo "check_regex_sites: missing $dir/pattern.cpp (bad checkout?)" >&2
  exit 2
fi

found=0
for file in "$dir"/*; do
  [ "$(basename "$file")" = "pattern.cpp" ] && continue
  hits="$(sed 's|//.*||' "$file" | grep -nE 'std::[a-z_]*regex|std::w?[cs]match|std::match_results|<regex>' || true)"
  if [ -n "$hits" ]; then
    printf '%s\n' "$hits" | sed "s|^|$file:|" >&2
    found=1
  fi
done

if [ "$found" -ne 0 ]; then
  echo "check_regex_sites: route these through ps::Pattern (src/psinterp/pattern.h)" >&2
  exit 1
fi
echo "check_regex_sites: std::regex is confined to src/psinterp/pattern.cpp"
