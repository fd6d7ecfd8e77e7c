#!/bin/sh
# Operator-site lint: under src/psinterp/ and src/core/, no code compares an
# operator spelling as a string (`op == "-bxor"`, `op.rfind("++", 0)`,
# `iequals(t, "-join")`). Operators are parsed once into ps::Op ids
# (src/pslang/operators.h), and evaluation and recovery switch on those;
# a spelling compare would bypass the table and miss its case variants.
# The spellings checked are the table's own rows in
# src/pslang/operators.cpp. `//` comments are ignored.
# Registered as the `operator_sites_lint` ctest entry.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
table="$root/src/pslang/operators.cpp"

if [ ! -f "$table" ]; then
  echo "check_operator_sites: missing $table (bad checkout?)" >&2
  exit 2
fi

# One ERE alternative per table spelling, metacharacters escaped.
spellings="$(sed -n 's/^[[:space:]]*{"\([^"]*\)", Op::.*/\1/p' "$table" |
  sed 's/[][\.*^$+?(){}|/]/\\&/g' | paste -sd '|' -)"
if [ -z "$spellings" ]; then
  echo "check_operator_sites: no operator rows found in $table" >&2
  exit 2
fi
lit="\"($spellings)\""
pattern="(==|!=)[[:space:]]*$lit|$lit[[:space:]]*(==|!=)|(find|rfind|starts_with|ends_with|compare|iequals)[[:space:]]*\\([^;]*$lit"

found=0
for file in "$root"/src/psinterp/* "$root"/src/core/*; do
  hits="$(sed 's|//.*||' "$file" | grep -nE "$pattern" || true)"
  if [ -n "$hits" ]; then
    printf '%s\n' "$hits" | sed "s|^|$file:|" >&2
    found=1
  fi
done

if [ "$found" -ne 0 ]; then
  echo "check_operator_sites: dispatch on the parsed ps::Op id instead (src/pslang/operators.h)" >&2
  exit 1
fi
echo "check_operator_sites: no operator spelling is compared in src/psinterp or src/core"
