#!/bin/sh
# Envelope-site lint: a request's execution envelope is worked out in one
# place. `resolve` in src/core/api.cpp turns `deadline_ms` into seconds and
# builds the `Options::Limits` a call runs under, and the Engine's one
# watchdog backstops every governed call at deadline x watchdog_factor.
# The server and the CLI hand requests (and the server its cancellation
# tokens) to Engine::handle; a second resolution or a second watchdog
# would let the same request answer differently by the path it took.
#   - src/server/ and tools/ must not name `Options::Limits`, compute with
#     `watchdog_factor`, or run a watchdog thread of their own;
#   - no file under src/, include/ or tools/ other than src/core/api.cpp
#     divides a deadline by 1000.
# `//` comments are ignored. Registered as the `envelope_sites_lint` ctest
# entry.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
resolver="$root/src/core/api.cpp"

if [ ! -f "$resolver" ]; then
  echo "check_envelope_sites: missing $resolver (bad checkout?)" >&2
  exit 2
fi

found=0
report() {
  printf '%s\n' "$2" | sed "s|^|$1:|" >&2
  found=1
}

# Second envelopes and watchdogs in the server and the CLI.
envelope='Options::Limits|watchdog_factor[[:space:]]*[-+*/]|[-+*/][[:space:]]*[[:alnum:]_.>()-]*watchdog_factor|max[[:space:]]*\([^;]*watchdog_factor|watchdog[[:alnum:]_]*(thread|loop)|(jthread|std::thread)[^;]*watchdog|WatchEntry'
for file in $(find "$root/src/server" "$root/tools" -type f \( -name '*.cpp' -o -name '*.h' \)); do
  hits="$(sed 's|//.*||' "$file" | grep -nE "$envelope" || true)"
  if [ -n "$hits" ]; then report "$file" "$hits"; fi
done

# Deadline unit conversions outside the resolver.
division='deadline[^;]*/=?[[:space:]]*1000([^0-9]|$)'
for file in $(find "$root/src" "$root/include" "$root/tools" -type f \( -name '*.cpp' -o -name '*.h' \)); do
  [ "$file" = "$resolver" ] && continue
  hits="$(sed 's|//.*||' "$file" | grep -nE "$division" || true)"
  if [ -n "$hits" ]; then report "$file" "$hits"; fi
done

if [ "$found" -ne 0 ]; then
  echo "check_envelope_sites: pass the request to Engine::handle; resolve in src/core/api.cpp works out its envelope and the engine's watchdog backstops it" >&2
  exit 1
fi
echo "check_envelope_sites: one envelope resolution (src/core/api.cpp) and one watchdog"
