#!/bin/sh
# Hit-path lint: a shared-cache hit hashes its source once. The options
# fingerprint text is built where the configuration is loaded — the
# RequestHasher constructor, which the server runs at start-up and on a
# SIGHUP reload — and each request only continues the hash state it left
# (RequestHasher::hash, one pass over the source for all three hashes).
#   - src/server/ calls `options_fingerprint(` or `options_fingerprint_head(`
#     only inside `RequestHasher::RequestHasher` and inside
#     `options_fingerprint` itself (the reference text the key tests compare
#     against); their declarations and definitions are not calls;
#   - src/server/ never calls `make_cache_key(`, the reference key that
#     hashes the source once per half, outside its own definition.
# `//` comments are ignored. Registered as the `hit_path_lint` ctest entry.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
server="$root/src/server"

if [ ! -d "$server" ]; then
  echo "check_hit_path: missing $server (bad checkout?)" >&2
  exit 2
fi

found=0
for file in $(find "$server" -type f \( -name '*.cpp' -o -name '*.h' \)); do
  hits="$(sed 's|//.*||' "$file" | awk '
    # Column-0 definitions whose bodies may build the fingerprint text.
    /^(std::string options_fingerprint\(|RequestHasher::RequestHasher\()/ {
      allowed = 1
    }
    {
      declaration = $0 ~ /(std::string|CacheKey)[[:space:]]+(options_fingerprint[[:alnum:]_]*|make_cache_key)\(/
      if (!declaration && !allowed &&
          $0 ~ /options_fingerprint[[:alnum:]_]*[[:space:]]*\(/) {
        print NR ":" $0
      }
      if (!declaration && $0 ~ /make_cache_key[[:space:]]*\(/) print NR ":" $0
    }
    /^}/ { allowed = 0 }
  ')"
  if [ -n "$hits" ]; then
    printf '%s\n' "$hits" | sed "s|^|$file:|" >&2
    found=1
  fi
done

if [ "$found" -ne 0 ]; then
  echo "check_hit_path: hash a request with the RequestHasher built at config load/reload (one pass over the source); do not rebuild the options fingerprint or the reference key per request" >&2
  exit 1
fi
echo "check_hit_path: the options fingerprint is built at config load/reload only, and each source is hashed in one pass"
