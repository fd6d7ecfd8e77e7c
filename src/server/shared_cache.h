#pragma once

/// \file shared_cache.h
/// Content-addressed response cache shared across fleet worker processes.
///
/// The wild corpus is dominated by campaign-duplicated scripts, so the same
/// source arrives at different workers over and over; this cache makes sure
/// it reaches the sandbox once per fleet, not once per process. Keys are a
/// 128-bit fingerprint of (script source, effective options); values are the
/// fully rendered NDJSON response line with an empty correlation id, spliced
/// with the real id on a hit (see splice_cached_response_line).
///
/// The region is a file-backed mmap(MAP_SHARED) shared by plain open() from
/// each worker — no shm names to leak, and `ls`/`rm` work on it. Workers
/// crash by design here, so every entry is crash-safe on its own:
///
///   * each fixed-size slot is guarded by a seqlock word (odd = write in
///     progress) published with release ordering, so a reader never sees a
///     half-written entry as valid;
///   * each entry carries an FNV-1a checksum over key+payload, so a torn
///     write that survived a crash (or bit rot, or a hostile edit of the
///     backing file) reads as a miss, never as a response.
///
/// Trust model: the cache file is as trusted as the server binary — anyone
/// who can write it can serve forged responses, so it lives in the fleet
/// state directory (created 0700). The checksum is an integrity check
/// against crashes, not an authentication mechanism.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace ideobf::server {

/// 128-bit content-address: `lo` doubles as the slot-placement hash.
struct CacheKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  [[nodiscard]] bool valid() const { return lo != 0 || hi != 0; }
};

/// FNV-1a over `text`, seeded so independent streams decorrelate.
std::uint64_t fnv1a64(std::string_view text, std::uint64_t seed);

/// Continues an FNV-1a state over more text: for any split of a text into
/// `a + b`, fnv1a64(a + b, seed) == fnv1a64_extend(fnv1a64(a, seed), b).
std::uint64_t fnv1a64_extend(std::uint64_t state, std::string_view text);

/// The content address of a request: source hashed twice with independent
/// seeds (128 bits against campaign-scale birthday collisions), both halves
/// mixed with the options fingerprint so the same script under different
/// limits/blocklists never aliases. This is the reference definition; the
/// serve path computes the same key with hash_source.
CacheKey make_cache_key(std::string_view source,
                        std::string_view options_fingerprint);

/// What the serve path hashes a request's source into.
struct SourceHashes {
  std::uint64_t script = 0;  ///< journal/quarantine identity: fnv1a64(source, 0)
  CacheKey key;              ///< shared-cache key
};

/// Both of a source's hashes from one pass over its bytes, three FNV-1a
/// lanes side by side. With `options_hash` = fnv1a64(fingerprint, 0),
/// `key` equals make_cache_key(source, fingerprint) bit for bit.
SourceHashes hash_source(std::string_view source, std::uint64_t options_hash);

/// How every cached response line starts: it is rendered with id = "".
inline constexpr std::string_view kCachedLinePrefix = "{\"id\":\"\",";

/// Appends a cached response line (starting with kCachedLinePrefix) to
/// `out`, rewritten for a specific request: the real id is spliced in, a
/// non-empty `request_id` (the server-assigned trace/log join key) is echoed
/// right after it, and a `"cached":true` marker added. Returns false,
/// appending nothing, when `cached_line` does not have the prefix (treat as
/// a cache miss).
bool append_cached_response_line(std::string_view cached_line,
                                 std::string_view id, std::string& out,
                                 std::string_view request_id = {});

/// What one SharedResponseCache::lookup found.
enum class CacheLookup {
  Miss,     ///< no entry under the key (or it changed mid-read)
  Hit,      ///< checksum-verified entry; the payload is filled in
  Corrupt,  ///< key matched, checksum did not: served as a miss
};

/// Process-local view of one shared cache region.
class SharedResponseCache {
 public:
  struct Config {
    std::string path;              ///< backing file (created if missing)
    std::uint32_t slot_count = 1024;
    std::uint32_t slot_bytes = 16u << 10;  ///< per-slot size, header included
  };

  /// Per-process counters (mirrored into ideobf_fleet_cache_* telemetry by
  /// the server; kept here too so tests don't need the registry).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t store_skips = 0;  ///< oversized payload or slot contention
    std::uint64_t corrupt = 0;      ///< key matched, checksum did not
  };

  /// Opens (creating and initialising under an flock if needed) the region.
  /// Returns null with a reason in `error` on I/O failure or on an existing
  /// file with a mismatched magic/geometry.
  static std::unique_ptr<SharedResponseCache> open(const Config& config,
                                                   std::string& error);
  ~SharedResponseCache();

  SharedResponseCache(const SharedResponseCache&) = delete;
  SharedResponseCache& operator=(const SharedResponseCache&) = delete;

  /// Hit on a checksum-verified entry, whose line `payload` receives.
  /// Corrupt entries count in stats() as misses too.
  CacheLookup lookup(const CacheKey& key, std::string& payload);

  /// Publishes `payload` under `key`. False when the payload does not fit a
  /// slot or every candidate slot is mid-write (callers just don't cache).
  bool store(const CacheKey& key, std::string_view payload);

  /// Fault hook (FaultSite::CacheCorrupt) and test back door: flips payload
  /// bytes of the entry stored under `key` without touching its checksum.
  /// Returns false when the key is not present.
  bool corrupt_entry(const CacheKey& key);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::uint32_t slot_count() const;
  [[nodiscard]] std::size_t max_payload_bytes() const;

 private:
  SharedResponseCache() = default;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ideobf::server
