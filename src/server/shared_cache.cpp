#include "server/shared_cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>

#include "telemetry/log.h"

namespace ideobf::server {

namespace {

constexpr std::uint64_t kMagic = 0x69646f62666b5631ull;  // "ideobfkV1"-ish
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr std::uint32_t kVersion = 1;
/// Set-associativity of slot placement: a key may land in any of these many
/// consecutive slots, with the oldest stamp evicted on store.
constexpr std::uint32_t kWays = 4;

struct FileHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t slot_count;
  std::uint32_t slot_bytes;
  std::uint32_t reserved;
  /// Global logical clock for eviction age; bumped on every store.
  alignas(8) std::uint64_t stamp;
};

/// Per-slot header ahead of the payload bytes. `seq` is the seqlock word:
/// even = stable, odd = write in progress; a slot is empty while seq == 0
/// and key == 0.
struct SlotHeader {
  alignas(8) std::uint64_t seq;
  std::uint64_t key_lo;
  std::uint64_t key_hi;
  std::uint64_t stamp;
  std::uint64_t len;
  std::uint64_t checksum;
};

std::uint64_t entry_checksum(const CacheKey& key, std::string_view payload) {
  std::uint64_t h = fnv1a64(payload, /*seed=*/0x9e3779b97f4a7c15ull);
  h ^= key.lo;
  h *= kFnvPrime;
  h ^= key.hi;
  h *= kFnvPrime;
  h ^= payload.size();
  return h;
}

std::atomic_ref<std::uint64_t> atomic_u64(std::uint64_t& word) {
  return std::atomic_ref<std::uint64_t>(word);
}

}  // namespace

std::uint64_t fnv1a64_extend(std::uint64_t state, std::string_view text) {
  for (const char c : text) {
    state ^= static_cast<unsigned char>(c);
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t fnv1a64(std::string_view text, std::uint64_t seed) {
  return fnv1a64_extend(kFnvOffset ^ seed, text);
}

CacheKey make_cache_key(std::string_view source,
                        std::string_view options_fingerprint) {
  const std::uint64_t opts = fnv1a64(options_fingerprint, /*seed=*/0);
  CacheKey key;
  key.lo = fnv1a64(source, opts);
  key.hi = fnv1a64(source, ~opts * kFnvPrime);
  // A zero key means "empty slot"; nudge the astronomically unlikely case.
  if (!key.valid()) key.lo = 1;
  return key;
}

SourceHashes hash_source(std::string_view source, std::uint64_t options_hash) {
  // The three lanes are fnv1a64(source, 0) and make_cache_key's two halves;
  // their multiply chains are independent, so they overlap in the pipeline
  // and the pass costs about what one hash did.
  std::uint64_t script = kFnvOffset;
  std::uint64_t lo = kFnvOffset ^ options_hash;
  std::uint64_t hi = kFnvOffset ^ (~options_hash * kFnvPrime);
  for (const char c : source) {
    const auto b = static_cast<unsigned char>(c);
    script = (script ^ b) * kFnvPrime;
    lo = (lo ^ b) * kFnvPrime;
    hi = (hi ^ b) * kFnvPrime;
  }
  SourceHashes out;
  out.script = script;
  out.key.lo = lo;
  out.key.hi = hi;
  if (!out.key.valid()) out.key.lo = 1;  // as in make_cache_key
  return out;
}

bool append_cached_response_line(std::string_view cached_line,
                                 std::string_view id, std::string& out,
                                 std::string_view request_id) {
  // Splicing swaps the empty correlation id for the caller's and marks the
  // reply as served from cache.
  if (!cached_line.starts_with(kCachedLinePrefix)) return false;
  out += "{\"id\":";
  telemetry::append_json_quoted(out, id);
  if (!request_id.empty()) {
    out += ",\"request_id\":";
    telemetry::append_json_quoted(out, request_id);
  }
  out += ",\"cached\":true,";
  out += cached_line.substr(kCachedLinePrefix.size());
  return true;
}

struct SharedResponseCache::Impl {
  int fd = -1;
  void* map = MAP_FAILED;
  std::size_t map_bytes = 0;
  Config config;
  mutable std::mutex stats_mu;
  Stats stats;

  FileHeader* header() { return static_cast<FileHeader*>(map); }
  SlotHeader* slot(std::uint32_t index) {
    auto* base = static_cast<char*>(map) + sizeof(FileHeader);
    return reinterpret_cast<SlotHeader*>(
        base + static_cast<std::size_t>(index) * config.slot_bytes);
  }
  char* payload_of(SlotHeader* s) {
    return reinterpret_cast<char*>(s) + sizeof(SlotHeader);
  }
  std::size_t payload_capacity() const {
    return config.slot_bytes - sizeof(SlotHeader);
  }

  ~Impl() {
    if (map != MAP_FAILED) ::munmap(map, map_bytes);
    if (fd >= 0) ::close(fd);
  }
};

std::unique_ptr<SharedResponseCache> SharedResponseCache::open(
    const Config& config, std::string& error) {
  if (config.slot_count == 0 || config.slot_bytes <= sizeof(SlotHeader) ||
      config.slot_bytes % alignof(SlotHeader) != 0) {
    error = "invalid shared cache geometry";
    return nullptr;
  }
  auto impl = std::make_unique<Impl>();
  impl->config = config;
  impl->fd = ::open(config.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0600);
  if (impl->fd < 0) {
    error = "cannot open cache file '" + config.path +
            "': " + std::strerror(errno);
    return nullptr;
  }
  const std::size_t want =
      sizeof(FileHeader) +
      static_cast<std::size_t>(config.slot_count) * config.slot_bytes;
  // Initialisation race between workers is settled with an exclusive flock:
  // whoever wins sizes the file and stamps the magic; everyone else sees a
  // fully initialised region by the time the lock is released.
  if (::flock(impl->fd, LOCK_EX) != 0) {
    error = std::string("flock failed: ") + std::strerror(errno);
    return nullptr;
  }
  struct stat st{};
  if (::fstat(impl->fd, &st) != 0) {
    ::flock(impl->fd, LOCK_UN);
    error = std::string("fstat failed: ") + std::strerror(errno);
    return nullptr;
  }
  const bool fresh = st.st_size == 0;
  if (fresh && ::ftruncate(impl->fd, static_cast<off_t>(want)) != 0) {
    ::flock(impl->fd, LOCK_UN);
    error = std::string("ftruncate failed: ") + std::strerror(errno);
    return nullptr;
  }
  if (!fresh && static_cast<std::size_t>(st.st_size) != want) {
    ::flock(impl->fd, LOCK_UN);
    error = "cache file '" + config.path +
            "' has a different geometry; remove it or match the fleet config";
    return nullptr;
  }
  impl->map_bytes = want;
  impl->map = ::mmap(nullptr, want, PROT_READ | PROT_WRITE, MAP_SHARED,
                     impl->fd, 0);
  if (impl->map == MAP_FAILED) {
    ::flock(impl->fd, LOCK_UN);
    error = std::string("mmap failed: ") + std::strerror(errno);
    return nullptr;
  }
  FileHeader* header = impl->header();
  if (fresh) {
    header->version = kVersion;
    header->slot_count = config.slot_count;
    header->slot_bytes = config.slot_bytes;
    header->stamp = 0;
    atomic_u64(header->magic).store(kMagic, std::memory_order_release);
  } else if (atomic_u64(header->magic).load(std::memory_order_acquire) !=
                 kMagic ||
             header->version != kVersion ||
             header->slot_count != config.slot_count ||
             header->slot_bytes != config.slot_bytes) {
    ::flock(impl->fd, LOCK_UN);
    error = "cache file '" + config.path +
            "' is not a compatible ideobf cache region";
    return nullptr;
  }
  ::flock(impl->fd, LOCK_UN);
  auto cache = std::unique_ptr<SharedResponseCache>(new SharedResponseCache());
  cache->impl_ = std::move(impl);
  return cache;
}

SharedResponseCache::~SharedResponseCache() = default;

CacheLookup SharedResponseCache::lookup(const CacheKey& key,
                                        std::string& payload) {
  Impl& im = *impl_;
  const std::uint32_t base =
      static_cast<std::uint32_t>(key.lo % im.config.slot_count);
  for (std::uint32_t way = 0; way < kWays; ++way) {
    SlotHeader* s = im.slot((base + way) % im.config.slot_count);
    const std::uint64_t seq_before =
        atomic_u64(s->seq).load(std::memory_order_acquire);
    if (seq_before == 0 || (seq_before & 1u) != 0) continue;
    if (s->key_lo != key.lo || s->key_hi != key.hi) continue;
    const std::uint64_t len = s->len;
    if (len > im.payload_capacity()) continue;  // torn header
    payload.assign(im.payload_of(s), len);
    const std::uint64_t checksum = s->checksum;
    std::atomic_thread_fence(std::memory_order_acquire);
    if (atomic_u64(s->seq).load(std::memory_order_relaxed) != seq_before) {
      continue;  // overwritten mid-read; count as a miss
    }
    if (checksum != entry_checksum(key, payload)) {
      // Key matched but the bytes did not: a torn or tampered entry. Surface
      // it as corruption (and a miss) rather than serving the payload.
      if (telemetry::log_enabled(telemetry::LogLevel::Warn)) {
        telemetry::LogEvent(telemetry::LogLevel::Warn, "shared_cache",
                            "cache-entry-corrupt")
            .field("key_lo", static_cast<std::int64_t>(key.lo))
            .field("len", static_cast<std::int64_t>(payload.size()));
      }
      std::lock_guard<std::mutex> lock(im.stats_mu);
      im.stats.corrupt++;
      im.stats.misses++;
      return CacheLookup::Corrupt;
    }
    std::lock_guard<std::mutex> lock(im.stats_mu);
    im.stats.hits++;
    return CacheLookup::Hit;
  }
  std::lock_guard<std::mutex> lock(im.stats_mu);
  im.stats.misses++;
  return CacheLookup::Miss;
}

bool SharedResponseCache::store(const CacheKey& key, std::string_view payload) {
  Impl& im = *impl_;
  if (payload.size() > im.payload_capacity()) {
    std::lock_guard<std::mutex> lock(im.stats_mu);
    im.stats.store_skips++;
    return false;
  }
  const std::uint32_t base =
      static_cast<std::uint32_t>(key.lo % im.config.slot_count);
  // Pick the victim way: the slot already holding this key, else the oldest.
  std::uint32_t victim = base;
  std::uint64_t victim_stamp = ~0ull;
  for (std::uint32_t way = 0; way < kWays; ++way) {
    const std::uint32_t index = (base + way) % im.config.slot_count;
    SlotHeader* s = im.slot(index);
    const std::uint64_t seq = atomic_u64(s->seq).load(std::memory_order_acquire);
    if ((seq & 1u) != 0) continue;  // mid-write; not a candidate
    if (seq != 0 && s->key_lo == key.lo && s->key_hi == key.hi) {
      victim = index;
      break;
    }
    const std::uint64_t stamp = seq == 0 ? 0 : s->stamp;
    if (stamp < victim_stamp) {
      victim_stamp = stamp;
      victim = index;
    }
  }
  SlotHeader* s = im.slot(victim);
  std::uint64_t seq = atomic_u64(s->seq).load(std::memory_order_relaxed);
  if ((seq & 1u) != 0 ||
      !atomic_u64(s->seq).compare_exchange_strong(
          seq, seq + 1, std::memory_order_acq_rel, std::memory_order_relaxed)) {
    // Another worker is publishing into the same slot right now; losing a
    // cache store is fine, blocking a request on it is not.
    std::lock_guard<std::mutex> lock(im.stats_mu);
    im.stats.store_skips++;
    return false;
  }
  s->key_lo = key.lo;
  s->key_hi = key.hi;
  s->stamp = atomic_u64(im.header()->stamp)
                 .fetch_add(1, std::memory_order_relaxed) +
             1;
  s->len = payload.size();
  s->checksum = entry_checksum(key, payload);
  std::memcpy(im.payload_of(s), payload.data(), payload.size());
  atomic_u64(s->seq).store(seq + 2, std::memory_order_release);
  std::lock_guard<std::mutex> lock(im.stats_mu);
  im.stats.stores++;
  return true;
}

bool SharedResponseCache::corrupt_entry(const CacheKey& key) {
  Impl& im = *impl_;
  const std::uint32_t base =
      static_cast<std::uint32_t>(key.lo % im.config.slot_count);
  for (std::uint32_t way = 0; way < kWays; ++way) {
    SlotHeader* s = im.slot((base + way) % im.config.slot_count);
    const std::uint64_t seq = atomic_u64(s->seq).load(std::memory_order_acquire);
    if (seq == 0 || (seq & 1u) != 0) continue;
    if (s->key_lo != key.lo || s->key_hi != key.hi) continue;
    char* payload = im.payload_of(s);
    const std::uint64_t len = s->len;
    for (std::uint64_t i = 0; i < len; ++i) payload[i] ^= 0x5a;
    return true;
  }
  return false;
}

SharedResponseCache::Stats SharedResponseCache::stats() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mu);
  return impl_->stats;
}

std::uint32_t SharedResponseCache::slot_count() const {
  return impl_->config.slot_count;
}

std::size_t SharedResponseCache::max_payload_bytes() const {
  return impl_->payload_capacity();
}

}  // namespace ideobf::server
