#include "psast/parse_cache.h"

#include "pslang/lexer.h"
#include "psast/parser.h"
#include "telemetry/metrics.h"

namespace ps {

namespace {

// Registry mirrors of the tables' counts, so `--metrics` output and bench
// hit-rate keys come from one place. Lookups are counted separately
// (rather than derived) so the exposition can assert hits+misses+bypasses
// == lookups as a reconciliation check.
ideobf::telemetry::Counter& cache_lookup_counter() {
  static auto& c = ideobf::telemetry::registry().counter(
      "ideobf_parse_cache_lookup_total");
  return c;
}
ideobf::telemetry::Counter& cache_hit_counter() {
  static auto& c =
      ideobf::telemetry::registry().counter("ideobf_parse_cache_hit_total");
  return c;
}
ideobf::telemetry::Counter& cache_miss_counter() {
  static auto& c =
      ideobf::telemetry::registry().counter("ideobf_parse_cache_miss_total");
  return c;
}
ideobf::telemetry::Counter& cache_bypass_counter() {
  static auto& c =
      ideobf::telemetry::registry().counter("ideobf_parse_cache_bypass_total");
  return c;
}

}  // namespace

ParseCache::ParseCache(std::size_t max_entries, std::size_t max_bytes)
    : max_entries_(max_entries), max_bytes_(max_bytes) {}

ParseCache::Result ParseCache::get(std::string_view text) {
  cache_lookup_counter().add();
  if (auto it = map_.find(text); it != map_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    cache_hit_counter().add();
    return it->second;
  }

  // The pinned source copy lives in the same arena as the tree, so the
  // whole entry is one allocation domain with one refcount.
  Result fresh;
  auto arena = std::make_shared<Arena>(Arena::chunk_bytes_for(text.size()));
  const std::string* pinned = arena->make<std::string>(text);
  const ScriptBlockAst* root = nullptr;
  try {
    root = parse_into(*arena, *pinned);
  } catch (const ParseError&) {
  } catch (const LexError&) {
  }
  const std::size_t cost = 2 * text.size() + arena->reserved_bytes();
  fresh.source = std::shared_ptr<const std::string>(arena, pinned);
  fresh.ast = ParsedScript(std::move(arena), root);
  fresh.valid = root != nullptr;

  if (map_.size() >= max_entries_ || cost > max_bytes_ - bytes_) {
    bypasses_.fetch_add(1, std::memory_order_relaxed);
    cache_bypass_counter().add();
    return fresh;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  cache_miss_counter().add();
  bytes_ += cost;
  return map_.emplace(std::string(text), std::move(fresh)).first->second;
}

ParseCacheStats ParseCache::stats() const {
  ParseCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.bypasses = bypasses_.load(std::memory_order_relaxed);
  return s;
}

void ParseCache::add_counts(const ParseCacheStats& counts) {
  hits_.fetch_add(counts.hits, std::memory_order_relaxed);
  misses_.fetch_add(counts.misses, std::memory_order_relaxed);
  bypasses_.fetch_add(counts.bypasses, std::memory_order_relaxed);
}

void ParseCache::clear() {
  map_.clear();
  bytes_ = 0;
}

}  // namespace ps
