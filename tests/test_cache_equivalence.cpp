// Cache-equivalence suite: deobfuscating the checked-in regression corpus
// with the parse cache and piece memo enabled must yield byte-identical
// outputs and identical DeobfuscationReport stats, failure and rung as with
// both disabled — the caching layers are pure performance optimizations, so
// the semantics-preservation and idempotence invariants (DESIGN.md
// invariants 2/4) are unaffected by them.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/deobfuscator.h"
#include "corpus/corpus.h"
#include "psast/parse_cache.h"
#include "psast/parser.h"

namespace ideobf {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

fs::path data_dir() { return fs::path(IDEOBF_SOURCE_DIR) / "data" / "regression"; }

std::vector<int> sample_ids() {
  std::vector<int> ids;
  for (int i = 0;; ++i) {
    if (!fs::exists(data_dir() / ("sample_" + std::to_string(i) + ".obf.ps1"))) {
      break;
    }
    ids.push_back(i);
  }
  return ids;
}

void expect_reports_equal(const DeobfuscationReport& a,
                          const DeobfuscationReport& b, int id) {
  EXPECT_EQ(a.passes, b.passes) << "sample " << id;
  EXPECT_EQ(a.token.ticks_removed, b.token.ticks_removed) << "sample " << id;
  EXPECT_EQ(a.token.aliases_expanded, b.token.aliases_expanded) << "sample " << id;
  EXPECT_EQ(a.token.case_normalized, b.token.case_normalized) << "sample " << id;
  EXPECT_EQ(a.recovery.pieces_recovered, b.recovery.pieces_recovered)
      << "sample " << id;
  EXPECT_EQ(a.recovery.variables_traced, b.recovery.variables_traced)
      << "sample " << id;
  EXPECT_EQ(a.recovery.variables_substituted, b.recovery.variables_substituted)
      << "sample " << id;
  EXPECT_EQ(a.multilayer.layers_unwrapped, b.multilayer.layers_unwrapped)
      << "sample " << id;
  EXPECT_EQ(a.rename.renamed, b.rename.renamed) << "sample " << id;
  EXPECT_EQ(a.rename.variables_renamed, b.rename.variables_renamed)
      << "sample " << id;
  EXPECT_EQ(a.rename.functions_renamed, b.rename.functions_renamed)
      << "sample " << id;
  EXPECT_EQ(a.trace.size(), b.trace.size()) << "sample " << id;
  EXPECT_STREQ(to_string(a.failure), to_string(b.failure)) << "sample " << id;
  EXPECT_EQ(a.failure_detail, b.failure_detail) << "sample " << id;
  EXPECT_EQ(a.degradation_rung, b.degradation_rung) << "sample " << id;
}

TEST(CacheEquivalence, CorpusOutputsAndReportsMatch) {
  Options cached_opts;
  cached_opts.telemetry.collect_trace = true;
  ASSERT_TRUE(cached_opts.parse_cache);  // caching is the default
  const InvokeDeobfuscator cached(cached_opts);

  Options uncached_opts;
  uncached_opts.telemetry.collect_trace = true;
  uncached_opts.parse_cache = false;
  uncached_opts.recovery.memo = false;  // the full pre-optimization behavior
  const InvokeDeobfuscator uncached(uncached_opts);
  ASSERT_EQ(uncached.parse_cache(), nullptr);

  const auto ids = sample_ids();
  ASSERT_GE(ids.size(), 20u);
  for (int id : ids) {
    const std::string obf =
        slurp(data_dir() / ("sample_" + std::to_string(id) + ".obf.ps1"));
    DeobfuscationReport ra, rb;
    const std::string with_cache = cached.deobfuscate(obf, ra);
    const std::string without_cache = uncached.deobfuscate(obf, rb);
    EXPECT_EQ(with_cache, without_cache) << "sample " << id;
    expect_reports_equal(ra, rb, id);
  }
  // The shared cache must actually have been exercised across the corpus.
  // (Misses outnumber hits on a cold cache because every distinct piece
  // text the interpreter executes flows through the cache exactly once.)
  const auto stats = cached.parse_cache()->stats();
  EXPECT_GT(stats.hits, 0u);
}

TEST(CacheEquivalence, MemoOnOffMatchOnGeneratedCorpus) {
  // The same engine serves the whole corpus, so any state a run leaked into
  // the next would show up as a difference against the memo-off reference.
  const InvokeDeobfuscator memo_on;
  Options off_opts;
  off_opts.recovery.memo = false;
  const InvokeDeobfuscator memo_off(off_opts);
  CorpusGenerator gen(3);
  int failed = 0;
  int id = 0;
  for (const Sample& sample : gen.generate_batch(200)) {
    DeobfuscationReport ra, rb;
    const std::string with_memo = memo_on.deobfuscate(sample.obfuscated, ra);
    const std::string without_memo =
        memo_off.deobfuscate(sample.obfuscated, rb);
    EXPECT_EQ(with_memo, without_memo) << "sample " << id;
    expect_reports_equal(ra, rb, id);
    if (ra.failure != FailureKind::None) ++failed;
    ++id;
  }
  EXPECT_GT(failed, 0);  // a memo hit on a failed piece has no failure kind
}

TEST(CacheEquivalence, WarmCacheIsIdempotent) {
  // Invariant 4: a second (fully warm-cache) run equals the first.
  const InvokeDeobfuscator deobf;
  const auto ids = sample_ids();
  ASSERT_FALSE(ids.empty());
  for (int id : ids) {
    if (id % 5 != 0) continue;  // a spread of samples keeps runtime modest
    const std::string obf =
        slurp(data_dir() / ("sample_" + std::to_string(id) + ".obf.ps1"));
    const std::string once = deobf.deobfuscate(obf);
    const std::string twice = deobf.deobfuscate(once);
    EXPECT_EQ(once, twice) << "sample " << id;
  }
}

TEST(CacheEquivalence, CacheCutsParsesAtLeastInHalf) {
  // The headline property: the parse-once pipeline does at most half the
  // parses of the re-parse-everywhere seed behavior on real inputs.
  const auto ids = sample_ids();
  ASSERT_FALSE(ids.empty());
  std::vector<std::string> scripts;
  for (int id : ids) {
    if (id % 4 != 0) continue;
    scripts.push_back(
        slurp(data_dir() / ("sample_" + std::to_string(id) + ".obf.ps1")));
  }

  Options uncached_opts;
  uncached_opts.parse_cache = false;
  uncached_opts.recovery.memo = false;  // seed behavior: no cache, no memo
  const InvokeDeobfuscator uncached(uncached_opts);
  const auto before_uncached = ps::parse_call_count();
  for (const auto& s : scripts) (void)uncached.deobfuscate(s);
  const auto parses_uncached = ps::parse_call_count() - before_uncached;

  const InvokeDeobfuscator cached;
  const auto before_cached = ps::parse_call_count();
  for (const auto& s : scripts) (void)cached.deobfuscate(s);
  const auto parses_cached = ps::parse_call_count() - before_cached;

  EXPECT_LE(parses_cached * 2, parses_uncached)
      << "cached=" << parses_cached << " uncached=" << parses_uncached;
}

}  // namespace
}  // namespace ideobf
