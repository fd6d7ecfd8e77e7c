// Tests for the parse-once pipeline's per-run parse table (ParseCache):
// hit/miss accounting, negative caching of invalid texts, the entry and
// byte bounds past which texts are parsed uncached, extent validity against
// caller-owned buffers, and the counts-only `shared_parse_cache` sink that
// batch threads add their runs' counts to.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/deobfuscator.h"
#include "psast/parse_cache.h"
#include "psast/parser.h"

namespace ideobf {
namespace {

TEST(ParseCache, HitReturnsSameAst) {
  ps::ParseCache cache;
  const std::string text = "Write-Host 'hello'";
  const auto first = cache.get(text);
  const auto second = cache.get(text);
  ASSERT_NE(first.ast, nullptr);
  EXPECT_TRUE(first.valid);
  EXPECT_EQ(first.ast.get(), second.ast.get());  // one shared parse
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(ParseCache, InvalidTextIsNegativeCached) {
  ps::ParseCache cache;
  const std::string bad = "if (broken {";
  EXPECT_FALSE(cache.get(bad).valid);
  EXPECT_EQ(cache.get(bad).ast, nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);  // the second lookup did not re-parse
  EXPECT_EQ(stats.hits, 1u);
}

TEST(ParseCache, MissAvoidsReparseAcrossUses) {
  ps::ParseCache cache;
  const std::string text = "$a = 1; Write-Host $a";
  const auto before = ps::parse_call_count();
  cache.get(text);
  cache.is_valid(text);
  cache.get(text);
  EXPECT_EQ(ps::parse_call_count() - before, 1u);
}

TEST(ParseCache, EntryBoundBypassesPastTheBound) {
  ps::ParseCache cache(/*max_entries=*/16);
  for (int i = 0; i < 200; ++i) {
    const auto r = cache.get("Write-Host " + std::to_string(i));
    EXPECT_TRUE(r.valid);  // a bypassed text is still parsed
  }
  EXPECT_EQ(cache.size(), 16u);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 16u);
  EXPECT_EQ(stats.bypasses, 184u);
  EXPECT_EQ(stats.evictions, 0u);  // nothing stored is ever dropped
  // The first texts stay stored; later ones keep bypassing.
  (void)cache.get("Write-Host 0");
  (void)cache.get("Write-Host 199");
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.bypasses, 185u);
}

TEST(ParseCache, ByteBoundCountsTextAndArena) {
  constexpr std::size_t kBound = 16 * 1024;
  ps::ParseCache cache(/*max_entries=*/512, /*max_bytes=*/kBound);
  for (int i = 0; i < 100; ++i) {
    cache.get("$v" + std::to_string(i) + " = 'a' + 'b'");
    EXPECT_LE(cache.retained_bytes(), kBound);
  }
  // Every stored parse pins at least one 1 KiB arena chunk.
  EXPECT_LE(cache.size(), kBound / 1024);
  EXPECT_GT(cache.size(), 0u);
  EXPECT_EQ(cache.stats().bypasses, 100u - cache.size());
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.retained_bytes(), 0u);
}

TEST(ParseCache, OversizedTextBypassesStorage) {
  ps::ParseCache cache(/*max_entries=*/512, /*max_text_bytes=*/32);
  const std::string big = "Write-Host '" + std::string(100, 'a') + "'";
  const auto r = cache.get(big);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().bypasses, 1u);
}

TEST(ParseCache, ExtentsIndexIntoCallerBuffer) {
  ps::ParseCache cache;
  const std::string mine = "Write-Host 'payload'";
  const auto r = cache.get(mine);
  ASSERT_NE(r.ast, nullptr);
  // Extents are offsets: equally valid against the caller's equal buffer.
  EXPECT_EQ(r.ast->text_in(mine), mine);
  EXPECT_EQ(*r.source, mine);
}

TEST(ParseCache, SharedAcrossBatchThreads) {
  // One counts sink under deobfuscate_batch with 8 threads over heavily
  // duplicated inputs: results must match the serial uncached run exactly.
  std::vector<std::string> scripts;
  for (int i = 0; i < 32; ++i) {
    scripts.push_back("iex 'Write-Host dup'");
    scripts.push_back("$x = 'h' + 'i'; Write-Host $x");
    scripts.push_back("broken ( input " + std::to_string(i % 4));
  }

  Options uncached;
  uncached.parse_cache = false;
  const auto expected =
      deobfuscate_batch(InvokeDeobfuscator(uncached), scripts, 1);

  Options shared;
  shared.shared_parse_cache = std::make_shared<ps::ParseCache>(64);
  const InvokeDeobfuscator deobf(shared);
  BatchReport report;
  const auto got = deobfuscate_batch(deobf, scripts, report, 8);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "sample " << i;
    EXPECT_TRUE(report.items[i].ok);
  }
  // Every run's own table was exercised — within a run the syntax check's
  // parse serves the next phase — and its counts reached the sink, which
  // itself stores nothing.
  const ps::ParseCacheStats counts = shared.shared_parse_cache->stats();
  EXPECT_GT(counts.hits, 0u);
  EXPECT_GT(counts.misses, 0u);
  EXPECT_EQ(counts.evictions, 0u);
  EXPECT_EQ(shared.shared_parse_cache->size(), 0u);

  // Tables are per run, so the counts cannot depend on scheduling: one
  // thread adds up to exactly the same.
  Options serial;
  serial.shared_parse_cache = std::make_shared<ps::ParseCache>();
  (void)deobfuscate_batch(InvokeDeobfuscator(serial), scripts, 1);
  const ps::ParseCacheStats one = serial.shared_parse_cache->stats();
  EXPECT_EQ(one.hits, counts.hits);
  EXPECT_EQ(one.misses, counts.misses);
  EXPECT_EQ(one.bypasses, counts.bypasses);
}

}  // namespace
}  // namespace ideobf
