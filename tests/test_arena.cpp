// Memory-model tests for the arena/zero-copy layer: bump-pointer Arena
// lifetime and finalizer discipline, first chunks sized to the parsed text,
// ArenaPtr semantics, token string_views surviving TokenStream
// moves/copies, and arena-backed parses outliving their ParseCache entry.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pslang/lexer.h"
#include "psast/ast.h"
#include "psast/parse_cache.h"
#include "psast/parser.h"
#include "psvalue/arena.h"

namespace {

using namespace ps;

// --- Arena ----------------------------------------------------------------

/// Counts constructions and destructions so tests can prove each arena
/// object is destroyed exactly once.
struct Counted {
  static int alive;
  static int destroyed;
  int payload;
  explicit Counted(int p) : payload(p) { ++alive; }
  ~Counted() {
    --alive;
    ++destroyed;
  }
};
int Counted::alive = 0;
int Counted::destroyed = 0;

TEST(Arena, ObjectsAreDestroyedExactlyOnce) {
  Counted::alive = 0;
  Counted::destroyed = 0;
  {
    Arena arena;
    for (int i = 0; i < 1000; ++i) arena.make<Counted>(i);
    EXPECT_EQ(Counted::alive, 1000);
    EXPECT_EQ(arena.finalizer_count(), 1000u);
  }
  EXPECT_EQ(Counted::alive, 0);
  EXPECT_EQ(Counted::destroyed, 1000);
}

TEST(Arena, TriviallyDestructibleTypesRegisterNoFinalizer) {
  Arena arena;
  arena.make<int>(7);
  arena.make<double>(1.5);
  EXPECT_EQ(arena.finalizer_count(), 0u);
  EXPECT_GE(arena.bytes_allocated(), sizeof(int) + sizeof(double));
}

TEST(Arena, FinalizersRunInReverseConstructionOrder) {
  std::vector<int> order;
  struct Recorder {
    std::vector<int>* order;
    int id;
    Recorder(std::vector<int>* o, int i) : order(o), id(i) {}
    ~Recorder() { order->push_back(id); }
  };
  {
    Arena arena;
    for (int i = 0; i < 4; ++i) arena.make<Recorder>(&order, i);
  }
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Arena, AllocationsAreAligned) {
  Arena arena;
  for (int i = 0; i < 64; ++i) {
    arena.allocate(1, 1);  // deliberately misalign the cursor
    void* p = arena.allocate(sizeof(double), alignof(double));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignof(double), 0u);
  }
}

TEST(Arena, LargeAllocationsGrowChunks) {
  Arena arena;
  // Larger than a default chunk, to force a dedicated grow.
  void* big = arena.allocate(Arena::kDefaultChunkBytes * 2, 16);
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.chunk_count(), 1u);
  // And the arena keeps serving small allocations afterwards.
  int* x = arena.make<int>(42);
  EXPECT_EQ(*x, 42);
}

TEST(Arena, ChunksParkOnThreadFreelistAndReuse) {
  Arena::trim_thread_freelist();
  EXPECT_EQ(Arena::thread_freelist_size(), 0u);
  {
    Arena arena;
    arena.allocate(1024, 8);
  }
  const std::size_t parked = Arena::thread_freelist_size();
  EXPECT_GE(parked, 1u);
  {
    // The next arena on this thread reuses the parked chunk instead of
    // growing through the global allocator.
    Arena arena;
    arena.allocate(1024, 8);
    EXPECT_LT(Arena::thread_freelist_size(), parked);
  }
  Arena::trim_thread_freelist();
  EXPECT_EQ(Arena::thread_freelist_size(), 0u);
}

// --- Arenas sized to the text ---------------------------------------------

TEST(Arena, FirstChunkSizeFollowsTheText) {
  EXPECT_EQ(Arena::chunk_bytes_for(0), Arena::kMinChunkBytes);
  EXPECT_EQ(Arena::chunk_bytes_for(20), Arena::kMinChunkBytes);   // 576 B
  EXPECT_EQ(Arena::chunk_bytes_for(100), 2048u);                  // 1856 B
  EXPECT_EQ(Arena::chunk_bytes_for(1000), 16384u);                // 16256 B
  EXPECT_EQ(Arena::chunk_bytes_for(1u << 20), Arena::kDefaultChunkBytes);
}

TEST(Arena, SmallParseReservesOneSmallChunk) {
  // No parked chunk may stand in for the sized one.
  Arena::trim_thread_freelist();
  const std::string text = "Write-Host 'hello!'";  // ~20 bytes
  const ParsedScript parsed = parse(text);
  ASSERT_TRUE(parsed);
  const Arena& arena = *parsed.arena();
  EXPECT_EQ(arena.chunk_count(), 1u);
  EXPECT_LE(arena.reserved_bytes(), 4096u);
  EXPECT_GE(arena.reserved_bytes(), arena.bytes_allocated());
}

TEST(Arena, LargeScriptChunksDoubleUpToTheCap) {
  Arena::trim_thread_freelist();
  std::string text;
  for (int i = 0; text.size() < 100 * 1024; ++i) {
    text += "$v" + std::to_string(i) + " = ('a' + 'b').ToUpper() + " +
            std::to_string(i) + "\n";
  }
  const ParsedScript parsed = parse(text);
  ASSERT_TRUE(parsed);
  const Arena& arena = *parsed.arena();
  ASSERT_GE(arena.chunk_count(), 2u);
  EXPECT_EQ(arena.chunk_bytes(0), Arena::kDefaultChunkBytes);
  for (std::size_t i = 1; i < arena.chunk_count(); ++i) {
    EXPECT_EQ(arena.chunk_bytes(i),
              std::min(arena.chunk_bytes(i - 1) * 2, Arena::kMaxChunkBytes))
        << "chunk " << i;
  }
  EXPECT_EQ(arena.chunk_bytes(arena.chunk_count() - 1), Arena::kMaxChunkBytes);
}

TEST(Arena, SizedChunksReturnToAndComeBackFromTheFreelist) {
  Arena::trim_thread_freelist();
  const std::string text = "$a = 'x' + 'y'";
  std::size_t first_chunk = 0;
  {
    const ParsedScript parsed = parse(text);
    first_chunk = parsed.arena()->chunk_bytes(0);
    EXPECT_EQ(Arena::thread_freelist_size(), 0u);
  }
  EXPECT_EQ(Arena::thread_freelist_size(), 1u);  // parked on teardown
  {
    const ParsedScript again = parse(text);
    EXPECT_EQ(Arena::thread_freelist_size(), 0u);  // taken back
    EXPECT_EQ(again.arena()->chunk_bytes(0), first_chunk);
  }
  EXPECT_EQ(Arena::thread_freelist_size(), 1u);
  Arena::trim_thread_freelist();
}

TEST(ArenaPtr, BehavesLikeANonOwningUniquePtr) {
  Arena arena;
  ArenaPtr<std::string> p = arena.make<std::string>("hello");
  ASSERT_TRUE(p);
  EXPECT_EQ(*p, "hello");
  EXPECT_EQ(p->size(), 5u);
  ArenaPtr<std::string> copy = p;  // copying is allowed: lifetime is arena's
  EXPECT_EQ(copy, p);
  p.reset();
  EXPECT_FALSE(p);
  EXPECT_TRUE(p == nullptr);
  EXPECT_EQ(*copy, "hello");  // the object is untouched by reset()
}

// --- Zero-copy tokens ------------------------------------------------------

TEST(TokenStream, ViewsSurviveStreamMoves) {
  TokenStream stream = tokenize("Write-Host 'He`llo' $world");
  ASSERT_FALSE(stream.empty());
  // Take raw views before moving the stream around.
  std::vector<std::string> before;
  for (const Token& t : stream) before.emplace_back(t.content);

  TokenStream moved = std::move(stream);
  TokenStream moved_again;
  moved_again = std::move(moved);

  ASSERT_EQ(moved_again.size(), before.size());
  for (std::size_t i = 0; i < moved_again.size(); ++i) {
    EXPECT_EQ(std::string(moved_again[i].content), before[i]) << i;
    // The views still point into the stream's pinned buffers.
    EXPECT_NE(moved_again.source(), nullptr);
  }
}

TEST(TokenStream, TokensFromACopySurviveTheOriginal) {
  std::vector<Token> kept;
  TokenStream copy;
  {
    TokenStream original = tokenize("$a = \"b`tc\" + 'd'");
    copy = original;  // shares the pinned source + interner
    for (const Token& t : original) kept.push_back(t);
  }
  // The original is gone; the copy pins the buffers, so the raw Token
  // copies' views are intact.
  ASSERT_FALSE(kept.empty());
  bool saw_unescaped = false;
  for (const Token& t : kept) {
    EXPECT_LE(t.content.size(), copy.source()->size() + 16);
    if (t.type == TokenType::String && std::string(t.content) == "b\tc") {
      saw_unescaped = true;  // cooked via the interner, not the source slice
    }
  }
  EXPECT_TRUE(saw_unescaped);
}

TEST(TokenStream, CookedContentAliasesSourceWhenIdentical) {
  const TokenStream stream = tokenize("Write-Host 123");
  const std::string& src = *stream.source();
  const char* lo = src.data();
  const char* hi = src.data() + src.size();
  for (const Token& t : stream) {
    ASSERT_FALSE(t.text.empty());
    EXPECT_GE(t.text.data(), lo);
    EXPECT_LE(t.text.data() + t.text.size(), hi);
    if (!t.content.empty()) {
      // Nothing in this script needs cooking, so content views must alias
      // the pinned source buffer (zero-copy), not an interned duplicate.
      EXPECT_GE(t.content.data(), lo);
      EXPECT_LE(t.content.data() + t.content.size(), hi);
    }
  }
}

// --- Arena-backed parses ---------------------------------------------------

TEST(ParsedScript, SharesOneArenaAcrossCopies) {
  ParsedScript a = parse("function f { 1 + 2 }; f");
  ASSERT_TRUE(a);
  ParsedScript b = a;  // one refcount bump on the arena, no tree copy
  EXPECT_EQ(a.get(), b.get());
  a.reset();
  EXPECT_FALSE(a);
  ASSERT_TRUE(b);
  EXPECT_FALSE(b->named_blocks.empty());
}

TEST(ParsedScript, CachedAstOutlivesCacheEviction) {
  // Two entries total: later texts bypass the table, and clearing it drops
  // every stored parse.
  ParseCache cache(2);
  const std::string text = "$x = 1; Write-Host $x";
  ParseCache::Result held = cache.get(text);
  ASSERT_TRUE(held.valid);
  ASSERT_NE(held.ast, nullptr);
  ASSERT_NE(held.source, nullptr);

  for (int i = 0; i < 64; ++i) {
    (void)cache.get("Write-Host " + std::to_string(i));
  }
  cache.clear();  // even explicit clearing must not free the held parse

  // The held Result keeps the arena (tree + pinned source) alive.
  ASSERT_NE(held.ast, nullptr);
  EXPECT_EQ(*held.source, text);
  EXPECT_FALSE(held.ast->named_blocks.empty());
  EXPECT_LE(held.ast->end(), held.source->size());
}

TEST(ParsedScript, InvalidTextYieldsNullRootButValidHandle) {
  std::string error;
  ParsedScript p = try_parse("if (", &error);
  EXPECT_FALSE(p);
  EXPECT_TRUE(p == nullptr);
}

}  // namespace
