#include "psvalue/arena.h"

#include <cstdint>

namespace ps {
namespace {

/// Chunks from dead arenas, parked per-thread for the next parse on this
/// thread. Bounded so pathological inputs cannot pin memory forever. With
/// the persistent worker pool the same threads parse over and over, so the
/// steady state is zero allocator traffic for chunk storage.
constexpr std::size_t kMaxParkedChunks = 8;

struct ThreadFreelist {
  std::vector<std::unique_ptr<std::byte[]>> chunks;
  std::vector<std::size_t> capacities;
};

ThreadFreelist& freelist() {
  thread_local ThreadFreelist list;
  return list;
}

}  // namespace

Arena::~Arena() {
  // Reverse order: children are constructed before parents, and parent
  // nodes hold vectors of child handles.
  for (auto it = finalizers_.rbegin(); it != finalizers_.rend(); ++it) {
    it->destroy(it->object);
  }
  ThreadFreelist& list = freelist();
  for (auto& chunk : chunks_) {
    if (list.chunks.size() >= kMaxParkedChunks) break;
    list.chunks.push_back(std::move(chunk.mem));
    list.capacities.push_back(chunk.capacity);
  }
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  auto addr = reinterpret_cast<std::uintptr_t>(cursor_);
  std::uintptr_t aligned = (addr + (align - 1)) & ~std::uintptr_t(align - 1);
  std::size_t padding = aligned - addr;
  if (cursor_ == nullptr || padding + bytes > std::size_t(limit_ - cursor_)) {
    grow(bytes + align);
    addr = reinterpret_cast<std::uintptr_t>(cursor_);
    aligned = (addr + (align - 1)) & ~std::uintptr_t(align - 1);
    padding = aligned - addr;
  }
  cursor_ = reinterpret_cast<std::byte*>(aligned) + bytes;
  bytes_allocated_ += bytes;
  return reinterpret_cast<void*>(aligned);
}

void Arena::grow(std::size_t min_bytes) {
  std::size_t want = first_chunk_bytes_;
  if (!chunks_.empty()) {
    want = chunks_.back().capacity * 2;
    if (want > kMaxChunkBytes) want = kMaxChunkBytes;
  }
  if (want < min_bytes) want = min_bytes;

  Chunk chunk;
  ThreadFreelist& list = freelist();
  for (std::size_t i = 0; i < list.chunks.size(); ++i) {
    if (list.capacities[i] >= want) {
      chunk.mem = std::move(list.chunks[i]);
      chunk.capacity = list.capacities[i];
      list.chunks.erase(list.chunks.begin() + static_cast<std::ptrdiff_t>(i));
      list.capacities.erase(list.capacities.begin() +
                            static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  if (chunk.mem == nullptr) {
    // Storage is bump-allocated before it is read, so skip zero-filling.
    chunk.mem = std::make_unique_for_overwrite<std::byte[]>(want);
    chunk.capacity = want;
  }
  cursor_ = chunk.mem.get();
  limit_ = cursor_ + chunk.capacity;
  chunks_.push_back(std::move(chunk));
}

std::size_t Arena::reserved_bytes() const {
  std::size_t n = 0;
  for (const Chunk& chunk : chunks_) n += chunk.capacity;
  return n;
}

std::size_t Arena::chunk_bytes_for(std::size_t source_bytes) {
  const std::size_t need = 16 * source_bytes + 256;
  std::size_t bytes = kMinChunkBytes;
  while (bytes < need && bytes < kDefaultChunkBytes) bytes *= 2;
  return bytes;
}

std::size_t Arena::thread_freelist_size() { return freelist().chunks.size(); }

void Arena::trim_thread_freelist() {
  freelist().chunks.clear();
  freelist().capacities.clear();
}

}  // namespace ps
