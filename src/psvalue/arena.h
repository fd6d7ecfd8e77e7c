#pragma once

/// \file arena.h
/// Bump-pointer arena for AST nodes (and any other per-parse objects).
///
/// One Arena owns every node of one parse. Allocation is a pointer bump
/// inside a chunk; destruction tears the whole parse down at once by
/// running the registered finalizers in reverse order and returning the
/// chunks to a thread-local freelist, so a hot parse loop touches the
/// global allocator only while growing. Nodes hold raw non-owning child
/// pointers (see ArenaPtr), which removes the per-node unique_ptr graph
/// teardown and lets the ParseCache share a whole tree with a single
/// refcount bump on the Arena.
///
/// Thread model: an Arena is single-threaded while being filled (one
/// parser). A finished tree behind `shared_ptr<Arena>` may be *read* from
/// any number of threads; destruction may happen on any thread. The chunk
/// freelist is thread-local, so concurrent parses never contend on it.
/// A finished arena has no mutating surface, so it needs no lock.

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace ps {

class Arena {
 public:
  /// First chunk size; subsequent chunks double up to kMaxChunkBytes.
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;
  static constexpr std::size_t kMaxChunkBytes = 1024 * 1024;

  Arena() = default;
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw aligned storage inside the current chunk (grows when needed).
  void* allocate(std::size_t bytes, std::size_t align);

  /// Constructs a T inside the arena. Non-trivially-destructible types are
  /// registered for destruction (reverse construction order) when the arena
  /// dies; trivially-destructible types cost only the pointer bump.
  template <class T, class... Args>
  T* make(Args&&... args) {
    void* mem = allocate(sizeof(T), alignof(T));
    T* obj = ::new (mem) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      finalizers_.push_back(Finalizer{&destroy_thunk<T>, obj});
    }
    return obj;
  }

  /// Total bytes handed out (not counting chunk slack).
  [[nodiscard]] std::size_t bytes_allocated() const { return bytes_allocated_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  [[nodiscard]] std::size_t finalizer_count() const {
    return finalizers_.size();
  }

  /// Diagnostics/tests: chunks parked on the calling thread's freelist.
  static std::size_t thread_freelist_size();
  /// Releases the calling thread's parked chunks back to the allocator.
  static void trim_thread_freelist();

 private:
  template <class T>
  static void destroy_thunk(void* p) {
    static_cast<T*>(p)->~T();
  }

  struct Chunk {
    std::unique_ptr<std::byte[]> mem;
    std::size_t capacity = 0;
  };
  struct Finalizer {
    void (*destroy)(void*);
    void* object;
  };

  void grow(std::size_t min_bytes);

  std::vector<Chunk> chunks_;
  std::byte* cursor_ = nullptr;
  std::byte* limit_ = nullptr;
  std::vector<Finalizer> finalizers_;
  std::size_t bytes_allocated_ = 0;
};

/// Non-owning pointer to an arena-allocated node with the pointer surface of
/// unique_ptr (get/->/*, bool, reset, derived-to-base conversion) so code
/// written against `std::unique_ptr<Ast>` members keeps compiling. Copying
/// is allowed — lifetime is the Arena's, not the handle's — which also makes
/// `std::move` at old call sites a plain copy.
template <class T>
class ArenaPtr {
 public:
  ArenaPtr() = default;
  ArenaPtr(std::nullptr_t) {}            // NOLINT(google-explicit-constructor)
  ArenaPtr(T* p) : ptr_(p) {}            // NOLINT(google-explicit-constructor)

  template <class U, class = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  ArenaPtr(ArenaPtr<U> other) : ptr_(other.get()) {}  // NOLINT

  [[nodiscard]] T* get() const { return ptr_; }
  T& operator*() const { return *ptr_; }
  T* operator->() const { return ptr_; }
  explicit operator bool() const { return ptr_ != nullptr; }
  void reset(T* p = nullptr) { ptr_ = p; }

  friend bool operator==(const ArenaPtr& a, const ArenaPtr& b) {
    return a.ptr_ == b.ptr_;
  }
  friend bool operator==(const ArenaPtr& a, std::nullptr_t) {
    return a.ptr_ == nullptr;
  }

 private:
  T* ptr_ = nullptr;
};

}  // namespace ps
