// Arena and pool allocation for the packet hot path.
//
// The rack-level packet simulation used to churn the global allocator from
// two places: the per-event std::function (fixed by sim::InlineAction) and
// the per-packet queue nodes inside SharedBufferSwitch (std::deque blocks
// allocated and freed as queues grow and shrink). Arena/Pool/PoolQueue
// remove the second: a switch owns one Arena, carves fixed-size nodes out
// of it through a Pool, and every port queue recycles nodes through the
// pool's free list — steady state runs with zero mallocs on the packet
// path.
//
// Telemetry (Kind::kSim — growth is driven purely by simulation state, so
// the counters are bit-identical across thread counts):
//   arena.bytes  bytes obtained from the system allocator (chunk mallocs)
//   arena.reuse  allocations served from recycled memory (pool free-list
//                hits, retired-chunk reuse), published on destruction
//
// Lifetime rules (DESIGN.md §9): an Arena frees its chunks only on
// destruction; reset() retires them for reuse. Objects created from a Pool
// must be destroyed through the same Pool (or leak their destructor, never
// their memory); a Pool and everything allocated from it must not outlive
// the Arena it draws from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "fbdcsim/telemetry/telemetry.h"

namespace fbdcsim::core {

namespace detail {
/// Adds a destroyed Pool's or Arena's reuse count to "arena.reuse".
inline void publish_arena_reuse(std::int64_t reused) {
  if (reused == 0) return;
  FBDCSIM_T_COUNTER(reuse, "arena.reuse", Sim);
  FBDCSIM_T_ADD(reuse, reused);
}
}  // namespace detail

/// Chunked bump allocator. allocate() is a pointer bump; a fresh chunk is
/// malloc'd (or reused from the retired list) only when the current one is
/// exhausted. Never frees individual allocations.
class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_{chunk_bytes < sizeof(Chunk) + 64 ? sizeof(Chunk) + 64 : chunk_bytes} {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    release_list(live_);
    release_list(retired_);
    detail::publish_arena_reuse(chunks_reused_);
  }

  /// Returns `bytes` of storage aligned to `align` (a power of two no
  /// larger than alignof(std::max_align_t)).
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t)) {
    if (live_ != nullptr) {
      const std::size_t aligned = (live_->used + (align - 1)) & ~(align - 1);
      if (aligned + bytes <= live_->size) {
        live_->used = aligned + bytes;
        return live_->data() + aligned;
      }
    }
    return allocate_slow(bytes, align);
  }

  /// Retires every chunk for reuse. All outstanding allocations become
  /// invalid; no memory is returned to the system.
  void reset() noexcept {
    while (live_ != nullptr) {
      Chunk* next = live_->next;
      live_->used = 0;
      live_->next = retired_;
      retired_ = live_;
      live_ = next;
    }
  }

  /// Total bytes obtained from the system allocator over the arena's life.
  [[nodiscard]] std::int64_t bytes_from_system() const noexcept { return bytes_from_system_; }
  /// Chunks served from the retired list instead of malloc.
  [[nodiscard]] std::int64_t chunks_reused() const noexcept { return chunks_reused_; }

 private:
  struct Chunk {
    Chunk* next;
    std::size_t used;  // offset of the first free byte within data()
    std::size_t size;  // capacity of data()

    /// Header footprint rounded up so data() stays max-aligned (malloc
    /// returns max-aligned memory; the payload starts header_bytes() in).
    [[nodiscard]] static constexpr std::size_t header_bytes() noexcept {
      constexpr std::size_t raw = sizeof(Chunk*) + 2 * sizeof(std::size_t);
      return (raw + alignof(std::max_align_t) - 1) & ~(alignof(std::max_align_t) - 1);
    }
    [[nodiscard]] std::byte* data() noexcept {
      return reinterpret_cast<std::byte*>(this) + header_bytes();
    }
  };

  void* allocate_slow(std::size_t bytes, std::size_t align) {
    // Oversized requests get a dedicated chunk so chunk_bytes_ stays a
    // tuning knob, not a limit.
    const std::size_t header = Chunk::header_bytes();
    std::size_t want = bytes + align;
    if (want < chunk_bytes_ - header) want = chunk_bytes_ - header;

    // Reuse a retired chunk when one is big enough (first fit).
    Chunk** link = &retired_;
    while (*link != nullptr) {
      if ((*link)->size >= want) {
        Chunk* chunk = *link;
        *link = chunk->next;
        chunk->used = 0;
        chunk->next = live_;
        live_ = chunk;
        ++chunks_reused_;
        return allocate(bytes, align);
      }
      link = &(*link)->next;
    }

    auto* raw = static_cast<std::byte*>(std::malloc(header + want));
    if (raw == nullptr) throw std::bad_alloc{};
    auto* chunk = reinterpret_cast<Chunk*>(raw);
    chunk->next = live_;
    chunk->used = 0;
    chunk->size = want;
    live_ = chunk;
    bytes_from_system_ += static_cast<std::int64_t>(header + want);
    FBDCSIM_T_COUNTER(sys_bytes, "arena.bytes", Sim);
    FBDCSIM_T_ADD(sys_bytes, static_cast<std::int64_t>(header + want));
    return allocate(bytes, align);
  }

  static void release_list(Chunk* head) noexcept {
    while (head != nullptr) {
      Chunk* next = head->next;
      std::free(head);
      head = next;
    }
  }

  Chunk* live_{nullptr};     // chunks with outstanding allocations (head is active)
  Chunk* retired_{nullptr};  // reset() chunks awaiting reuse
  std::size_t chunk_bytes_;
  std::int64_t bytes_from_system_{0};
  std::int64_t chunks_reused_{0};
};

/// Fixed-type object pool over an Arena: create/destroy recycle slots
/// through a free list, so steady-state allocation never leaves the pool.
template <typename T>
class Pool {
 public:
  explicit Pool(Arena& arena) : arena_{&arena} {}

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() { detail::publish_arena_reuse(reused_); }

  template <typename... Args>
  [[nodiscard]] T* create(Args&&... args) {
    void* slot;
    if (free_ != nullptr) {
      slot = free_;
      free_ = free_->next;
      ++reused_;
    } else {
      slot = arena_->allocate(sizeof(Slot), alignof(Slot));
    }
    ++live_;
    return ::new (slot) T(std::forward<Args>(args)...);
  }

  void destroy(T* p) noexcept {
    p->~T();
    auto* slot = reinterpret_cast<Slot*>(p);
    slot->next = free_;
    free_ = slot;
    --live_;
  }

  /// Allocations served from the free list instead of the arena.
  [[nodiscard]] std::int64_t reused() const noexcept { return reused_; }
  [[nodiscard]] std::int64_t live() const noexcept { return live_; }

 private:
  union Slot {
    Slot* next;
    alignas(T) std::byte storage[sizeof(T)];
  };

  Arena* arena_;
  Slot* free_{nullptr};
  std::int64_t reused_{0};
  std::int64_t live_{0};
};

/// A FIFO of T backed by pool-recycled singly-linked nodes: the drop-in
/// replacement for the per-port std::deque in SharedBufferSwitch. push/pop
/// at steady state touch only the pool free list.
template <typename T>
class PoolQueue {
 public:
  struct Node {
    T value;
    Node* next{nullptr};
  };
  using NodePool = Pool<Node>;

  PoolQueue() = default;

  PoolQueue(const PoolQueue&) = delete;
  PoolQueue& operator=(const PoolQueue&) = delete;

  PoolQueue(PoolQueue&& other) noexcept
      : pool_{other.pool_}, head_{other.head_}, tail_{other.tail_}, size_{other.size_} {
    other.head_ = other.tail_ = nullptr;
    other.size_ = 0;
  }

  ~PoolQueue() { clear(); }

  /// Binds the queue to the pool its nodes come from. Must be called (once)
  /// before the first push_back.
  void attach(NodePool& pool) noexcept { pool_ = &pool; }

  void push_back(T value) {
    Node* node = pool_->create(std::move(value));
    if (tail_ == nullptr) {
      head_ = tail_ = node;
    } else {
      tail_->next = node;
      tail_ = node;
    }
    ++size_;
  }

  [[nodiscard]] T& front() { return head_->value; }
  [[nodiscard]] const T& front() const { return head_->value; }

  void pop_front() {
    Node* node = head_;
    head_ = node->next;
    if (head_ == nullptr) tail_ = nullptr;
    --size_;
    pool_->destroy(node);
  }

  void clear() noexcept {
    while (head_ != nullptr) {
      Node* next = head_->next;
      pool_->destroy(head_);
      head_ = next;
    }
    tail_ = nullptr;
    size_ = 0;
  }

  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  NodePool* pool_{nullptr};
  Node* head_{nullptr};
  Node* tail_{nullptr};
  std::size_t size_{0};
};

}  // namespace fbdcsim::core
