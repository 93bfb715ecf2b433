#ifndef TRACER_TENSOR_ARENA_H_
#define TRACER_TENSOR_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace tracer {

/// Bump-allocator arena for tensor buffers — the tape-aware memory plan
/// behind the steady-state zero-malloc training contract (DESIGN.md
/// "Compute kernels").
///
/// Lifecycle: the trainer installs an arena (ScopedArena) around each
/// forward+backward evaluation. The warm-up iteration finds the arena
/// empty, so every allocation chains 256 KiB blocks while the arena records
/// the peak live footprint; the first Reset() consolidates those blocks
/// into one block sized to that peak. Blocks are anonymous mmap regions,
/// unmapped on consolidation and destruction, so the warm-up chain's pages
/// leave the process instead of lingering in the malloc heap. Because the
/// tape re-records the same op sequence with the same shapes every
/// iteration, later iterations bump inside the single planned block and
/// never call malloc. Reset() also
/// CHECK-fails unless every buffer served since the previous Reset has
/// been destroyed — an arena-backed tensor escaping its scope is a
/// use-after-reset bug, caught on the very next step.
///
/// An arena is owned and used by one thread; buffers it serves must be
/// freed on that thread (tape construction and Backward already run on the
/// evaluating thread).
class TensorArena {
 public:
  TensorArena() = default;
  ~TensorArena();
  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;

  /// 16-byte-aligned bump allocation. Never fails: when the planned block
  /// is exhausted a new block is mapped and chained (visible as an
  /// `arena_blocks` tick in ThreadAllocCounters, so steady-state growth is
  /// observable, not silent).
  void* Allocate(size_t bytes);

  /// Allocator callback when an arena-backed buffer dies. Memory is
  /// reclaimed wholesale at Reset(); this only maintains the live count.
  void NoteFree() { --live_; }

  /// Rewinds for the next iteration (see class comment for the
  /// consolidation and escape-check semantics).
  void Reset();

  /// Buffers served since the last Reset that are still alive.
  int64_t live() const { return live_; }
  /// High-water bytes across all iterations (header + padding included).
  size_t peak_bytes() const { return peak_bytes_; }
  /// 1 after the first Reset unless the plan has been outgrown.
  size_t block_count() const { return blocks_.size(); }
  /// Bytes mapped across all blocks: the planned block's size once the
  /// plan holds.
  size_t capacity_bytes() const;

 private:
  struct Block {
    char* data;
    size_t capacity;
    size_t used;
  };

  Block* Grow(size_t min_bytes);
  void ReleaseBlocks();

  std::vector<Block> blocks_;
  size_t active_ = 0;      // block currently being bumped
  size_t used_bytes_ = 0;  // bytes served this iteration
  size_t peak_bytes_ = 0;
  int64_t live_ = 0;
};

/// RAII install of `arena` as the calling thread's current arena: every
/// tensor buffer allocated on this thread inside the scope comes from the
/// arena and must be destroyed before the matching Reset(). Passing
/// nullptr suspends an enclosing arena for the scope (escape hatch for
/// values that must outlive it).
class ScopedArena {
 public:
  explicit ScopedArena(TensorArena* arena);
  ~ScopedArena();
  ScopedArena(const ScopedArena&) = delete;
  ScopedArena& operator=(const ScopedArena&) = delete;

 private:
  TensorArena* prev_;
};

/// The calling thread's current arena, or nullptr.
TensorArena* CurrentArena();

/// Monotonic per-thread tensor-buffer allocation counters. Deltas around a
/// region measure its allocation behaviour: a steady-state training step
/// must show zero `heap_allocs` and zero `arena_blocks` growth (the
/// `tracer_train_allocs_per_step` gauge and the profiler's per-op alloc
/// columns are built on these).
struct AllocCounters {
  int64_t heap_allocs = 0;   ///< buffers served by operator new
  int64_t arena_allocs = 0;  ///< buffers served by the thread's arena
  int64_t arena_blocks = 0;  ///< arena block maps (warm-up / overflow)
};
AllocCounters ThreadAllocCounters();

namespace detail {
/// Allocates payload + ownership header from the thread's current arena
/// (heap when none is installed); DeallocateTensorBuffer reads the header
/// to route the release. Used by ArenaAllocator only.
void* AllocateTensorBuffer(size_t payload_bytes);
void DeallocateTensorBuffer(void* payload);
}  // namespace detail

/// Stateless std::vector allocator routing through the thread-current
/// arena. All instances compare equal, so container moves and swaps steal
/// buffers regardless of where they were allocated; the per-buffer header
/// keeps deallocation correct either way.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using is_always_equal = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  ArenaAllocator() = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(size_t n) {
    return static_cast<T*>(detail::AllocateTensorBuffer(n * sizeof(T)));
  }
  void deallocate(T* p, size_t) { detail::DeallocateTensorBuffer(p); }

  friend bool operator==(const ArenaAllocator&, const ArenaAllocator&) {
    return true;
  }
  friend bool operator!=(const ArenaAllocator&, const ArenaAllocator&) {
    return false;
  }
};

/// Storage type of Tensor::data_.
using FloatBuffer = std::vector<float, ArenaAllocator<float>>;

}  // namespace tracer

#endif  // TRACER_TENSOR_ARENA_H_
