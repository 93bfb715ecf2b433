#include "tensor/arena.h"

#include <sys/mman.h>

#include <algorithm>

#include "common/macros.h"

namespace tracer {
namespace {

// A 16-byte header precedes every tensor-buffer payload, tagging its owner
// so deallocation routes without any registry lookup — and so a buffer
// allocated inside an arena scope can safely be freed after the scope has
// ended (the common case: tape tensors created under ScopedArena are
// destroyed when the graph dies, wherever that happens on this thread).
constexpr uint64_t kArenaMagic = 0x41524e4154524352ull;  // "ARNATRCR"
constexpr uint64_t kHeapMagic = 0x4845415054524352ull;   // "HEAPTRCR"

struct alignas(16) BufferHeader {
  TensorArena* arena;  // nullptr for heap buffers
  uint64_t magic;
};
static_assert(sizeof(BufferHeader) == 16,
              "header must preserve 16-byte payload alignment");

thread_local TensorArena* g_current_arena = nullptr;
thread_local AllocCounters g_counters;

// Warm-up growth granularity. Big enough that chaining stays rare even
// before the plan exists; the post-plan steady state is one block anyway.
constexpr size_t kMinBlockBytes = size_t{256} * 1024;

size_t RoundUp16(size_t n) { return (n + 15) & ~size_t{15}; }

}  // namespace

TensorArena::~TensorArena() {
  TRACER_CHECK_EQ(live_, 0)
      << "tensor arena destroyed with live buffers (a tensor escaped its "
         "ScopedArena scope)";
  ReleaseBlocks();
}

// Blocks are mapped straight from the kernel rather than taken from
// operator new: glibc serves 256 KiB requests from its heap once its
// dynamic mmap threshold has risen, and keeps those pages resident after
// free, so the warm-up chain would stay in RSS under the planned block.
// munmap hands every page back the moment a block is released.
TensorArena::Block* TensorArena::Grow(size_t min_bytes) {
  Block b;
  b.capacity = std::max(kMinBlockBytes, RoundUp16(min_bytes));
  void* mapped = ::mmap(nullptr, b.capacity, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  TRACER_CHECK(mapped != MAP_FAILED)
      << "tensor arena could not map " << b.capacity << " bytes";
  b.data = static_cast<char*>(mapped);
  b.used = 0;
  ++g_counters.arena_blocks;
  blocks_.push_back(b);
  active_ = blocks_.size() - 1;
  return &blocks_.back();
}

size_t TensorArena::capacity_bytes() const {
  size_t total = 0;
  for (const Block& b : blocks_) total += b.capacity;
  return total;
}

void TensorArena::ReleaseBlocks() {
  for (Block& b : blocks_) ::munmap(b.data, b.capacity);
  blocks_.clear();
}

void* TensorArena::Allocate(size_t bytes) {
  const size_t need = RoundUp16(bytes);
  Block* b = blocks_.empty() ? Grow(need) : &blocks_[active_];
  if (b->capacity - b->used < need) b = Grow(need);
  void* p = b->data + b->used;
  b->used += need;
  used_bytes_ += need;
  peak_bytes_ = std::max(peak_bytes_, used_bytes_);
  ++live_;
  return p;
}

void TensorArena::Reset() {
  TRACER_CHECK_EQ(live_, 0)
      << "tensor arena reset with live buffers (a tensor escaped its "
         "ScopedArena scope)";
  // The plan step: once the warm-up iteration has revealed the peak
  // footprint, consolidate to a single block of that size so steady-state
  // iterations bump inside it and never malloc.
  if (blocks_.size() != 1 || blocks_[0].capacity < peak_bytes_) {
    ReleaseBlocks();
    if (peak_bytes_ > 0) Grow(peak_bytes_);
  }
  for (Block& b : blocks_) b.used = 0;
  active_ = 0;
  used_bytes_ = 0;
}

ScopedArena::ScopedArena(TensorArena* arena) : prev_(g_current_arena) {
  g_current_arena = arena;
}

ScopedArena::~ScopedArena() { g_current_arena = prev_; }

TensorArena* CurrentArena() { return g_current_arena; }

AllocCounters ThreadAllocCounters() { return g_counters; }

namespace detail {

void* AllocateTensorBuffer(size_t payload_bytes) {
  const size_t total = payload_bytes + sizeof(BufferHeader);
  BufferHeader* header;
  if (g_current_arena != nullptr) {
    header = static_cast<BufferHeader*>(g_current_arena->Allocate(total));
    header->arena = g_current_arena;
    header->magic = kArenaMagic;
    ++g_counters.arena_allocs;
  } else {
    header = static_cast<BufferHeader*>(::operator new(total));
    header->arena = nullptr;
    header->magic = kHeapMagic;
    ++g_counters.heap_allocs;
  }
  return header + 1;
}

void DeallocateTensorBuffer(void* payload) {
  if (payload == nullptr) return;
  BufferHeader* header = static_cast<BufferHeader*>(payload) - 1;
  if (header->magic == kArenaMagic) {
    header->arena->NoteFree();  // memory reclaimed wholesale at Reset()
  } else {
    TRACER_CHECK_EQ(header->magic, kHeapMagic)
        << "corrupt tensor buffer header";
    ::operator delete(header);
  }
}

}  // namespace detail
}  // namespace tracer
