// Tests for the tape-aware tensor arena (src/tensor/arena.h): bump
// allocation and consolidation mechanics, counter-based observability, and
// the end-to-end contract the trainer builds on — after the warm-up step
// plans the peak footprint, a steady-state training step allocates zero
// heap memory for tensor buffers.

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/titv.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "optim/optimizer.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"
#include "train/trainer.h"

namespace tracer {
namespace {

using autograd::Variable;

TEST(ArenaTest, HeapPathServesAndCountsWithoutArena) {
  const AllocCounters before = ThreadAllocCounters();
  { Tensor t = Tensor::Zeros({8, 8}); }
  const AllocCounters after = ThreadAllocCounters();
  EXPECT_EQ(after.heap_allocs - before.heap_allocs, 1);
  EXPECT_EQ(after.arena_allocs - before.arena_allocs, 0);
}

TEST(ArenaTest, ScopedArenaRoutesTensorBuffers) {
  TensorArena arena;
  const AllocCounters before = ThreadAllocCounters();
  {
    ScopedArena scope(&arena);
    Tensor a = Tensor::Zeros({4, 4});
    Tensor b = Tensor::Full({2, 8}, 1.5f);
    EXPECT_EQ(arena.live(), 2);
  }
  arena.Reset();
  const AllocCounters after = ThreadAllocCounters();
  EXPECT_EQ(after.heap_allocs - before.heap_allocs, 0);
  EXPECT_EQ(after.arena_allocs - before.arena_allocs, 2);
  EXPECT_EQ(arena.live(), 0);
}

TEST(ArenaTest, NestedNullScopeSuspendsArena) {
  TensorArena arena;
  ScopedArena scope(&arena);
  const AllocCounters before = ThreadAllocCounters();
  {
    ScopedArena escape(nullptr);
    Tensor heap_tensor = Tensor::Zeros({4, 4});
    const AllocCounters mid = ThreadAllocCounters();
    EXPECT_EQ(mid.heap_allocs - before.heap_allocs, 1);
  }
  Tensor arena_tensor = Tensor::Zeros({4, 4});
  EXPECT_EQ(arena.live(), 1);
}

TEST(ArenaTest, ResetConsolidatesWarmupBlocksIntoPlannedBlock) {
  TensorArena arena;
  {
    ScopedArena scope(&arena);
    // Force several warm-up blocks: each allocation exceeds the minimum
    // block granularity, so the arena must chain.
    std::vector<Tensor> big;
    for (int i = 0; i < 4; ++i) {
      big.push_back(Tensor::Zeros({512, 256}));  // 512 KiB each
    }
    EXPECT_GE(arena.block_count(), 2u);
  }
  arena.Reset();
  // One block, sized to the measured peak: the next identical iteration
  // bumps without growing.
  EXPECT_EQ(arena.block_count(), 1u);
  const AllocCounters before = ThreadAllocCounters();
  {
    ScopedArena scope(&arena);
    std::vector<Tensor> big;
    for (int i = 0; i < 4; ++i) {
      big.push_back(Tensor::Zeros({512, 256}));
    }
  }
  arena.Reset();
  const AllocCounters after = ThreadAllocCounters();
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_EQ(after.heap_allocs - before.heap_allocs, 0);
  EXPECT_EQ(after.arena_blocks - before.arena_blocks, 0);
}

#ifdef __linux__
// Resident set size of this process, from /proc/self/statm.
size_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size_pages = 0, resident_pages = 0;
  const int read = std::fscanf(f, "%llu %llu", &size_pages, &resident_pages);
  std::fclose(f);
  if (read != 2) return 0;
  return static_cast<size_t>(resident_pages) *
         static_cast<size_t>(sysconf(_SC_PAGESIZE));
}
#endif

TEST(ArenaTest, ConsolidationReturnsTheWarmupChainToTheOs) {
#ifndef __linux__
  GTEST_SKIP() << "reads resident memory from /proc/self/statm";
#else
  // A warm-up chain of 256 KiB blocks holding >= 64 MiB of touched tensor
  // memory. Consolidation replaces it with one planned block that nothing
  // has touched yet, so resident memory must fall by most of the chain.
  // The heap is put in the state a training process leaves it in: an
  // earlier free of a large buffer has raised malloc's dynamic mmap
  // threshold, and small heap objects (tape nodes, closures) allocated
  // between the chain's blocks outlive it, so a heap-served chain could
  // not be trimmed away.
  ::operator delete(::operator new(size_t{4} << 20));
  std::vector<std::unique_ptr<char[]>> interleaved;
  TensorArena arena;
  size_t chain_bytes = 0;
  {
    ScopedArena scope(&arena);
    std::vector<Tensor> chain;
    for (int i = 0; i < 1100; ++i) {
      chain.push_back(Tensor::Zeros({64, 256}));  // 64 KiB each
      interleaved.push_back(std::make_unique<char[]>(64));
    }
    chain_bytes = arena.capacity_bytes();
    EXPECT_GT(arena.block_count(), 256u);
  }
  ASSERT_GE(chain_bytes, size_t{64} << 20);
  const size_t before = ResidentBytes();
  arena.Reset();
  const size_t after = ResidentBytes();
  ASSERT_GT(before, 0u);
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_GE(before, after + chain_bytes / 2)
      << "resident " << before << " -> " << after << " bytes; chain "
      << chain_bytes << " bytes";
#endif
}

TEST(ArenaDeathTest, ResetWithLiveBufferAborts) {
  EXPECT_DEATH(
      {
        TensorArena arena;
        ScopedArena scope(&arena);
        Tensor escaped = Tensor::Zeros({2, 2});
        arena.Reset();
      },
      "live");
}

core::TitvConfig SmallTitvConfig() {
  core::TitvConfig config;
  config.input_dim = 5;
  config.rnn_dim = 8;
  config.film_dim = 8;
  config.seed = 3;
  return config;
}

data::TimeSeriesDataset SmallDataset(int samples) {
  Rng rng(5);
  data::TimeSeriesDataset ds(data::TaskType::kBinaryClassification,
                             samples, /*windows=*/4, /*features=*/5);
  for (int i = 0; i < samples; ++i) {
    for (int t = 0; t < 4; ++t) {
      for (int d = 0; d < 5; ++d) {
        ds.at(i, t, d) = static_cast<float>(rng.Uniform());
      }
    }
    ds.set_label(i, rng.Bernoulli(0.5) ? 1.0f : 0.0f);
  }
  return ds;
}

TEST(ArenaTest, SteadyStateTrainingStepAllocatesNoHeapTensors) {
  // The trainer's step discipline, replayed exactly: parameter gradients
  // pre-allocated on the heap, forward+backward inside a ScopedArena,
  // Reset after the tape dies. Steps after warm-up must allocate zero
  // tensor buffers from the heap and grow the arena by zero blocks.
  core::Titv model(SmallTitvConfig());
  const data::TimeSeriesDataset ds = SmallDataset(8);
  const data::Batch batch = data::FullBatch(ds);
  const std::vector<Variable> xs = nn::SequenceModel::ToVariables(batch);
  std::vector<Variable> params = model.Parameters();
  for (Variable& p : params) p.grad();  // materialise grads on the heap

  TensorArena arena;
  for (int step = 0; step < 5; ++step) {
    const AllocCounters before = ThreadAllocCounters();
    {
      ScopedArena scope(&arena);
      for (Variable& p : params) p.ZeroGrad();
      Variable loss = autograd::BinaryCrossEntropyWithLogits(
          model.Forward(xs), batch.labels);
      loss.Backward();
    }
    arena.Reset();
    const AllocCounters after = ThreadAllocCounters();
    if (step >= 2) {
      EXPECT_EQ(after.heap_allocs - before.heap_allocs, 0)
          << "step " << step << " heap-allocated a tensor buffer";
      EXPECT_EQ(after.arena_blocks - before.arena_blocks, 0)
          << "step " << step << " outgrew the planned arena block";
    }
  }
}

TEST(ArenaTest, TrainerReportsZeroAllocsPerStepInSteadyState) {
  // End-to-end through train::Fit: the tracer_train_allocs_per_step gauge
  // (last-write-wins) must read 0 after training — the final step ran
  // entirely out of the planned arena.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  core::Titv model(SmallTitvConfig());
  const data::TimeSeriesDataset ds = SmallDataset(32);
  train::TrainConfig config;
  config.max_epochs = 2;
  config.batch_size = 8;
  config.patience = 0;
  config.verbose = false;
  train::Fit(&model, ds, ds, config);
  obs::SetEnabled(was_enabled);
  obs::Gauge* gauge = obs::MetricsRegistry::Global().GetOrCreateGauge(
      "tracer_train_allocs_per_step");
  EXPECT_EQ(gauge->value(), 0.0);
  // The planned block is what the step arena keeps mapped.
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetOrCreateGauge("tracer_train_arena_bytes")
                ->value(),
            0.0);
}

}  // namespace
}  // namespace tracer
