// Allocation regression tests: after warm-up, a simulated BPRC step
// touches no heap. Register records are flat values (util/small_vector.hpp
// keeps their bounded fields inline), scans land in reused buffers and
// writes build their entry in place, so once every buffer has reached
// its working size a scan, a write, or a whole protocol iteration
// performs zero allocations.
//
// This binary replaces the global operator new with a counting one, which
// is why it is its own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "consensus/abrahamson.hpp"
#include "consensus/bprc.hpp"
#include "runtime/adversary.hpp"
#include "runtime/sim_runtime.hpp"
#include "snapshot/scannable_memory.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bprc {
namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

// Two cache lines: a register read or write copies one fixed-size block.
static_assert(sizeof(Toggled<BPRCRecord>) <= 128);

BPRCRecord initial_record(int n) {
  BPRCRecord rec;
  rec.coins = CoinSlots(2);
  rec.edges = initial_edge_counters(n);
  return rec;
}

/// Every process loops scan_into + write on a ScannableMemory<BPRCRecord>
/// under round-robin scheduling. Counting starts once all processes have
/// finished their warm-up iterations and runs to the end of the run.
std::uint64_t scan_write_loop_allocs(int n) {
  constexpr int kWarm = 4;
  constexpr int kIters = 200;
  SimRuntime rt(n, std::make_unique<RoundRobinAdversary>(), 1);
  ScannableMemory<BPRCRecord> mem(rt, initial_record(n));
  int warmed = 0;
  std::uint64_t start = 0;
  for (ProcId p = 0; p < n; ++p) {
    rt.spawn(p, [&, p] {
      BPRCRecord rec = initial_record(n);
      std::vector<BPRCRecord> view;
      for (int i = 0; i < kIters; ++i) {
        if (i == kWarm && ++warmed == n) start = allocs();
        mem.scan_into(view);
        rec.pref = view[static_cast<std::size_t>((p + 1) % n)].pref;
        rec.coins.next_slot() += i % 3 - 1;
        rec.coins.advance();
        auto& e = rec.edges[static_cast<std::size_t>((p + 1) % n)];
        e = static_cast<std::uint8_t>((e + 1) % 6);
        mem.write(rec, i);
      }
    });
  }
  const RunResult run = rt.run(~std::uint64_t{0});
  EXPECT_EQ(run.reason, RunResult::Reason::kAllDone);
  EXPECT_EQ(warmed, n);
  return allocs() - start;
}

TEST(Alloc, BPRCScanWriteLoopAllocatesNothingAfterWarmUp) {
  for (const int n : {3, 8}) {
    EXPECT_EQ(scan_write_loop_allocs(n), 0u) << "n=" << n;
  }
}

/// Forwards to `inner` and charges every allocation to the step that
/// made it: the code a process runs between being picked and its next
/// checkpoint belongs to that pick. A process is warm once it has written
/// its snapshot register kWarmWrites times — it has finished a scan, so
/// every per-process buffer has reached its working size. The allocations
/// and the number of warm steps are summed.
class AllocSampler final : public Adversary {
 public:
  static constexpr std::uint64_t kWarmWrites = 3;

  AllocSampler(int n, std::unique_ptr<Adversary> inner)
      : inner_(std::move(inner)), writes_(static_cast<std::size_t>(n), 0) {}

  ProcId pick(SimCtl& ctl) override {
    if (warm_pick_) {
      counted_allocs_ += allocs() - last_allocs_;
      ++counted_steps_;
    }
    const ProcId p = inner_->pick(ctl);
    warm_pick_ = false;
    if (p >= 0) {
      std::uint64_t& writes = writes_[static_cast<std::size_t>(p)];
      warm_pick_ = writes >= kWarmWrites;
      // ScannableMemory gives process p's value register object id p.
      const OpDesc& op = ctl.view(p).pending;
      if (op.kind == OpDesc::Kind::kWrite && op.object == p) ++writes;
    }
    last_allocs_ = allocs();
    return p;
  }
  std::string name() const override { return "alloc-sampler"; }

  std::uint64_t counted_allocs() const { return counted_allocs_; }
  std::uint64_t counted_steps() const { return counted_steps_; }

 private:
  std::unique_ptr<Adversary> inner_;
  std::vector<std::uint64_t> writes_;  ///< value-register writes picked
  bool warm_pick_ = false;
  std::uint64_t last_allocs_ = 0;
  std::uint64_t counted_allocs_ = 0;
  std::uint64_t counted_steps_ = 0;
};

TEST(Alloc, BPRCSimRunAllocatesNothingPerIterationAfterWarmUp) {
  for (const int n : {3, 8}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      std::unique_ptr<Adversary> inner;
      if (seed % 2 == 0) {
        inner = std::make_unique<CoinBiasAdversary>(seed);
      } else {
        inner = std::make_unique<RandomAdversary>(seed);
      }
      auto owner = std::make_unique<AllocSampler>(n, std::move(inner));
      const AllocSampler& sampler = *owner;
      SimRuntime rt(n, std::move(owner), seed);
      BPRCConsensus protocol(rt, BPRCParams::standard(n));
      for (ProcId p = 0; p < n; ++p) {
        const int input = static_cast<int>(p) % 2;
        rt.spawn(p, [&protocol, input] { protocol.propose(input); });
      }
      ASSERT_EQ(rt.run(80'000'000).reason, RunResult::Reason::kAllDone);
      EXPECT_GT(sampler.counted_steps(), 0u) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(sampler.counted_allocs(), 0u)
          << "n=" << n << " seed=" << seed << ": "
          << sampler.counted_steps() << " post-warm-up steps";
    }
  }
}

TEST(Alloc, LocalCoinSimRunAllocatesNothingPerIterationAfterWarmUp) {
  // n=5: at n=3 some seeds decide before any process is warm.
  constexpr int n = 5;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    auto owner = std::make_unique<AllocSampler>(
        n, std::make_unique<RandomAdversary>(seed));
    const AllocSampler& sampler = *owner;
    SimRuntime rt(n, std::move(owner), seed);
    LocalCoinConsensus protocol(rt);
    for (ProcId p = 0; p < n; ++p) {
      const int input = static_cast<int>(p) % 2;
      rt.spawn(p, [&protocol, input] { protocol.propose(input); });
    }
    ASSERT_EQ(rt.run(80'000'000).reason, RunResult::Reason::kAllDone);
    EXPECT_GT(sampler.counted_steps(), 0u) << "seed=" << seed;
    EXPECT_EQ(sampler.counted_allocs(), 0u)
        << "seed=" << seed << ": " << sampler.counted_steps()
        << " post-warm-up steps";
  }
}

}  // namespace
}  // namespace bprc
