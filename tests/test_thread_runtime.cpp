// Tests for the preemptive std::jthread runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "registers/register.hpp"
#include "runtime/thread_runtime.hpp"

namespace bprc {
namespace {

TEST(ThreadRuntime, RunsAllBodiesToCompletion) {
  ThreadRuntime rt(4, 1);
  std::vector<std::atomic<int>> done(4);
  for (ProcId p = 0; p < 4; ++p) {
    rt.spawn(p, [&rt, &done, p] {
      for (int k = 0; k < 50; ++k) rt.checkpoint({});
      done[static_cast<std::size_t>(p)] = 1;
    });
  }
  const RunResult res = rt.run(1'000'000);
  EXPECT_EQ(res.reason, RunResult::Reason::kAllDone);
  for (auto& d : done) EXPECT_EQ(d.load(), 1);
  EXPECT_EQ(res.steps, 200u);
}

TEST(ThreadRuntime, StepAccountingPerProcess) {
  ThreadRuntime rt(3, 1, /*yield_prob=*/0.0);
  for (ProcId p = 0; p < 3; ++p) {
    rt.spawn(p, [&rt, p] {
      for (int k = 0; k <= p; ++k) rt.checkpoint({});
    });
  }
  rt.run(1'000'000);
  EXPECT_EQ(rt.steps(0), 1u);
  EXPECT_EQ(rt.steps(1), 2u);
  EXPECT_EQ(rt.steps(2), 3u);
  EXPECT_EQ(rt.total_steps(), 6u);
}

TEST(ThreadRuntime, BudgetStopsInfiniteBodies) {
  ThreadRuntime rt(2, 1);
  std::atomic<int> unwound{0};
  struct Guard {
    std::atomic<int>* c;
    ~Guard() { c->fetch_add(1); }
  };
  for (ProcId p = 0; p < 2; ++p) {
    rt.spawn(p, [&rt, &unwound] {
      Guard g{&unwound};
      for (;;) rt.checkpoint({});
    });
  }
  const RunResult res = rt.run(10'000);
  EXPECT_EQ(res.reason, RunResult::Reason::kBudget);
  EXPECT_EQ(unwound.load(), 2);  // RAII ran during unwinding
}

TEST(ThreadRuntime, SelfIdentifiesThread) {
  ThreadRuntime rt(3, 1);
  std::vector<std::atomic<ProcId>> selves(3);
  for (auto& s : selves) s = -1;
  for (ProcId p = 0; p < 3; ++p) {
    rt.spawn(p, [&rt, &selves, p] {
      rt.checkpoint({});
      selves[static_cast<std::size_t>(p)] = rt.self();
    });
  }
  rt.run(1'000'000);
  for (ProcId p = 0; p < 3; ++p) {
    EXPECT_EQ(selves[static_cast<std::size_t>(p)].load(), p);
  }
}

TEST(ThreadRuntime, NowIsGloballyUnique) {
  ThreadRuntime rt(4, 1);
  std::mutex mu;
  std::vector<std::uint64_t> stamps;
  for (ProcId p = 0; p < 4; ++p) {
    rt.spawn(p, [&] {
      for (int k = 0; k < 100; ++k) {
        rt.checkpoint({});
        const std::uint64_t t = rt.now();
        const std::scoped_lock lock(mu);
        stamps.push_back(t);
      }
    });
  }
  rt.run(10'000'000);
  std::sort(stamps.begin(), stamps.end());
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_NE(stamps[i - 1], stamps[i]);
  }
}

TEST(ThreadRuntime, ConcurrentRegisterAccessIsSafe) {
  // One writer, three readers hammering a native register: readers must
  // only ever observe values the writer actually wrote, in a
  // non-decreasing order (SWMR atomicity implies no stale regressions per
  // reader).
  ThreadRuntime rt(4, 1, /*yield_prob=*/0.2);
  SWMRRegister<int> reg(rt, /*owner=*/0, 0);
  std::atomic<bool> violation{false};
  rt.spawn(0, [&] {
    for (int v = 1; v <= 500; ++v) reg.write(v);
  });
  for (ProcId p = 1; p < 4; ++p) {
    rt.spawn(p, [&] {
      int last = 0;
      for (int k = 0; k < 500; ++k) {
        const int v = reg.read();
        if (v < last) violation = true;
        last = v;
      }
    });
  }
  rt.run(100'000'000);
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(reg.peek(), 500);
}

TEST(ThreadRuntime, RendezvousReleasesAllParticipants) {
  ThreadRuntime rt(4, 1);
  std::atomic<int> past_gate{0};
  for (ProcId p = 0; p < 4; ++p) {
    rt.spawn(p, [&] {
      rt.rendezvous(4);
      past_gate.fetch_add(1);
    });
  }
  const RunResult res = rt.run(1'000'000);
  EXPECT_EQ(res.reason, RunResult::Reason::kAllDone);
  EXPECT_EQ(past_gate.load(), 4);
}

TEST(ThreadRuntime, DeadlineFiresDuringParkedCheckpoint) {
  // Regression: a process parked in rendezvous() holds no checkpoint to
  // throw from, so the watchdog must actively wake it — a deadline that
  // only sets a flag would hang this run forever.
  ThreadRuntime rt(2, 1);
  std::atomic<bool> parked_past_gate{false};
  rt.spawn(0, [&] {
    rt.rendezvous(2);  // proc 1 never arrives: parks until the watchdog
    parked_past_gate = true;
  });
  rt.spawn(1, [] {});
  const RunResult res =
      rt.run(1'000'000, std::chrono::milliseconds(50));
  EXPECT_EQ(res.reason, RunResult::Reason::kDeadline);
  EXPECT_FALSE(parked_past_gate.load());
}

TEST(ThreadRuntime, BudgetExhaustionWakesParkedCheckpoint) {
  // Same rescue through the step-budget path: the spinning process burns
  // the budget, and raising stop must unpark its peer.
  ThreadRuntime rt(2, 1);
  rt.spawn(0, [&] { rt.rendezvous(2); });
  rt.spawn(1, [&] {
    for (;;) rt.checkpoint({});
  });
  const RunResult res = rt.run(5'000);
  EXPECT_EQ(res.reason, RunResult::Reason::kBudget);
}

TEST(ThreadRuntime, ScriptedFlipTapeExhaustsThenPassesThrough) {
  // The tape contract under real threads: forced prefix, then drawn bits
  // pass through untouched, with the generator stream identical to an
  // un-taped run (yield_prob = 0 keeps the rng stream pure).
  std::vector<bool> untaped(6);
  {
    ThreadRuntime rt(2, 7, /*yield_prob=*/0.0);
    rt.spawn(0, [&] {
      for (int i = 0; i < 6; ++i) untaped[static_cast<std::size_t>(i)] =
          rt.rng().flip();
    });
    rt.spawn(1, [] {});
    rt.run(1'000'000);
  }
  ThreadRuntime rt(2, 7, /*yield_prob=*/0.0);
  ScriptedFlipTape tape({true, false, true});
  std::vector<bool> taped(6);
  rt.spawn(0, [&] {
    rt.rng().set_flip_tape(&tape);
    for (int i = 0; i < 6; ++i) taped[static_cast<std::size_t>(i)] =
        rt.rng().flip();
    rt.rng().set_flip_tape(nullptr);
  });
  rt.spawn(1, [] {});
  rt.run(1'000'000);
  EXPECT_EQ(tape.consumed(), 3u);  // exhausted exactly at script length
  EXPECT_TRUE(taped[0]);
  EXPECT_FALSE(taped[1]);
  EXPECT_TRUE(taped[2]);
  // Past exhaustion the tape is transparent: drawn bits as if never taped.
  EXPECT_EQ(taped[3], untaped[3]);
  EXPECT_EQ(taped[4], untaped[4]);
  EXPECT_EQ(taped[5], untaped[5]);
}

TEST(ThreadRuntime, PerProcessRngStreamsDiffer) {
  ThreadRuntime rt(2, 9);
  std::vector<std::uint64_t> draws(2);
  for (ProcId p = 0; p < 2; ++p) {
    rt.spawn(p, [&rt, &draws, p] {
      rt.checkpoint({});
      draws[static_cast<std::size_t>(p)] = rt.rng()();
    });
  }
  rt.run(1'000'000);
  EXPECT_NE(draws[0], draws[1]);
}

}  // namespace
}  // namespace bprc
