// The `explore` workload: a bounded exhaustive exploration of one BPRC
// cell, and the spanned ExploreTarget its traced pass substitutes for the
// library's own consensus target.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "explore/consensus_explore.hpp"
#include "explore/explorer.hpp"

namespace pb {

/// The fixed cell: bprc, n = 3, inputs 0,1,1, the fixed branch depth and
/// coin seed, `grade_jobs` leaf graders.
bprc::explore::ConsensusExploreConfig explore_config(unsigned grade_jobs);

/// The library's consensus target (explore/consensus_explore.cpp) rebuilt
/// with a span around every execution, from instantiate() to the end of
/// check(). Spans on the thread that constructs the target, which must be
/// the one that calls explore(), are "dfs"; spans on any other thread are
/// the leaf graders'.
class SpannedConsensusTarget final : public bprc::explore::ExploreTarget {
 public:
  struct Span {
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> steps{0};
    std::atomic<std::uint64_t> executions{0};
  };

  SpannedConsensusTarget(const bprc::explore::ConsensusExploreConfig& config);

  int nprocs() const override { return static_cast<int>(inputs_.size()); }
  std::unique_ptr<Instance> instantiate(bprc::SimRuntime& rt) override;

  const Span& dfs() const { return dfs_; }
  const Span& graders() const { return graders_; }

 private:
  class SpannedInstance;

  bprc::ProtocolFactory factory_;
  std::vector<int> inputs_;
  std::thread::id dfs_thread_;
  Span dfs_;
  Span graders_;
};

}  // namespace pb
