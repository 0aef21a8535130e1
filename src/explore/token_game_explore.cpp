#include "explore/token_game_explore.hpp"

#include <memory>
#include <string>

#include "runtime/sim_runtime.hpp"
#include "strip/distance_graph.hpp"
#include "strip/token_game.hpp"
#include "util/assert.hpp"

namespace bprc::explore {

namespace {

class TokenGameTarget final : public ExploreTarget {
 public:
  TokenGameTarget(int n, int K, int moves_per_proc)
      : n_(n), k_(K), moves_(moves_per_proc) {}

  int nprocs() const override { return n_; }

  std::unique_ptr<Instance> instantiate(SimRuntime& rt) override {
    return std::make_unique<GameInstance>(n_, k_, moves_, rt);
  }

 private:
  class GameInstance final : public Instance {
   public:
    GameInstance(int n, int K, int moves, SimRuntime& rt)
        : game_(n, K), graph_(n, K) {
      for (ProcId p = 0; p < n; ++p) {
        rt.spawn(p, [this, &rt, p, moves] {
          for (int m = 0; m < moves; ++m) {
            // One shared virtual object (id 0) for the whole strip: every
            // pair of moves conflicts, so sleep sets never prune an
            // interleaving of this target.
            rt.checkpoint({OpDesc::Kind::kWrite, 0, p});
            game_.move_token(p);
            graph_.inc(p);
            if (!(graph_ ==
                  DistanceGraph::from_positions(game_.positions(), k()))) {
              record_mismatch(p, m);
            }
          }
        });
      }
    }

    std::optional<Violation> check(SimRuntime& /*rt*/, RunResult /*run*/,
                                   bool /*complete*/) override {
      // The per-move check already ran inside the bodies; mismatches are
      // consistency violations regardless of whether the run finished.
      if (!mismatch_) return std::nullopt;
      Violation v;
      v.failure = FailureClass::kConsistency;
      v.note = mismatch_note_;
      return v;
    }

    std::uint64_t state_probe() const override {
      // The movers mutate the game and graph directly, invisible to the
      // TraceSink register hooks — fold both models (and the sticky
      // mismatch flag) into the global-state fingerprint so seen-state
      // merging never conflates distinct model states.
      std::uint64_t h = fnv_mix(kFnvOffset, mismatch_ ? 0x4D : 0x2D);
      for (const std::int64_t p : game_.positions()) {
        h = fnv_mix(h, static_cast<std::uint64_t>(p));
      }
      const int n = graph_.nprocs();
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          h = fnv_mix(h, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(graph_.signed_diff(i, j)) +
                             0x100));
        }
      }
      return h;
    }

   private:
    int k() const { return game_.K(); }

    void record_mismatch(int mover, int move_index) {
      if (mismatch_) return;  // keep the first divergence
      mismatch_ = true;
      mismatch_note_ = "claim-4.1 divergence: inc(" + std::to_string(mover) +
                       ") at move " + std::to_string(move_index) +
                       " of that process; positions=";
      for (std::size_t i = 0; i < game_.positions().size(); ++i) {
        if (i > 0) mismatch_note_ += ',';
        mismatch_note_ += std::to_string(game_.positions()[i]);
      }
    }

    TokenGame game_;
    DistanceGraph graph_;
    bool mismatch_ = false;
    std::string mismatch_note_;
  };

  int n_;
  int k_;
  int moves_;
};

}  // namespace

ExploreResult explore_token_game(int n, int K, int moves_per_proc,
                                 const ExploreLimits& limits,
                                 std::uint64_t seed) {
  BPRC_REQUIRE(n > 0 && K > 0 && moves_per_proc > 0,
               "token-game exploration needs positive n, K, moves");
  BPRC_REQUIRE(limits.branch_depth >=
                   static_cast<std::uint64_t>(n) *
                       static_cast<std::uint64_t>(moves_per_proc),
               "branch_depth below n*moves: the tail would serialize part "
               "of the interleaving space");
  TokenGameTarget target(n, K, moves_per_proc);
  return explore(target, limits, seed);
}

}  // namespace bprc::explore
