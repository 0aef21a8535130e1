// Coin visualizer: watch the §3 random walk fight the adversary.
//
//   $ ./examples/coin_visualizer [n] [b] [adversary]
//
// Runs one weak-shared-coin toss in the simulator and prints the walk
// value over time as an ASCII strip chart, together with the decision
// barriers ±b·n and each process's final answer. Try
//   ./coin_visualizer 4 4 coin-bias
// to see the adversary's signature: the walk gets dragged back toward 0
// whenever it strays, stretching the game out — but the barriers win in
// expected O((b+1)²n²) steps regardless.
//
// The walk trace is captured by an Adversary decorator that inspects each
// scheduled process's pending write — precisely the information the
// strong adversary legitimately has, demonstrating that part of the API.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/api.hpp"

namespace {

using namespace bprc;

/// Decorator: accumulates the walk value by watching pending counter
/// writes (payload ±1 on a value register) of whichever process the inner
/// strategy schedules.
class WalkTracer final : public Adversary {
 public:
  WalkTracer(std::unique_ptr<Adversary> inner, int n,
             std::vector<std::int64_t>* trace)
      : inner_(std::move(inner)), n_(n), trace_(trace) {}

  ProcId pick(SimCtl& ctl) override {
    const ProcId p = inner_->pick(ctl);
    if (p >= 0) {
      const OpDesc& op = ctl.view(p).pending;
      // Counter writes carry their walk delta as the payload; arrow
      // writes and scans carry 0.
      if (op.kind == OpDesc::Kind::kWrite && op.object >= 0 &&
          op.object < n_ && op.payload != 0) {
        walk_ += op.payload;
        trace_->push_back(walk_);
      }
    }
    return p;
  }
  std::string name() const override { return inner_->name() + "+trace"; }

 private:
  std::unique_ptr<Adversary> inner_;
  int n_;
  std::vector<std::int64_t>* trace_;
  std::int64_t walk_ = 0;
};

std::unique_ptr<Adversary> pick_adversary(const std::string& name,
                                          std::uint64_t seed) {
  if (name == "coin-bias") return std::make_unique<CoinBiasAdversary>(seed);
  if (name == "lockstep") return std::make_unique<LockstepAdversary>(seed);
  if (name == "round-robin") return std::make_unique<RoundRobinAdversary>();
  return std::make_unique<RandomAdversary>(seed);
}

void print_strip_chart(const std::vector<std::int64_t>& trace,
                       std::int64_t barrier) {
  if (trace.empty()) {
    std::printf("(no walk steps recorded)\n");
    return;
  }
  // Columns: walk value from -barrier-2 .. +barrier+2; rows: time,
  // downsampled to at most 40 rows.
  const std::int64_t lo = -barrier - 2;
  const std::int64_t hi = barrier + 2;
  const std::size_t rows = 40;
  const std::size_t stride = std::max<std::size_t>(1, trace.size() / rows);
  std::printf("walk over time (one row per %zu steps; | = barriers):\n\n",
              stride);
  for (std::size_t i = 0; i < trace.size(); i += stride) {
    const std::int64_t v = trace[i];
    std::string line(static_cast<std::size_t>(hi - lo + 1), ' ');
    line[static_cast<std::size_t>(-barrier - lo)] = '|';
    line[static_cast<std::size_t>(barrier - lo)] = '|';
    line[static_cast<std::size_t>(0 - lo)] = '.';
    const std::int64_t clamped = std::clamp(v, lo, hi);
    line[static_cast<std::size_t>(clamped - lo)] = '*';
    std::printf("%8zu %s %+lld\n", i, line.c_str(),
                static_cast<long long>(v));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 4;
  const int b = argc > 2 ? std::atoi(argv[2]) : 4;
  const std::string adv = argc > 3 ? argv[3] : "coin-bias";
  if (n < 1 || n > 16 || b < 2) {
    std::fprintf(stderr, "usage: %s [n in 1..16] [b >= 2] [adversary]\n",
                 argv[0]);
    return 2;
  }
  const std::uint64_t seed = 20260706;

  std::vector<std::int64_t> trace;
  SimRuntime rt(n,
                std::make_unique<WalkTracer>(pick_adversary(adv, seed), n,
                                             &trace),
                seed);
  const CoinParams params = CoinParams::standard(n, b);
  SharedCoin coin(rt, params);

  std::vector<CoinValue> votes(static_cast<std::size_t>(n),
                               CoinValue::kUndecided);
  for (ProcId p = 0; p < n; ++p) {
    rt.spawn(p, [&coin, &votes, p] {
      votes[static_cast<std::size_t>(p)] = coin.toss();
    });
  }
  const RunResult res = rt.run(500'000'000ull);
  if (res.reason != RunResult::Reason::kAllDone) {
    std::printf("toss did not finish\n");
    return 1;
  }

  const std::int64_t barrier = static_cast<std::int64_t>(b) * n;
  std::printf(
      "n=%d  b=%d  adversary=%s   barriers at %+lld / %+lld   m=%lld\n\n",
      n, b, adv.c_str(), static_cast<long long>(barrier),
      static_cast<long long>(-barrier), static_cast<long long>(params.m));
  print_strip_chart(trace, barrier);
  std::printf(
      "\ntotal walk steps: %llu (Lemma 3.2 bound: (b+1)^2 n^2 = %d)\n",
      static_cast<unsigned long long>(coin.walk_steps()),
      (b + 1) * (b + 1) * n * n);
  std::printf("max |counter|:    %lld (hard cap m+1 = %lld)\n",
              static_cast<long long>(coin.max_counter_magnitude()),
              static_cast<long long>(params.m + 1));
  std::printf("overflow endings: %llu\n\n",
              static_cast<unsigned long long>(coin.overflows()));
  std::printf("votes: ");
  bool heads_seen = false;
  bool tails_seen = false;
  for (ProcId p = 0; p < n; ++p) {
    std::printf(" p%d=%s", p, to_string(votes[static_cast<std::size_t>(p)]));
    heads_seen = heads_seen ||
                 votes[static_cast<std::size_t>(p)] == CoinValue::kHeads;
    tails_seen = tails_seen ||
                 votes[static_cast<std::size_t>(p)] == CoinValue::kTails;
  }
  std::printf("\n=> %s\n",
              heads_seen && tails_seen
                  ? "DISAGREEMENT (the <= 1/b event — rerun and it is rare)"
                  : "unanimous, as expected with probability >= (b-1)/b");
  return 0;
}
