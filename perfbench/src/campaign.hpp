// The `campaign` workload: a serial torture campaign over the faithful
// protocol registry, and the timing adversary decorator its traced pass
// uses to attribute per-step cost to the schedulers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "engine/trial.hpp"
#include "fault/campaign.hpp"
#include "runtime/adversary.hpp"

namespace pb {

/// The fixed campaign matrix: bprc, aspnes-herlihy, local-coin and
/// strong-coin × all seven registry adversaries × {no crash plan, seeded
/// crash plan} × the standard input patterns × n ∈ {3, 8}, four seeds per
/// cell, atomic registers, serial, watchdog off: 1920 runs. `seed` is the
/// sweep's base seed.
bprc::fault::CampaignConfig campaign_config(std::uint64_t seed);

/// Decorator that times one pick() in kSampleEvery of the adversary it
/// wraps and counts handoffs (a pick of another process than the one
/// picked before). It forwards every call unchanged, so the run it
/// schedules is the run the bare adversary schedules.
class TimingAdversary final : public bprc::Adversary {
 public:
  /// Sampling keeps the clock's own cost (tens of ns per read, as much
  /// as a pick) from doubling the traced run's wall.
  static constexpr std::uint64_t kSampleEvery = 16;

  struct Tally {
    std::uint64_t picks = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t timed = 0;  ///< sampled picks
    std::uint64_t ns = 0;     ///< summed span of the sampled picks
  };

  TimingAdversary(std::unique_ptr<bprc::Adversary> inner, Tally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  bprc::ProcId pick(bprc::SimCtl& ctl) override;
  std::string name() const override { return inner_->name(); }
  int resolve_read(bprc::SimCtl& ctl, const bprc::StaleRead& sr) override {
    return inner_->resolve_read(ctl, sr);
  }

 private:
  std::unique_ptr<bprc::Adversary> inner_;
  Tally& tally_;
  bprc::ProcId last_ = -1;
};

/// Executes one campaign run exactly as engine::run_trial does in
/// recording mode (the campaign's mode), with the registry adversary
/// wrapped in a TimingAdversary that adds into `tally`.
bprc::engine::TrialOutcome run_timed(const bprc::fault::TortureRun& run,
                                     TimingAdversary::Tally& tally,
                                     bprc::SimReuse* reuse);

}  // namespace pb
