#include "campaign.hpp"

#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace pb {

using bprc::fault::CampaignConfig;
using bprc::fault::CampaignReport;
using bprc::fault::TortureRun;

namespace {

/// Base seed of the measured matrix. It is fixed, not taken from --seed:
/// run lengths are heavy-tailed and correlated across the protocols and
/// adversaries of one seed, so a one-seed-per-cell matrix took from 305 to
/// 1295 ms over 24 base seeds (36% CV), and averaging that down to a few
/// percent would take some 150 seeds per cell. A seeded matrix would
/// measure the seed rather than the campaign.
constexpr std::uint64_t kCampaignSeed = 1;

/// summary_digest of campaign_config(kCampaignSeed): the campaign's
/// determinism witness, pinned so a change that alters what the campaign
/// computes cannot report a speed.
constexpr std::uint64_t kPinnedSummaryDigest = 0xe72e70decf5ee882ULL;

constexpr std::size_t kNoFailureCap = std::numeric_limits<std::size_t>::max();

/// Non-owning forwarder, so the recording decorator outlives the
/// simulator that owns (and destroys) the adversary it is handed.
class Borrowed final : public bprc::Adversary {
 public:
  explicit Borrowed(bprc::Adversary& inner) : inner_(inner) {}
  bprc::ProcId pick(bprc::SimCtl& ctl) override { return inner_.pick(ctl); }
  std::string name() const override { return inner_.name(); }
  int resolve_read(bprc::SimCtl& ctl, const bprc::StaleRead& sr) override {
    return inner_.resolve_read(ctl, sr);
  }

 private:
  bprc::Adversary& inner_;
};

/// Failed runs of one report, counted the way a user reads them: every
/// graded failure, every run the step budget or watchdog ended.
std::uint64_t failed_runs(const CampaignReport& report) {
  return report.failures.size() + report.deadline_aborts +
         report.budget_aborts + (report.interrupted ? 1 : 0);
}

/// Mean span of an empty interval: what one clock read adds to a span.
double clock_floor_ns() {
  constexpr int kReads = 1'000'000;
  std::uint64_t total = 0;
  for (int i = 0; i < kReads; ++i) total += ns_since(Clock::now());
  return static_cast<double>(total) / kReads;
}

/// The campaign's set-up: the matrix and the engine specs it streams.
struct CampaignSetup {
  std::vector<TortureRun> runs;
  std::vector<bprc::engine::TrialSpec> specs;
  std::uint64_t fingerprint = 0;
};

CampaignSetup set_up(const CampaignConfig& config) {
  CampaignSetup setup;
  std::uint64_t skipped = 0;
  setup.runs = bprc::fault::enumerate_campaign_runs(config, &skipped);
  setup.fingerprint =
      bprc::fault::campaign_matrix_fingerprint(config, setup.runs);
  setup.specs.reserve(setup.runs.size());
  for (const TortureRun& run : setup.runs) {
    setup.specs.push_back(bprc::fault::to_trial_spec(
        run, std::chrono::nanoseconds::zero(), /*record=*/true));
  }
  return setup;
}

}  // namespace

CampaignConfig campaign_config(std::uint64_t seed) {
  CampaignConfig config;
  config.protocols = {"bprc", "aspnes-herlihy", "local-coin", "strong-coin"};
  config.ns = {3, 8};
  config.adversaries = {};  // all seven registry adversaries
  config.seeds_per_cell = 4;
  config.seed0 = seed;
  config.run_deadline = std::chrono::milliseconds(0);
  config.crash_plans = true;
  config.max_failures = kNoFailureCap;
  config.jobs = 1;
  return config;
}

bprc::ProcId TimingAdversary::pick(bprc::SimCtl& ctl) {
  bprc::ProcId p = -1;
  if (++tally_.picks % kSampleEvery == 0) {
    const Clock::time_point t0 = Clock::now();
    p = inner_->pick(ctl);
    tally_.ns += ns_since(t0);
    ++tally_.timed;
  } else {
    p = inner_->pick(ctl);
  }
  if (last_ >= 0 && p != last_) ++tally_.handoffs;
  last_ = p;
  return p;
}

bprc::engine::TrialOutcome run_timed(const TortureRun& run,
                                     TimingAdversary::Tally& tally,
                                     bprc::SimReuse* reuse) {
  const bprc::engine::TrialSpec spec = bprc::fault::to_trial_spec(
      run, std::chrono::nanoseconds::zero(), /*record=*/true);
  std::unique_ptr<bprc::Adversary> adv = std::make_unique<TimingAdversary>(
      bprc::fault::make_adversary(run.adversary, run.seed), tally);
  if (!run.crash_plan.empty()) {
    adv = std::make_unique<bprc::CrashPlanAdversary>(std::move(adv),
                                                     run.crash_plan);
  }
  bprc::RecordingAdversary recording(std::move(adv));
  bprc::engine::TrialOutcome out;
  out.result = bprc::run_consensus_sim(
      spec.factory, spec.inputs, std::make_unique<Borrowed>(recording),
      spec.seed, spec.max_steps, spec.deadline, reuse, nullptr,
      spec.semantics);
  out.failure = out.result.failure();
  out.schedule = recording.script();
  out.crashes = recording.crashes();
  out.stales = recording.stales();
  return out;
}

void run_campaign(const Options& opt, Result& out) {
  const CampaignConfig config = campaign_config(kCampaignSeed);

  std::vector<double> setup_s;
  std::uint64_t fingerprint = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    const CampaignSetup setup = set_up(config);
    setup_s.push_back(seconds_since(t0));
    if (i == 0) fingerprint = setup.fingerprint;
    out.require(setup.fingerprint == fingerprint,
                "campaign matrix differs between set-ups");
  }

  std::vector<double> rates;
  std::uint64_t digest = 0;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    const CampaignReport report = bprc::fault::run_campaign(config);
    const double wall = seconds_since(t0);
    rates.push_back(static_cast<double>(report.runs) / wall);
    out.attempted += report.runs;
    out.failed += failed_runs(report);
    if (rates.size() == 1) digest = report.summary_digest;
    out.require(report.summary_digest == digest,
                "campaign summary_digest differs between repetitions");
  } while (seconds_since(start) < opt.seconds);

  out.require(digest == kPinnedSummaryDigest,
              "campaign summary_digest " + hex64(digest) + " != pinned " +
                  hex64(kPinnedSummaryDigest));
  out.require(out.failed == 0, "campaign runs failed");
  out.note("campaign: " + std::to_string(rates.size()) + " repetitions of " +
           std::to_string(out.attempted / rates.size()) +
           " runs, summary_digest " + hex64(digest) + ", runs_per_s " +
           spread(rates));
  out.note("setup_s " + spread(setup_s));
  out.add("setup_s", median(setup_s), "s");
  out.add("work_per_s", median(rates), "1/s");
  out.add("peak_rss_mib", peak_rss_mib(), "MiB");
}

void trace_campaign(Result& out) {
  const CampaignConfig config = campaign_config(kCampaignSeed);

  // Untraced reference: the wall the spans below must account for.
  Clock::time_point t0 = Clock::now();
  const CampaignReport reference = bprc::fault::run_campaign(config);
  const double untraced_s = seconds_since(t0);
  out.attempted += reference.runs;
  out.failed += failed_runs(reference);

  t0 = Clock::now();
  std::uint64_t skipped = 0;
  const std::vector<TortureRun> runs =
      bprc::fault::enumerate_campaign_runs(config, &skipped);
  const std::uint64_t enumerate_ns = ns_since(t0);

  // Traced pass: the same fold as run_campaign, with the registry
  // adversary timed and run_consensus_sim spanned per protocol.
  struct ProtocolTally {
    std::uint64_t runs = 0, steps = 0, ns = 0;
  };
  std::map<std::string, TimingAdversary::Tally> picks;
  std::map<std::string, ProtocolTally> protocols;
  CampaignReport traced;
  std::uint64_t traced_steps = 0;
  {
    bprc::SimReuse reuse;
    t0 = Clock::now();
    for (const TortureRun& run : runs) {
      const Clock::time_point t1 = Clock::now();
      bprc::engine::TrialOutcome outcome =
          run_timed(run, picks[run.adversary], &reuse);
      ProtocolTally& p = protocols[run.protocol];
      p.ns += ns_since(t1);
      ++p.runs;
      p.steps += outcome.result.total_steps;
      traced_steps += outcome.result.total_steps;
      TortureRun copy = run;
      bprc::fault::fold_outcome_record(
          traced,
          bprc::fault::make_outcome_record(std::move(copy), std::move(outcome)),
          kNoFailureCap);
    }
  }
  const double traced_s = seconds_since(t0);

  // Engine pass: run_trial per spec with and without recording, and the
  // outcome digest, each spanned on its own.
  std::vector<double> trial_us;
  std::uint64_t trial_rec_ns = 0, trial_norec_ns = 0, digest_ns = 0;
  std::uint64_t engine_steps = 0, norec_steps = 0;
  std::uint64_t engine_digest = 0xCBF29CE484222325ULL;
  {
    bprc::SimReuse reuse;
    for (const TortureRun& run : runs) {
      const bprc::engine::TrialSpec spec = bprc::fault::to_trial_spec(
          run, std::chrono::nanoseconds::zero(), /*record=*/true);
      Clock::time_point t1 = Clock::now();
      const bprc::engine::TrialOutcome outcome =
          bprc::engine::run_trial(spec, &reuse);
      const std::uint64_t ns = ns_since(t1);
      trial_rec_ns += ns;
      trial_us.push_back(static_cast<double>(ns) * 1e-3);
      engine_steps += outcome.result.total_steps;
      t1 = Clock::now();
      const std::uint64_t d = bprc::fault::outcome_digest(outcome);
      digest_ns += ns_since(t1);
      engine_digest = (engine_digest ^ d) * 0x100000001B3ULL;
    }
    for (const TortureRun& run : runs) {
      const bprc::engine::TrialSpec spec = bprc::fault::to_trial_spec(
          run, std::chrono::nanoseconds::zero(), /*record=*/false);
      const Clock::time_point t1 = Clock::now();
      const bprc::engine::TrialOutcome outcome =
          bprc::engine::run_trial(spec, &reuse);
      trial_norec_ns += ns_since(t1);
      norec_steps += outcome.result.total_steps;
    }
  }

  // Cost-model check: every pass did the same work as the campaign.
  out.require(traced.summary_digest == reference.summary_digest &&
                  traced.runs == reference.runs,
              "traced campaign pass differs from run_campaign");
  out.require(engine_digest == reference.summary_digest,
              "engine pass digest differs from run_campaign");
  out.require(traced_steps == engine_steps && engine_steps == norec_steps,
              "campaign passes executed different step totals");
  out.require(reference.summary_digest == kPinnedSummaryDigest,
              "campaign summary_digest " + hex64(reference.summary_digest) +
                  " != pinned " + hex64(kPinnedSummaryDigest));

  // A sampled span also holds one clock read; take that floor off.
  const double clock_ns = clock_floor_ns();
  std::uint64_t all_picks = 0, all_handoffs = 0;
  for (const auto& [name, tally] : picks) {
    all_picks += tally.picks;
    all_handoffs += tally.handoffs;
    out.add("runtime.pick_ns." + name,
            static_cast<double>(tally.ns) / static_cast<double>(tally.timed) -
                clock_ns,
            "ns");
  }
  out.add("runtime.handoff_frac",
          static_cast<double>(all_handoffs) / static_cast<double>(all_picks),
          "ratio");
  for (const auto& [name, p] : protocols) {
    out.add("consensus.steps_per_run." + name,
            static_cast<double>(p.steps) / static_cast<double>(p.runs),
            "count");
    out.add("consensus.ns_per_step." + name,
            static_cast<double>(p.ns) / static_cast<double>(p.steps), "ns");
  }
  const double steps = static_cast<double>(engine_steps);
  out.add("engine.trial_us.p50", quantile(trial_us, 0.50), "us");
  out.add("engine.trial_us.p99", quantile(trial_us, 0.99), "us");
  out.add("engine.trial_samples", static_cast<double>(trial_us.size()),
          "count");
  out.add("fault.enumerate_ms", static_cast<double>(enumerate_ns) * 1e-6,
          "ms");
  out.add("fault.record_ns_per_step",
          (static_cast<double>(trial_rec_ns) -
           static_cast<double>(trial_norec_ns)) / steps,
          "ns");
  out.add("fault.digest_ns_per_step", static_cast<double>(digest_ns) / steps,
          "ns");
  const double spans_s =
      static_cast<double>(enumerate_ns + trial_rec_ns + digest_ns) * 1e-9;
  out.add("fault.residual_frac", 1.0 - spans_s / untraced_s, "ratio");
  out.add("trace.overhead_frac.campaign", traced_s / untraced_s - 1.0,
          "ratio");
  out.note("trace campaign: run_campaign " + std::to_string(untraced_s) +
           " s, traced pass " + std::to_string(traced_s) + " s, spans " +
           std::to_string(spans_s) + " s, " + std::to_string(reference.runs) +
           " runs, " + std::to_string(engine_steps) + " steps, clock read " +
           std::to_string(clock_ns) + " ns");
}

}  // namespace pb
