// TVLA campaigns: per-gate (per-group) leakage assessment.
//
// This is the `leak_estimate(D)` primitive of Algorithms 1 and 2. For each
// logical gate group, the per-trace power sample is the summed switching
// energy of the group's member cells; Welch's t (Eq. 1) compares the fixed
// class against the random class. Gates with |t| > 4.5 are considered leaky
// (Fig. 4).
//
// Two stimulus protocols are provided (Sec. II-A):
//  * fixed-vs-random - lanes in the fixed class switch from a random base
//    vector to a fixed target vector; random-class lanes switch to a fresh
//    random vector.
//  * fixed-vs-fixed  - two distinct fixed target vectors (known intermediate
//    values) are compared.
// Sequential designs (DFFs present) run free-running multi-cycle traces with
// per-cycle sampling instead of vector pairs.
//
// Execution: campaigns are a thin protocol layer over engine::Scheduler
// (engine/scheduler.hpp), the one executor - the synchronous run_* entry
// points drain a private scheduler. The design is compiled once per
// campaign (sim::CompiledDesign) together with a fused toggle/energy
// sampling plan (power::SamplePlan); the trace budget is split into
// shards, each running a thin Simulator over the shared plan plus
// per-batch-keyed RNG streams and returning mergeable CampaignMoments,
// which join one ascending merge. Reports are bit-identical for every
// `threads` setting (see DESIGN.md).
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"
#include "techlib/techlib.hpp"
#include "tvla/moments.hpp"
#include "tvla/welch.hpp"

namespace polaris::engine {
class Scheduler;
}  // namespace polaris::engine

namespace polaris::tvla {

/// Role of a primary input in the TVLA protocol.
enum class InputClass : std::uint8_t {
  kSensitive,     // fixed in the fixed class, random in the random class
  kFixedCommon,   // same fixed value in BOTH classes (e.g. the key)
  kRandomCommon,  // fresh random in both classes (e.g. a nonce)
};

/// Early-stopping ("adaptive") trace budget for a campaign. Disabled by
/// default, and the disabled path is byte-identical to a build without the
/// feature: serialization and config fingerprints only change when
/// `enabled` is set.
///
/// When enabled, the campaign evaluates its merged moments at a
/// deterministic checkpoint schedule: trace milestones at min_traces,
/// 2*min_traces, 4*min_traces, ... (strictly below the full budget), each
/// rounded up to the next shard boundary of the campaign's ShardPlan - a
/// pure function of the batch count, never of `threads` or `lane_words`,
/// so stop decisions and reported t-stats are bit-reproducible across
/// every execution configuration (see DESIGN.md).
struct TvlaBudget {
  bool enabled = false;
  /// First checkpoint milestone, in traces. Must be positive when enabled;
  /// a floor at or above `traces` simply disables checkpoints (the full
  /// budget runs).
  std::size_t min_traces = 1024;
  /// Two-sided decision margin around the |t| threshold: a group is
  /// decided LEAKY when |t| > threshold + margin, decided CLEAN when its
  /// projection to the full budget stays below it,
  /// |t| * sqrt(total_traces / traces_so_far) < threshold - margin
  /// (Welch t grows like sqrt(n) for a true effect, so the projection is
  /// what the decided-clean group could at most reach).
  ///
  /// The campaign-level verdict composes the per-group rule asymmetrically,
  /// matching TVLA practice: it stops LEAKY at the first checkpoint where
  /// ANY measured group is confidently leaky (one decided excursion fails
  /// the design - later traces cannot un-fail it), but stops CLEAN only
  /// when EVERY measured group is confidently clean (a clean bill of
  /// health must cover all groups, so clean-looking designs keep their
  /// full budget unless the projection rules every group out).
  double margin = 0.5;
};

struct TvlaConfig {
  /// Total traces; rounded up to a whole number of 64-lane batches.
  std::size_t traces = 4096;
  /// Sequential designs: cycles discarded after reset, and sampled cycles
  /// per batch run.
  std::size_t warmup_cycles = 4;
  std::size_t cycles_per_batch = 32;
  double threshold = kLeakageThreshold;
  std::uint64_t seed = 1;
  /// Worker threads for trace collection: 0 = all hardware threads,
  /// 1 = fully serial. Results do not depend on this value. Note: when a
  /// campaign is driven through core::tvla_config_for, a nonzero
  /// PolarisConfig::threads overrides this field.
  std::size_t threads = 0;
  /// Per-sample additive measurement/electrical noise (std dev, fJ). Real
  /// trace acquisition never sees noise-free per-gate energies; without
  /// this floor every data-dependent gate saturates the t-test. Modelled
  /// analytically: means are unchanged, both class variances gain sigma^2.
  double noise_std_fj = 1.5;
  /// Lane-block width for the compiled kernel: 64-trace words evaluated
  /// per simulator pass (1, 2, 4, or 8; 0 = auto, i.e.
  /// sim::default_lane_words(), overridable via POLARIS_SIM_WORDS).
  /// Sequential campaigns always run 1 (the per-cycle sample order of a
  /// multi-batch lockstep would differ from the batch-major order; see
  /// DESIGN.md). Pure execution knob like `threads`: reports are
  /// bit-identical for every setting, and the field is never serialized
  /// nor part of config fingerprints.
  std::size_t lane_words = 0;
  /// Role of each primary input (empty = all kSensitive, the classic
  /// full-vector fixed-vs-random protocol).
  std::vector<InputClass> input_class;
  /// Fixed target vector (one bit per primary input). Empty = derived
  /// deterministically from `seed`.
  std::vector<bool> fixed_input;
  /// Second fixed vector for fixed-vs-fixed. Empty = derived from seed.
  std::vector<bool> fixed_input_b;
  /// Early-stopping trace budget (off by default; see TvlaBudget).
  TvlaBudget budget;
};

class LeakageReport {
 public:
  LeakageReport(std::vector<double> t_per_group, std::vector<bool> measured,
                double threshold);

  /// Welch t of group g (0 when unmeasured).
  [[nodiscard]] double t_value(netlist::GateId group) const {
    return t_per_group_[group];
  }
  [[nodiscard]] const std::vector<double>& t_values() const { return t_per_group_; }
  [[nodiscard]] bool measured(netlist::GateId group) const {
    return measured_[group];
  }

  [[nodiscard]] std::size_t group_count() const { return t_per_group_.size(); }
  [[nodiscard]] std::size_t measured_count() const;

  /// Groups with |t| above the threshold, sorted by descending |t|.
  [[nodiscard]] std::vector<netlist::GateId> leaky_groups() const;
  /// Number of such groups, counted in place (no allocation or sort).
  [[nodiscard]] std::size_t leaky_count() const;

  /// Sum of |t| over measured groups ("total leakage").
  [[nodiscard]] double total_abs_t() const;
  /// Mean |t| over measured groups - the paper's "Leakage Value (Per Gate)".
  [[nodiscard]] double leakage_per_gate() const;

  [[nodiscard]] double threshold() const { return threshold_; }

  /// Traces the campaign actually consumed producing this report. Only
  /// populated on budget-enabled campaigns (0 otherwise - the fixed path
  /// spends exactly the configured budget, and stays byte-identical).
  [[nodiscard]] std::size_t traces_used() const { return traces_used_; }
  /// True when an early-stop checkpoint decided the campaign before the
  /// full budget ran.
  [[nodiscard]] bool early_stopped() const { return early_stopped_; }
  void set_trace_usage(std::size_t traces_used, bool early_stopped) {
    traces_used_ = traces_used;
    early_stopped_ = early_stopped;
  }

 private:
  std::vector<double> t_per_group_;
  std::vector<bool> measured_;
  double threshold_;
  std::size_t traces_used_ = 0;
  bool early_stopped_ = false;
};

/// Checkpoint observer for budget-enabled campaigns (streaming audits):
/// called once per checkpoint in milestone order with the partial report
/// computed from the merged shard prefix and the traces it covers. Runs
/// under the campaign's merge lock on whichever thread (a drain lane or a
/// remote feeder) completed the milestone's prefix - never concurrently with itself for one campaign. An
/// exception thrown from the observer fails the campaign (the future
/// rethrows it). Ignored when the budget is disabled.
using ProgressFn =
    std::function<void(const LeakageReport& partial, std::size_t traces_done)>;

/// Shard-granular access to a fixed-vs-random campaign - the seam the
/// distributed backend (server/remote.hpp, server/worker.hpp) executes
/// through. A ShardRunner owns exactly the campaign the entry points below
/// build (compiled design, power model, sampling plan, fixed vectors,
/// checkpoint schedule); run_shard(s) is the very function the scheduler
/// runs for shard s, so per-shard moments computed on ANY host merge - in
/// ascending shard order - into a report bit-identical to the single-host
/// entry points.
///
/// The merge belongs to the caller: either hand run_shard, merge,
/// finalize and the checkpoints to engine::Scheduler::submit (as
/// server::WorkerPool does), or merge shard moments ascending by hand,
/// calling evaluate_checkpoint after each prefix listed in
/// checkpoint_shards() (budget-enabled campaigns; a true return stops the
/// merge at that prefix), then finalize() the merged total. run_shard is
/// const and thread-safe; evaluate_checkpoint/finalize are
/// single-threaded.
class ShardRunner {
 public:
  /// Compiles the design once. Throws like the campaign entry points on
  /// invalid configs. `design` and `lib` must outlive the runner.
  ShardRunner(const netlist::Netlist& design, const techlib::TechLibrary& lib,
              const TvlaConfig& config);
  ~ShardRunner();

  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  /// Trace budget in whole batches - the input to engine::ShardPlan::make,
  /// which defines the shard index space run_shard accepts.
  [[nodiscard]] std::size_t batch_count() const;
  /// Shards in the campaign's ShardPlan (pure function of batch_count).
  [[nodiscard]] std::size_t shard_count() const;
  /// The campaign's LPT scheduling weight (simulation-cost proxy).
  [[nodiscard]] std::size_t cost_weight() const;

  /// Runs shard `shard` of the plan into a fresh moments block.
  [[nodiscard]] CampaignMoments run_shard(std::size_t shard) const;
  /// A zeroed moments block with the campaign's group layout.
  [[nodiscard]] CampaignMoments empty_moments() const;

  /// Ascending shard-prefix counts at which evaluate_checkpoint must run
  /// during the ascending merge (empty when the budget is disabled).
  [[nodiscard]] const std::vector<std::size_t>& checkpoint_shards() const;
  /// Early-stop decision on the merged prefix of `shards_merged` shards.
  /// Returns true to stop (the caller finalizes the current total and
  /// discards later shards). Also drives the progress observer.
  [[nodiscard]] bool evaluate_checkpoint(const CampaignMoments& merged,
                                         std::size_t shards_merged);
  /// Installs the per-checkpoint observer (see ProgressFn). Must be set
  /// before the merge loop runs.
  void set_progress(ProgressFn progress);

  /// Computes the final report from the merged total, including budget
  /// trace-usage when an earlier evaluate_checkpoint stopped the campaign.
  [[nodiscard]] LeakageReport finalize(const CampaignMoments& total);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Fixed-vs-random campaign (the protocol used for all paper tables).
/// Compiles the design once (sim::compile) and shares the plan across all
/// shards; see the CompiledDesignPtr overload to reuse a caller-held plan.
[[nodiscard]] LeakageReport run_fixed_vs_random(const netlist::Netlist& design,
                                                const techlib::TechLibrary& lib,
                                                const TvlaConfig& config);

/// Fixed-vs-fixed campaign (known intermediate values).
[[nodiscard]] LeakageReport run_fixed_vs_fixed(const netlist::Netlist& design,
                                               const techlib::TechLibrary& lib,
                                               const TvlaConfig& config);

/// Same campaigns over a pre-compiled execution plan: callers that run
/// several campaigns on one design (or want compile time measured apart
/// from trace time, as bench_fig4_tvla does) compile once and pass the
/// plan. The plan's netlist must outlive the call.
[[nodiscard]] LeakageReport run_fixed_vs_random(sim::CompiledDesignPtr design,
                                                const techlib::TechLibrary& lib,
                                                const TvlaConfig& config);
[[nodiscard]] LeakageReport run_fixed_vs_fixed(sim::CompiledDesignPtr design,
                                               const techlib::TechLibrary& lib,
                                               const TvlaConfig& config);

/// Asynchronous campaigns for multi-design / multi-campaign flows: queue
/// this campaign's shards on a global engine::Scheduler alongside every
/// other pending campaign's. The future becomes ready during
/// Scheduler::drain() and yields a report bit-identical to the synchronous
/// entry point above (tests/test_scheduler.cpp), regardless of thread
/// count, queue interleaving, or submission order. `config.threads` is
/// ignored - the scheduler owns the fan-out. The caller keeps `design` and
/// `lib` alive until the future is ready; campaign-construction errors
/// (e.g. a fixed-vector size mismatch) throw from the submit call itself.
/// `label` names the campaign in the scheduler's live progress table
/// (engine::CampaignProgress) - pure telemetry, never part of the result.
[[nodiscard]] std::future<LeakageReport> submit_fixed_vs_random(
    engine::Scheduler& scheduler, const netlist::Netlist& design,
    const techlib::TechLibrary& lib, const TvlaConfig& config,
    ProgressFn progress = {}, std::string label = {});

[[nodiscard]] std::future<LeakageReport> submit_fixed_vs_fixed(
    engine::Scheduler& scheduler, const netlist::Netlist& design,
    const techlib::TechLibrary& lib, const TvlaConfig& config,
    ProgressFn progress = {}, std::string label = {});

/// Pre-compiled-plan variants of the async entry points (see the
/// run_fixed_vs_random CompiledDesignPtr overload): the caller's plan is
/// shared by every shard instead of compiling in the submit call. The
/// plan's netlist must stay alive until the future is ready.
[[nodiscard]] std::future<LeakageReport> submit_fixed_vs_random(
    engine::Scheduler& scheduler, sim::CompiledDesignPtr design,
    const techlib::TechLibrary& lib, const TvlaConfig& config,
    ProgressFn progress = {}, std::string label = {});

[[nodiscard]] std::future<LeakageReport> submit_fixed_vs_fixed(
    engine::Scheduler& scheduler, sim::CompiledDesignPtr design,
    const techlib::TechLibrary& lib, const TvlaConfig& config,
    ProgressFn progress = {}, std::string label = {});

}  // namespace polaris::tvla
