#include "tvla/tvla.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "engine/scheduler.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "power/power_model.hpp"
#include "power/sample_plan.hpp"
#include "sim/compiled.hpp"
#include "sim/simd.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace polaris::tvla {

using netlist::GateId;
using netlist::NetId;

LeakageReport::LeakageReport(std::vector<double> t_per_group,
                             std::vector<bool> measured, double threshold)
    : t_per_group_(std::move(t_per_group)),
      measured_(std::move(measured)),
      threshold_(threshold) {}

std::size_t LeakageReport::measured_count() const {
  return static_cast<std::size_t>(
      std::count(measured_.begin(), measured_.end(), true));
}

std::vector<GateId> LeakageReport::leaky_groups() const {
  std::vector<GateId> leaky;
  for (GateId g = 0; g < t_per_group_.size(); ++g) {
    if (measured_[g] && std::abs(t_per_group_[g]) > threshold_) leaky.push_back(g);
  }
  std::sort(leaky.begin(), leaky.end(), [this](GateId a, GateId b) {
    return std::abs(t_per_group_[a]) > std::abs(t_per_group_[b]);
  });
  return leaky;
}

std::size_t LeakageReport::leaky_count() const {
  std::size_t count = 0;
  for (GateId g = 0; g < t_per_group_.size(); ++g) {
    if (measured_[g] && std::abs(t_per_group_[g]) > threshold_) ++count;
  }
  return count;
}

double LeakageReport::total_abs_t() const {
  double total = 0.0;
  for (GateId g = 0; g < t_per_group_.size(); ++g) {
    if (measured_[g]) total += std::abs(t_per_group_[g]);
  }
  return total;
}

double LeakageReport::leakage_per_gate() const {
  const std::size_t n = measured_count();
  return n == 0 ? 0.0 : total_abs_t() / static_cast<double>(n);
}

namespace {

enum class Mode { kFixedVsRandom, kFixedVsFixed };

// Stream tags for engine::stream_seed: every random quantity a batch
// consumes is keyed by (campaign seed, batch index, tag), making batches
// independent of execution order and shard placement (see DESIGN.md).
constexpr std::uint64_t kTagStimulus = 0x5354494d554c5553ULL;  // "STIMULUS"
constexpr std::uint64_t kTagClassMask = 0x434c415353ULL;  // "CLASS"
constexpr std::uint64_t kTagMaskShares = 0x52414e44ULL;  // kRand cells

std::vector<bool> derive_fixed_vector(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = (rng() & 1ULL) != 0;
  return bits;
}

/// Out-of-line instantiation point for the blocked readout. The library
/// targets baseline x86-64, where __builtin_popcountll compiles to a
/// multi-op bit-twiddling sequence - and two popcounts per (single op,
/// lane word), fixed-class and total set lanes, dominate the sampling
/// loop. target_clones emits a second clone of this function (template
/// body inlined) compiled with the hardware popcnt instruction and picks
/// it via the loader's ifunc resolver on CPUs that have it: same integer
/// results, no portability loss, no per-call dispatch cost. ThreadSanitizer
/// builds keep only the baseline function: the ifunc resolver runs during
/// relocation, before the TSan runtime is initialized, and crashes the
/// process before main.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("popcnt", "default")))
#endif
void sample_block(const power::SamplePlan& plan,
                  const std::uint64_t* toggle_words, std::size_t lane_words,
                  std::size_t active_words, const std::uint64_t* class_masks,
                  double* lane_sums, CampaignMoments& moments) {
  plan.sample(toggle_words, lane_words, active_words, class_masks, lane_sums,
              moments);
}

/// sim::compile wrapped in telemetry: the once-per-campaign cost the
/// compiled-kernel refactor moved out of the shard loop, now visible as
/// the `tvla.compile_us` histogram and a "compile" span.
sim::CompiledDesignPtr compile_timed(const netlist::Netlist& design) {
  static auto& compile_us =
      obs::Registry::global().histogram("tvla.compile_us");
  obs::Span span("compile", "tvla");
  span.arg("gates", static_cast<std::uint64_t>(design.gate_count()));
  const std::int64_t t0 = obs::now_ns();
  auto compiled = sim::compile(design);
  compile_us.record(static_cast<std::uint64_t>((obs::now_ns() - t0) / 1000));
  return compiled;
}

/// Thin protocol layer: owns the campaign-wide, read-only context (the
/// compiled design plan, power model, sampling plan, fixed vectors) and
/// defines how one shard of traces is stimulated and sampled. The design
/// is compiled ONCE here; every shard's Simulator shares the plan, so
/// per-shard setup never re-runs topological_order() or rebuilds a
/// schedule. Execution and merging belong to engine::Scheduler; all
/// mutable per-shard state lives in a ShardState that dies with its shard.
class Campaign {
 public:
  Campaign(const netlist::Netlist& design, const techlib::TechLibrary& lib,
           const TvlaConfig& config, Mode mode)
      : Campaign(compile_timed(design), lib, config, mode) {}

  Campaign(sim::CompiledDesignPtr compiled, const techlib::TechLibrary& lib,
           const TvlaConfig& config, Mode mode)
      : design_(compiled->design()),
        config_(config),
        mode_(mode),
        compiled_(std::move(compiled)),
        power_(design_, lib),
        plan_(*compiled_, power_) {
    const std::size_t n_inputs = design_.primary_inputs().size();
    fixed_a_ = config.fixed_input.empty()
                   ? derive_fixed_vector(n_inputs, config.seed ^ 0xf1e1dcafeULL)
                   : config.fixed_input;
    fixed_b_ = config.fixed_input_b.empty()
                   ? derive_fixed_vector(n_inputs, config.seed ^ 0xbeefULL)
                   : config.fixed_input_b;
    if (fixed_a_.size() != n_inputs || fixed_b_.size() != n_inputs) {
      throw std::invalid_argument("TVLA fixed vector size mismatch");
    }
    if (!config.input_class.empty() && config.input_class.size() != n_inputs) {
      throw std::invalid_argument("TVLA input_class size mismatch");
    }
    if (config.lane_words != 0 && !sim::valid_lane_words(config.lane_words)) {
      throw std::invalid_argument("TvlaConfig.lane_words must be 1, 2, 4, or 8");
    }
    sequential_ = design_has_dff();
    if (config.budget.enabled && config.budget.min_traces == 0) {
      throw std::invalid_argument(
          "TvlaBudget.min_traces must be positive when enabled");
    }
    // Sequential campaigns stay at one word per pass: a K-batch lockstep
    // would push samples cycle-major across batches instead of the
    // batch-major order the moment accumulators saw pre-blocking, breaking
    // float bit-identity. The Simulator itself supports K > 1 on
    // sequential designs (oracle-tested); only the campaign protocol pins
    // the width.
    lane_words_ = sequential_ ? 1
                              : (config.lane_words != 0
                                     ? config.lane_words
                                     : sim::default_lane_words());
    shard_plan_ = engine::ShardPlan::make(batch_count());
    if (config_.budget.enabled) build_checkpoint_schedule();

    // Telemetry only (never serialized, never fingerprinted): campaign
    // count/trace budget counters, and an async trace span that follows
    // the campaign across whichever threads run its shards. The span
    // closes in finalize().
    static auto& campaigns =
        obs::Registry::global().counter("tvla.campaigns");
    static auto& traces = obs::Registry::global().counter("tvla.traces");
    campaigns.add();
    traces.add(config_.traces);
    auto& tracer = obs::Tracer::global();
    if (tracer.enabled()) {
      trace_id_ = obs::Tracer::next_async_id();
      obs::TraceArgs args;
      args.add("gates", static_cast<std::uint64_t>(design_.gate_count()))
          .add("traces", static_cast<std::uint64_t>(config_.traces))
          .add("lane_words", static_cast<std::uint64_t>(lane_words_))
          .add("simd", sim::simd_name(lane_words_))
          .add("sequential", sequential_)
          .add("mode", mode_ == Mode::kFixedVsRandom ? "fixed-vs-random"
                                                     : "fixed-vs-fixed");
      tracer.async_begin("campaign", "tvla", trace_id_, std::move(args).str());
    }
  }

  [[nodiscard]] const engine::ShardPlan& shard_plan() const {
    return shard_plan_;
  }

  /// Traces one batch contributes (sequential designs pack
  /// 64 * cycles_per_batch samples per batch).
  [[nodiscard]] std::size_t samples_per_batch() const {
    return sequential_ ? sim::kLanes * config_.cycles_per_batch : sim::kLanes;
  }

  /// Trace budget in whole 64-lane batches.
  [[nodiscard]] std::size_t batch_count() const {
    const std::size_t per_batch = samples_per_batch();
    return config_.traces == 0
               ? 0
               : (config_.traces + per_batch - 1) / per_batch;
  }

  /// Scheduler priority: a proxy for the campaign's simulation cost, so the
  /// global queue drains heavier campaigns first (LPT order).
  [[nodiscard]] std::size_t cost_weight() const {
    const std::size_t cycles = sequential_ ? config_.cycles_per_batch : 1;
    return batch_count() * cycles * std::max<std::size_t>(1, design_.gate_count());
  }

  /// Synchronous entry point: a private Scheduler drained on the calling
  /// thread, so every campaign runs through the one scheduler path.
  static LeakageReport run(std::shared_ptr<Campaign> self) {
    engine::Scheduler scheduler(self->config_.threads);
    auto future = submit(std::move(self), scheduler);
    scheduler.drain();
    return future.get();
  }

  /// Installs the per-checkpoint observer (streaming audits). Must be set
  /// before submit()/run().
  void set_progress(ProgressFn progress) { progress_ = std::move(progress); }

  /// Names the campaign in the scheduler's live progress table. Telemetry
  /// only - never serialized, never part of the report.
  void set_label(std::string label) { label_ = std::move(label); }

  /// Queues this campaign on the global scheduler. `self` keeps the
  /// campaign (and its power model / group layout) alive inside the shard
  /// closures until the last shard finalized the report. Budget-disabled
  /// campaigns have no milestones, so their checkpoint never runs.
  static std::future<LeakageReport> submit(std::shared_ptr<Campaign> self,
                                           engine::Scheduler& scheduler) {
    return scheduler.submit<CampaignMoments>(
        self->batch_count(),
        [self](std::size_t shard) { return self->run_shard_moments(shard); },
        [](CampaignMoments& into, CampaignMoments&& from) { into.merge(from); },
        [self](CampaignMoments&& total) { return self->finalize(total); },
        self->cost_weight(), self->label_, self->checkpoint_shards_,
        [self](const CampaignMoments& merged, std::size_t shards_merged) {
          return self->evaluate_checkpoint(merged, shards_merged);
        });
  }

  /// Runs shard `shard` of the campaign's ShardPlan into a fresh moments
  /// block: lane blocks of up to lane_words_ consecutive batches,
  /// re-anchored at the shard begin, the last one short when the range is
  /// not a multiple of the width - so the ShardPlan (and every merge
  /// point) is the same at every width. The shard's simulator and scratch
  /// die here; only the moments travel on to the merge, whichever
  /// scheduler, thread count, or host ran the shard.
  [[nodiscard]] CampaignMoments run_shard_moments(std::size_t shard) const {
    ShardState state = make_shard_state();
    const std::size_t end = shard_plan_.end(shard);
    for (std::size_t b = shard_plan_.begin(shard); b < end; b += lane_words_) {
      run_block(state, b, std::min(lane_words_, end - b));
    }
    return std::move(state.moments);
  }

  [[nodiscard]] const std::vector<std::size_t>& checkpoint_shards() const {
    return checkpoint_shards_;
  }
  /// A zeroed moments block with the campaign's group layout.
  [[nodiscard]] CampaignMoments empty_moments() const {
    return CampaignMoments(plan_.group_count(), plan_.multi_group_count());
  }

 private:
  /// Everything one shard mutates while it runs: its own K-word simulator,
  /// one per-batch stimulus stream and class mask per lane word, the
  /// mergeable statistics, and the per-(word, lane) group energy scratch
  /// (the fused power accumulation - no per-lane power vector is ever
  /// materialized).
  struct ShardState {
    sim::Simulator simulator;
    std::vector<util::Xoshiro256> stimulus;   // one stream per lane word
    std::vector<std::uint64_t> class_masks;   // per-word fixed-class mask
    CampaignMoments moments;
    std::vector<double> lane_sums;
  };

  /// Fixed trace milestones (min_traces, 2x, 4x, ... strictly below the
  /// full budget), each rounded UP to the next shard boundary of the same
  /// ShardPlan the execution uses - a pure function of the batch count and
  /// the budget floor, so the schedule (and with it every stop decision)
  /// is independent of threads and lane_words.
  void build_checkpoint_schedule() {
    const engine::ShardPlan& plan = shard_plan_;
    if (plan.shard_count <= 1) return;
    const std::size_t per_batch = samples_per_batch();
    const std::size_t total = plan.total_batches * per_batch;
    std::size_t target = config_.budget.min_traces;
    for (std::size_t s = 1; s < plan.shard_count && target < total; ++s) {
      const std::size_t covered = plan.end(s - 1) * per_batch;
      if (covered < target) continue;
      checkpoint_shards_.push_back(s);
      // Advance to the smallest power-of-two multiple of the floor that
      // this prefix does NOT already cover.
      while (target <= covered && target < total) {
        target = target > total / 2 ? total : target * 2;
      }
    }
  }

 public:
  /// The two-sided decision rule, evaluated on the merged shard prefix at
  /// one milestone (see TvlaBudget). Returns true to stop the campaign.
  bool evaluate_checkpoint(const CampaignMoments& moments,
                           std::size_t shards_merged) {
    static auto& checkpoint_us =
        obs::Registry::global().histogram("tvla.checkpoint_us");
    obs::Span span("checkpoint", "tvla");
    const std::int64_t t0 = obs::now_ns();
    const engine::ShardPlan& plan = shard_plan_;
    const std::size_t traces_done =
        plan.end(shards_merged - 1) * samples_per_batch();
    const std::size_t total = plan.total_batches * samples_per_batch();
    std::vector<double> t;
    std::vector<bool> measured;
    compute_t(moments, t, measured);
    const double projection =
        std::sqrt(static_cast<double>(total) / static_cast<double>(traces_done));
    const double margin = config_.budget.margin;
    // Asymmetric campaign verdict (see TvlaBudget): one confidently leaky
    // group fails the design outright, while a clean verdict must rule out
    // every measured group.
    bool any_leaky = false;
    bool all_clean = true;
    for (GateId grp = 0; grp < t.size(); ++grp) {
      if (!measured[grp]) continue;
      const double abs_t = std::abs(t[grp]);
      if (abs_t > config_.threshold + margin) {
        any_leaky = true;
        break;
      }
      if (!(abs_t * projection < config_.threshold - margin)) {
        all_clean = false;
      }
    }
    const bool all_decided = any_leaky || all_clean;
    if (progress_) {
      LeakageReport partial(std::move(t), std::move(measured),
                            config_.threshold);
      partial.set_trace_usage(traces_done, false);
      progress_(partial, traces_done);
    }
    if (all_decided) {
      stopped_ = true;
      traces_used_ = traces_done;
    }
    span.arg("traces", static_cast<std::uint64_t>(traces_done))
        .arg("stop", static_cast<std::uint64_t>(all_decided ? 1 : 0));
    checkpoint_us.record(
        static_cast<std::uint64_t>((obs::now_ns() - t0) / 1000));
    return all_decided;
  }

 private:
  [[nodiscard]] ShardState make_shard_state() const {
    return ShardState{
        sim::Simulator(compiled_, /*seed=*/0, lane_words_),
        std::vector<util::Xoshiro256>(lane_words_, util::Xoshiro256(0)),
        std::vector<std::uint64_t>(lane_words_, 0),
        CampaignMoments(plan_.group_count(), plan_.multi_group_count()),
        std::vector<double>(
            plan_.multi_group_count() * lane_words_ * sim::kLanes, 0.0)};
  }

  [[nodiscard]] bool design_has_dff() const {
    for (const auto& gate : design_.gates()) {
      if (gate.type == netlist::CellType::kDff) return true;
    }
    return false;
  }

  [[nodiscard]] InputClass input_class(std::size_t pi_index) const {
    return config_.input_class.empty() ? InputClass::kSensitive
                                       : config_.input_class[pi_index];
  }

  /// Pre-transition state: every trace starts from a fresh random vector on
  /// data-like inputs; fixed-common inputs (the key) hold their fixed value
  /// even between traces, as a loaded key register would. Inputs outer,
  /// lane words inner: each word's stimulus stream draws in the same
  /// input-ascending order the one-word path used.
  void apply_base_inputs(ShardState& state, std::size_t words) const {
    const auto& inputs = design_.primary_inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (input_class(i) == InputClass::kFixedCommon) {
        const std::uint64_t word = fixed_a_[i] ? ~0ULL : 0ULL;
        for (std::size_t w = 0; w < words; ++w) {
          state.simulator.set_input_word(i, w, word);
        }
      } else {
        for (std::size_t w = 0; w < words; ++w) {
          state.simulator.set_input_word(i, w, state.stimulus[w]());
        }
      }
    }
  }

  void apply_target_inputs(ShardState& state, std::size_t words) const {
    const auto& inputs = design_.primary_inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::uint64_t a = fixed_a_[i] ? ~0ULL : 0ULL;
      const std::uint64_t b = fixed_b_[i] ? ~0ULL : 0ULL;
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t fixed_mask = state.class_masks[w];
        std::uint64_t word = 0;
        switch (input_class(i)) {
          case InputClass::kSensitive:
            word = (mode_ == Mode::kFixedVsRandom)
                       ? (a & fixed_mask) |
                             (state.stimulus[w]() & ~fixed_mask)
                       : (a & fixed_mask) | (b & ~fixed_mask);
            break;
          case InputClass::kFixedCommon:
            word = a;
            break;
          case InputClass::kRandomCommon:
            word = state.stimulus[w]();
            break;
        }
        state.simulator.set_input_word(i, w, word);
      }
    }
  }

  /// One lane block of `words` consecutive batches, each fully keyed by
  /// its global index: lane word w carries batch batch_begin + w, with
  /// stimulus stream, class mask, and mask-share randomness all derived
  /// from (seed, batch_begin + w) - exactly the streams that batch
  /// consumed when it ran alone, so any block width, shard, or thread
  /// reproduces it bit-identically. Tail blocks (words < lane_words_)
  /// evaluate the full simulator width but only seed and sample the
  /// leading `words` lane words.
  void run_block(ShardState& state, std::size_t batch_begin,
                 std::size_t words) const {
    // One relaxed add per lane block (~64*words traces), NOT per trace:
    // live throughput (traces/s via interval deltas) at the documented
    // shard/block instrumentation granularity, never the kernel loop.
    static auto& traces_run =
        obs::Registry::global().counter("tvla.traces_run");
    traces_run.add(static_cast<std::uint64_t>(words) * samples_per_batch());
    for (std::size_t w = 0; w < words; ++w) {
      const auto index = static_cast<std::uint64_t>(batch_begin + w);
      state.stimulus[w] = util::Xoshiro256(
          engine::stream_seed(config_.seed, index, kTagStimulus));
      state.class_masks[w] =
          engine::stream_seed(config_.seed, index, kTagClassMask);
    }

    if (sequential_) {  // lane_words_ == 1: one batch per block
      state.simulator.reset(
          engine::stream_seed(config_.seed, batch_begin, kTagMaskShares));
      for (std::size_t cycle = 0;
           cycle < config_.warmup_cycles + config_.cycles_per_batch; ++cycle) {
        apply_target_inputs(state, words);
        state.simulator.eval();
        if (cycle >= config_.warmup_cycles) sample(state, words);
        state.simulator.latch();
      }
      return;
    }

    for (std::size_t w = 0; w < words; ++w) {
      state.simulator.reseed_word(
          w, engine::stream_seed(config_.seed,
                                 static_cast<std::uint64_t>(batch_begin + w),
                                 kTagMaskShares));
    }
    apply_base_inputs(state, words);
    // Base state: never sampled, so skip toggle recording - the target
    // eval recomputes every gate's toggle (base -> target) from values.
    state.simulator.eval(/*record_toggles=*/false);
    apply_target_inputs(state, words);
    state.simulator.eval();
    sample(state, words);
  }

  /// Fused toggle/energy readout of the block via the compiled sampling
  /// plan (power::SamplePlan::sample): singles feed the binary counters,
  /// multi members accumulate pre-resolved energies per (word, lane) in
  /// ascending-GateId order, and per-group samples are pushed word-major -
  /// the accumulation-order contract that keeps every t-stat bit-identical
  /// to the one-word path.
  void sample(ShardState& state, std::size_t words) const {
    sample_block(plan_, state.simulator.toggle_words(), lane_words_, words,
                 state.class_masks.data(), state.lane_sums.data(),
                 state.moments);
  }

  /// Per-group Welch t from (possibly partial) campaign moments - the one
  /// math path both the final report and every checkpoint evaluate, so a
  /// stop decision is made on exactly the numbers the report would show.
  void compute_t(const CampaignMoments& moments, std::vector<double>& t,
                 std::vector<bool>& measured) const {
    const double noise_var = config_.noise_std_fj * config_.noise_std_fj;
    t.assign(plan_.group_count(), 0.0);
    measured = plan_.group_measured();
    for (GateId grp = 0; grp < plan_.group_count(); ++grp) {
      if (!measured[grp]) continue;
      const std::uint32_t multi = plan_.group_multi_index(grp);
      if (multi == power::SamplePlan::kNotMulti) {
        t[grp] = welch_t_binary_energy(
                     moments.n_fixed(), moments.single_ones_fixed(grp),
                     moments.n_random(), moments.single_ones_random(grp),
                     plan_.single_energy(grp), noise_var)
                     .t;
      } else {
        t[grp] = welch_t(moments.multi_fixed(multi),
                         moments.multi_random(multi), noise_var)
                     .t;
      }
    }
  }

 public:
  LeakageReport finalize(const CampaignMoments& moments) {
    std::vector<double> t;
    std::vector<bool> measured;
    compute_t(moments, t, measured);
    if (trace_id_ != 0) {
      obs::Tracer::global().async_end("campaign", "tvla", trace_id_);
    }
    LeakageReport report(std::move(t), std::move(measured),
                         config_.threshold);
    if (config_.budget.enabled) {
      // `stopped_`/`traces_used_` were written under the campaign merge
      // lock; the finisher thread observed the last shard's decrement
      // under the scheduler mutex, which those writes happen-before.
      static auto& traces_saved =
          obs::Registry::global().counter("tvla.traces_saved");
      const std::size_t full = batch_count() * samples_per_batch();
      const std::size_t used = stopped_ ? traces_used_ : full;
      report.set_trace_usage(used, stopped_);
      traces_saved.add(full - used);
    }
    return report;
  }

 private:
  const netlist::Netlist& design_;
  TvlaConfig config_;
  Mode mode_;
  sim::CompiledDesignPtr compiled_;
  power::PowerModel power_;
  power::SamplePlan plan_;
  bool sequential_ = false;
  std::size_t lane_words_ = 1;
  engine::ShardPlan shard_plan_;
  std::uint64_t trace_id_ = 0;  // async span id; 0 = tracing was off
  std::vector<bool> fixed_a_, fixed_b_;
  // Early-stop state (budget-enabled campaigns only). The schedule is
  // fixed at construction; stopped_/traces_used_ are written by at most
  // one checkpoint (under the scheduler's campaign merge lock) and read
  // by finalize() after the last shard's publication.
  std::vector<std::size_t> checkpoint_shards_;  // ascending prefix counts
  std::string label_;  // progress-table name (empty = unnamed)
  ProgressFn progress_;
  bool stopped_ = false;
  std::size_t traces_used_ = 0;
};

}  // namespace

LeakageReport run_fixed_vs_random(const netlist::Netlist& design,
                                  const techlib::TechLibrary& lib,
                                  const TvlaConfig& config) {
  return Campaign::run(
      std::make_shared<Campaign>(design, lib, config, Mode::kFixedVsRandom));
}

LeakageReport run_fixed_vs_fixed(const netlist::Netlist& design,
                                 const techlib::TechLibrary& lib,
                                 const TvlaConfig& config) {
  return Campaign::run(
      std::make_shared<Campaign>(design, lib, config, Mode::kFixedVsFixed));
}

LeakageReport run_fixed_vs_random(sim::CompiledDesignPtr design,
                                  const techlib::TechLibrary& lib,
                                  const TvlaConfig& config) {
  return Campaign::run(std::make_shared<Campaign>(std::move(design), lib,
                                                  config,
                                                  Mode::kFixedVsRandom));
}

LeakageReport run_fixed_vs_fixed(sim::CompiledDesignPtr design,
                                 const techlib::TechLibrary& lib,
                                 const TvlaConfig& config) {
  return Campaign::run(std::make_shared<Campaign>(std::move(design), lib,
                                                  config,
                                                  Mode::kFixedVsFixed));
}

namespace {
std::future<LeakageReport> submit_campaign(std::shared_ptr<Campaign> campaign,
                                           engine::Scheduler& scheduler,
                                           ProgressFn progress,
                                           std::string label) {
  campaign->set_progress(std::move(progress));
  campaign->set_label(std::move(label));
  return Campaign::submit(std::move(campaign), scheduler);
}
}  // namespace

std::future<LeakageReport> submit_fixed_vs_random(
    engine::Scheduler& scheduler, const netlist::Netlist& design,
    const techlib::TechLibrary& lib, const TvlaConfig& config,
    ProgressFn progress, std::string label) {
  return submit_campaign(
      std::make_shared<Campaign>(design, lib, config, Mode::kFixedVsRandom),
      scheduler, std::move(progress), std::move(label));
}

std::future<LeakageReport> submit_fixed_vs_fixed(
    engine::Scheduler& scheduler, const netlist::Netlist& design,
    const techlib::TechLibrary& lib, const TvlaConfig& config,
    ProgressFn progress, std::string label) {
  return submit_campaign(
      std::make_shared<Campaign>(design, lib, config, Mode::kFixedVsFixed),
      scheduler, std::move(progress), std::move(label));
}

std::future<LeakageReport> submit_fixed_vs_random(
    engine::Scheduler& scheduler, sim::CompiledDesignPtr design,
    const techlib::TechLibrary& lib, const TvlaConfig& config,
    ProgressFn progress, std::string label) {
  return submit_campaign(std::make_shared<Campaign>(std::move(design), lib,
                                                    config,
                                                    Mode::kFixedVsRandom),
                         scheduler, std::move(progress), std::move(label));
}

std::future<LeakageReport> submit_fixed_vs_fixed(
    engine::Scheduler& scheduler, sim::CompiledDesignPtr design,
    const techlib::TechLibrary& lib, const TvlaConfig& config,
    ProgressFn progress, std::string label) {
  return submit_campaign(std::make_shared<Campaign>(std::move(design), lib,
                                                    config,
                                                    Mode::kFixedVsFixed),
                         scheduler, std::move(progress), std::move(label));
}

// --- ShardRunner -------------------------------------------------------------

struct ShardRunner::Impl {
  std::shared_ptr<Campaign> campaign;
};

ShardRunner::ShardRunner(const netlist::Netlist& design,
                         const techlib::TechLibrary& lib,
                         const TvlaConfig& config)
    : impl_(std::make_unique<Impl>()) {
  impl_->campaign =
      std::make_shared<Campaign>(design, lib, config, Mode::kFixedVsRandom);
}

ShardRunner::~ShardRunner() = default;

std::size_t ShardRunner::batch_count() const {
  return impl_->campaign->batch_count();
}

std::size_t ShardRunner::shard_count() const {
  return impl_->campaign->shard_plan().shard_count;
}

std::size_t ShardRunner::cost_weight() const {
  return impl_->campaign->cost_weight();
}

CampaignMoments ShardRunner::run_shard(std::size_t shard) const {
  return impl_->campaign->run_shard_moments(shard);
}

CampaignMoments ShardRunner::empty_moments() const {
  return impl_->campaign->empty_moments();
}

const std::vector<std::size_t>& ShardRunner::checkpoint_shards() const {
  return impl_->campaign->checkpoint_shards();
}

bool ShardRunner::evaluate_checkpoint(const CampaignMoments& merged,
                                      std::size_t shards_merged) {
  return impl_->campaign->evaluate_checkpoint(merged, shards_merged);
}

void ShardRunner::set_progress(ProgressFn progress) {
  impl_->campaign->set_progress(std::move(progress));
}

LeakageReport ShardRunner::finalize(const CampaignMoments& total) {
  return impl_->campaign->finalize(total);
}

}  // namespace polaris::tvla
