// Shard scheduler: the one executor every TVLA campaign runs through.
//
// A campaign is a ShardPlan over its batch range plus callables:
// run_shard(shard) -> State, merge, finalize and optional early-stop
// checkpoints. submit() queues the campaign's shards in ONE priority queue
// shared by every pending campaign, and drain() executes them on the shared
// ThreadPool. Heavier campaigns' shards pop first (LPT order), so short
// campaigns fill the stragglers' idle lanes instead of queueing behind
// them. A synchronous campaign (tvla::run_*) is a private Scheduler plus
// drain(). A distributed audit (server::WorkerPool) adds remote executors:
// their feeders claim() runs of queued shards, ship them to workers, and
// deposit() the returned states into the same merge a local shard feeds.
//
// Determinism contract (tested in tests/test_scheduler.cpp): a campaign's
// result is bit-identical at every thread count, queue interleaving, and
// submission order, because
//  * the ShardPlan is a pure function of the batch count;
//  * every batch derives its randomness from stream_seed(seed, batch, tag),
//    so execution placement cannot change a batch's samples;
//  * shard states join one ascending incremental merge under the
//    campaign's merge lock - the float op sequence is fixed, whichever
//    thread or host produced each state.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/thread_pool.hpp"

namespace polaris::engine {

/// Expands (seed, index, tag) into an independent 64-bit stream seed via
/// two rounds of splitmix64-style mixing. Distinct (index, tag) pairs give
/// uncorrelated child streams; feeding the result to util::Xoshiro256 (whose
/// constructor runs its own splitmix expansion) yields the per-batch
/// generators used by the TVLA protocol layer.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index,
                                        std::uint64_t tag) noexcept;

/// Contiguous partition of [0, total_batches) into shards. Pure function of
/// the batch count: thread count never changes shard boundaries.
struct ShardPlan {
  std::size_t total_batches = 0;
  std::size_t shard_count = 0;
  std::size_t batches_per_shard = 0;  // every shard except possibly the last

  [[nodiscard]] static ShardPlan make(std::size_t total_batches);

  [[nodiscard]] std::size_t begin(std::size_t shard) const {
    return shard * batches_per_shard;
  }
  [[nodiscard]] std::size_t end(std::size_t shard) const {
    const std::size_t e = begin(shard) + batches_per_shard;
    return e < total_batches ? e : total_batches;
  }
};

/// Target shard granularity: enough shards to load-balance a wide machine,
/// few enough that per-shard simulator construction stays negligible. The
/// minimum keeps short campaigns (notably sequential designs, whose batches
/// each carry 64 * cycles_per_batch samples) parallel down to one batch per
/// shard instead of collapsing to a serial plan.
inline constexpr std::size_t kTargetBatchesPerShard = 4;
inline constexpr std::size_t kMinShardsPerCampaign = 16;
inline constexpr std::size_t kMaxShardsPerCampaign = 64;

/// One row of Scheduler::progress(): a campaign that has been submitted
/// but not yet finalized, described entirely from state the scheduler
/// already tracks under its mutex. Plain data, safe to ship to a client.
struct CampaignProgress {
  std::string label;            // submit-time label ("" when none given)
  std::uint64_t sequence = 0;   // submission order (unique per scheduler)
  std::size_t shards_done = 0;  // shards retired (executed or skipped)
  std::size_t shards_total = 0;
  /// Rank in the LPT pop order among the currently active campaigns
  /// (0 = drains first). Recomputed per call - it shifts as heavier
  /// campaigns arrive.
  std::size_t queue_position = 0;
  std::uint64_t age_us = 0;  // since submit
  bool stopped = false;      // an early-stop checkpoint decided it
};

class Scheduler {
  struct CampaignTask;

 public:
  /// A run of consecutive queued shards [begin, end) of one campaign, taken
  /// out of the queue by claim() for an external executor. Every claimed
  /// shard must come back exactly once, through deposit() or release().
  struct Claim {
    std::uint64_t sequence = 0;  // the campaign's submission sequence
    std::size_t begin = 0;
    std::size_t end = 0;
    std::shared_ptr<CampaignTask> campaign;
  };

  /// `threads` caps the drain fan-out: 0 = all hardware threads, 1 = fully
  /// serial (drain runs every shard inline, in strict priority order).
  explicit Scheduler(std::size_t threads = 0)
      : threads_(ThreadPool::resolve_threads(threads)) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Registers a campaign and queues its shards. Returns a future for the
  /// finalized result; the future becomes ready during drain(), when the
  /// ascending merge has covered the campaign's last shard (or a checkpoint
  /// stopped it).
  ///
  ///   run_shard(shard)  -> State   (the shard's batches, from scratch)
  ///   merge(into, from) ->         (ascending shard order)
  ///   finalize(state)   -> Result  (runs once)
  ///
  /// `weight` orders the queue (heavier campaigns drain first); 0 uses the
  /// batch count. An exception from any callable fails only this campaign:
  /// its remaining shards are skipped and the future rethrows on get().
  /// Zero-batch campaigns finalize run_shard(0) - shard 0 of an empty plan
  /// covers no batch - inline and return a ready future. Sequences count
  /// every submit from 0, zero-batch campaigns included.
  ///
  /// Every shard state joins ONE ascending incremental merge as soon as its
  /// predecessors have: shard 0 seeds the total and shard k merges into it
  /// once shards [0, k) have. Only out-of-order states wait in their slots,
  /// and a merged state is freed at once, so a campaign holds a handful of
  /// states rather than one per shard. `checkpoints` is an optional
  /// ascending list of shard prefix counts; each time the merge has
  /// covered the first `c` shards, `checkpoint(merged, c)` runs exactly
  /// once (under the campaign's merge lock, so checkpoints never race each
  /// other). Returning true STOPS the campaign: the merge ceiling freezes
  /// at `c`, so the result is finalized from exactly the first `c` shards -
  /// shards that were already running keep going but their states are
  /// discarded, and the campaign's unstarted shards are skipped when
  /// popped, which hands their pool slots straight to the undecided
  /// campaigns behind them in the LPT queue. Without checkpoints a
  /// campaign never stops early.
  ///
  /// Determinism: milestones are shard prefix counts computed from the
  /// same pure ShardPlan, the merge is strictly ascending, and a stop
  /// decision freezes the ceiling before any out-of-order state can join -
  /// so stop decisions AND finalized results are bit-identical at every
  /// thread count.
  template <class State, class RunShard, class Merge, class Finalize,
            class Result = std::invoke_result_t<Finalize&, State&&>>
  std::future<Result> submit(
      std::size_t total_batches, RunShard run_shard, Merge merge,
      Finalize finalize, std::size_t weight = 0, std::string label = {},
      std::vector<std::size_t> checkpoints = {},
      std::function<bool(const State&, std::size_t)> checkpoint = nullptr) {
    auto campaign = std::make_shared<
        TypedCampaign<State, Result, RunShard, Merge, Finalize>>(
        std::move(run_shard), std::move(merge), std::move(finalize));
    campaign->plan = ShardPlan::make(total_batches);
    campaign->weight = weight == 0 ? total_batches : weight;
    campaign->label = std::move(label);
    campaign->checkpoint = std::move(checkpoint);
    campaign->checkpoint_shards = std::move(checkpoints);
    campaign->stop_at = campaign->plan.shard_count;
    campaign->states.resize(campaign->plan.shard_count);
    campaign->remaining = campaign->plan.shard_count;
    std::future<Result> future = campaign->promise.get_future();
    enqueue(campaign);
    if (campaign->plan.shard_count == 0) campaign->finish();
    return future;
  }

  /// Takes up to `max_shards` consecutive queued shards of the campaign at
  /// the head of the LPT queue; nullopt when the queue is empty. Shards of
  /// a campaign a checkpoint already stopped are retired on the way, never
  /// handed out. drain() keeps waiting while claimed shards are out.
  [[nodiscard]] std::optional<Claim> claim(std::size_t max_shards);

  /// Feeds the state of claimed shard `shard` (begin <= shard < end, each
  /// once) into its campaign's ascending merge and checkpoints, exactly as
  /// a shard run by drain() would. `State` is the campaign's state type.
  template <class State>
  void deposit(const Claim& claim, std::size_t shard, State state) {
    static_cast<StateCampaign<State>&>(*claim.campaign)
        .deposit(shard, std::move(state));
    retire(claim.campaign, 1);
  }

  /// Returns a claim's shards to the queue (a lost or failed remote
  /// chunk); drain() then runs them locally or hands them out again.
  void release(const Claim& claim);

  /// Executes every queued shard on the shared pool (the calling thread
  /// participates) and returns once all submitted campaigns have finished.
  /// Shards submitted while draining are included; while claimed shards
  /// are out, drain() waits on a condition variable for them to be
  /// deposited or released. Safe to call from inside a pool job: the
  /// fan-out then runs inline (see ThreadPool).
  void drain();

  /// Shards still queued (not yet popped or claimed). Test/bench hook.
  [[nodiscard]] std::size_t pending_shards() const;

  /// Per-campaign progress table of every submitted-but-unfinalized
  /// campaign, in submission order. Built from state the scheduler already
  /// tracks under its mutex - no extra bookkeeping on the shard hot path.
  /// Safe to call from any thread, including from inside a running shard
  /// (run_shard holds no scheduler lock).
  [[nodiscard]] std::vector<CampaignProgress> progress() const;

 private:
  /// Type-erased campaign control block. `remaining` is guarded by the
  /// scheduler mutex; the merge state is guarded by the campaign's merge
  /// mutex and read by the finisher after the last decrement, so the
  /// mutex ordering publishes it.
  struct CampaignTask {
    virtual ~CampaignTask() = default;
    /// Runs one shard and feeds its state to the merge. Never throws:
    /// failures are captured into the campaign and surface via the future.
    virtual void run_shard(std::size_t shard) noexcept = 0;
    /// Finalizes the merged total and fulfills the promise. Called exactly
    /// once, after the last shard retired.
    virtual void finish() noexcept = 0;

    ShardPlan plan;
    std::size_t weight = 0;
    std::uint64_t sequence = 0;  // submission order, the priority tie-break
    std::size_t remaining = 0;   // shards not yet retired
    std::int64_t enqueue_ns = 0;  // obs timebase; makespan = finish - this
    std::string label;            // progress-table identity (may be empty)
    /// Set once when a checkpoint decides the campaign: run_next skips the
    /// shard body for this campaign from then on (the decrement/finish
    /// bookkeeping still runs, so the future still completes). Skipping is
    /// an optimization only - a shard that slips through before the flag
    /// is visible wastes work but cannot change the result, because the
    /// merge ceiling (`stop_at`) froze under the merge lock.
    std::atomic<bool> cancelled{false};
  };

  /// The typed seam deposit() reaches a campaign through.
  template <class State>
  struct StateCampaign : CampaignTask {
    /// Feeds one shard state to the merge. Never throws (see run_shard).
    virtual void deposit(std::size_t shard, State state) noexcept = 0;
  };

  template <class State, class Result, class RunShard, class Merge,
            class Finalize>
  struct TypedCampaign final : StateCampaign<State> {
    TypedCampaign(RunShard run, Merge merge, Finalize finalize)
        : run(std::move(run)),
          merge(std::move(merge)),
          finalize(std::move(finalize)) {}

    void run_shard(std::size_t shard) noexcept override {
      if (failed.load(std::memory_order_relaxed)) return;  // doomed campaign
      try {
        accept(shard, run(shard));
      } catch (...) {
        fail(std::current_exception());
      }
    }

    void deposit(std::size_t shard, State state) noexcept override {
      if (failed.load(std::memory_order_relaxed)) return;
      try {
        accept(shard, std::move(state));
      } catch (...) {
        fail(std::current_exception());
      }
    }

    /// Publishes one shard state under the merge lock (other threads read
    /// the slots below) and advances the ascending merge cursor, firing
    /// each milestone exactly once as it is crossed.
    void accept(std::size_t shard, State state) {
      const std::lock_guard<std::mutex> merge_lock(merge_mutex);
      states[shard].emplace(std::move(state));
      while (merged_upto < stop_at && states[merged_upto].has_value()) {
        if (merged_upto == 0) {
          merged.emplace(std::move(*states[0]));
        } else {
          merge(*merged, std::move(*states[merged_upto]));
        }
        states[merged_upto].reset();
        ++merged_upto;
        if (checkpoint && next_checkpoint < checkpoint_shards.size() &&
            merged_upto == checkpoint_shards[next_checkpoint]) {
          ++next_checkpoint;
          if (checkpoint(*merged, merged_upto)) {
            stop_at = merged_upto;  // freeze: no later state ever merges
            this->cancelled.store(true, std::memory_order_relaxed);
            break;
          }
        }
      }
    }

    void fail(std::exception_ptr failure) noexcept {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::move(failure);
      failed.store(true, std::memory_order_relaxed);
    }

    void finish() noexcept override {
      try {
        if (error) std::rethrow_exception(error);
        if (states.empty()) {  // zero-batch campaign
          promise.set_value(finalize(run(0)));
          return;
        }
        // `merged` holds the ascending merge of shards [0, stop_at);
        // anything later was skipped or discarded. The finisher saw the
        // last remaining-decrement under the scheduler mutex, which the
        // merging threads' writes happen-before.
        promise.set_value(finalize(std::move(*merged)));
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
    }

    RunShard run;
    Merge merge;
    Finalize finalize;
    std::vector<std::optional<State>> states;
    std::promise<Result> promise;
    std::mutex error_mutex;
    std::exception_ptr error;
    std::atomic<bool> failed{false};
    std::function<bool(const State&, std::size_t)> checkpoint;  // optional
    std::vector<std::size_t> checkpoint_shards;  // ascending prefix counts
    std::mutex merge_mutex;       // guards merged/merged_upto/states below
    std::optional<State> merged;  // ascending merge of shards [0, merged_upto)
    std::size_t merged_upto = 0;
    std::size_t next_checkpoint = 0;
    std::size_t stop_at = 0;  // merge ceiling; lowered once on a stop
  };

  struct QueueEntry {
    std::shared_ptr<CampaignTask> campaign;
    std::size_t shard = 0;
  };
  /// Max-heap order: heavier campaign first (LPT), then submission order,
  /// then ascending shard - a deterministic total order, so serial drains
  /// execute an identical schedule every run.
  struct EntryOrder {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.campaign->weight != b.campaign->weight) {
        return a.campaign->weight < b.campaign->weight;
      }
      if (a.campaign->sequence != b.campaign->sequence) {
        return a.campaign->sequence > b.campaign->sequence;
      }
      return a.shard > b.shard;
    }
  };

  void enqueue(const std::shared_ptr<CampaignTask>& campaign);
  /// Pops and executes one shard, then retires it. Returns false when the
  /// queue was empty.
  bool run_next();
  /// Counts `shards` of `campaign` as done (executed, deposited, or
  /// skipped) - `claimed` of them returned from a claim - and runs the
  /// campaign's finish() if they were its last.
  void retire(const std::shared_ptr<CampaignTask>& campaign,
              std::size_t claimed);

  mutable std::mutex mutex_;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, EntryOrder> queue_;
  /// Campaigns submitted but not yet finalized, submission order. Entries
  /// are appended by enqueue and erased by run_next after the last shard's
  /// decrement - so the progress table empties exactly when every future
  /// is ready.
  std::vector<std::shared_ptr<CampaignTask>> active_;
  std::size_t threads_;
  std::uint64_t next_sequence_ = 0;
  std::size_t claimed_ = 0;  // shards out on claims, not yet returned
  std::condition_variable claims_returned_;  // claimed_ fell, or a release
};

}  // namespace polaris::engine
