#include "engine/scheduler.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace polaris::engine {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index,
                          std::uint64_t tag) noexcept {
  // Two finalization rounds over the mixed (seed, index, tag) word. The
  // constants are splitmix64's; the odd multiplier on `index` separates
  // consecutive batch indices by a full avalanche before the first round.
  std::uint64_t z = seed ^ (index * 0x9e3779b97f4a7c15ULL) ^ tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ShardPlan ShardPlan::make(std::size_t total_batches) {
  ShardPlan plan;
  plan.total_batches = total_batches;
  if (total_batches == 0) return plan;
  std::size_t shards =
      (total_batches + kTargetBatchesPerShard - 1) / kTargetBatchesPerShard;
  // Floor: small batch counts (sequential designs pack 64*cycles_per_batch
  // samples per batch, so realistic budgets are just a handful of batches)
  // still split down to one batch per shard rather than collapsing to a
  // serial plan. Still a pure function of the batch count.
  const std::size_t floor_shards =
      total_batches < kMinShardsPerCampaign ? total_batches
                                            : kMinShardsPerCampaign;
  if (shards < floor_shards) shards = floor_shards;
  if (shards > kMaxShardsPerCampaign) shards = kMaxShardsPerCampaign;
  plan.batches_per_shard = (total_batches + shards - 1) / shards;
  plan.shard_count =
      (total_batches + plan.batches_per_shard - 1) / plan.batches_per_shard;
  return plan;
}

void Scheduler::enqueue(const std::shared_ptr<CampaignTask>& campaign) {
  static auto& campaigns = obs::Registry::global().counter("sched.campaigns");
  static auto& shards = obs::Registry::global().counter("sched.shards");
  static auto& queue_at_submit =
      obs::Registry::global().histogram("sched.queue_at_submit");
  const std::lock_guard<std::mutex> lock(mutex_);
  campaign->sequence = next_sequence_++;
  if (campaign->plan.shard_count == 0) return;  // submit finalizes it inline
  campaign->enqueue_ns = obs::now_ns();
  campaigns.add();
  shards.add(campaign->plan.shard_count);
  active_.push_back(campaign);
  for (std::size_t shard = 0; shard < campaign->plan.shard_count; ++shard) {
    queue_.push(QueueEntry{campaign, shard});
  }
  // LPT queue length as seen by this submit, including its own shards.
  queue_at_submit.record(queue_.size());
}

void Scheduler::retire(const std::shared_ptr<CampaignTask>& campaign,
                       std::size_t claimed) {
  static auto& campaign_us =
      obs::Registry::global().histogram("sched.campaign_us");
  bool last = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    last = --campaign->remaining == 0;
    if (last) {
      // Retire from the progress table before finish() runs: a status poll
      // never reports a campaign whose future is about to be ready with a
      // stale shard count.
      for (auto it = active_.begin(); it != active_.end(); ++it) {
        if (it->get() == campaign.get()) {
          active_.erase(it);
          break;
        }
      }
    }
  }
  // The finisher saw the last decrement under the mutex, so every shard's
  // state write happens-before finish() regardless of which threads ran
  // them. Finalizing outside the lock keeps other threads popping.
  if (last) {
    obs::Span span("merge", "sched");
    span.arg("seq", campaign->sequence);
    campaign->finish();
    // Campaign makespan: submit-to-finalized, queueing included.
    campaign_us.record(static_cast<std::uint64_t>(
        (obs::now_ns() - campaign->enqueue_ns) / 1000));
  }
  // A claimed shard counts as returned only now, after any finish(): a
  // drain() woken by it finds every finished campaign's future ready.
  if (claimed != 0) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      claimed_ -= claimed;
    }
    claims_returned_.notify_all();
  }
}

bool Scheduler::run_next() {
  static auto& shard_us = obs::Registry::global().histogram("sched.shard_us");
  static auto& shards_cancelled =
      obs::Registry::global().counter("sched.shards_cancelled");
  QueueEntry entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    entry = queue_.top();
    queue_.pop();
  }
  if (entry.campaign->cancelled.load(std::memory_order_relaxed)) {
    // A checkpoint already decided this campaign: skip the shard body (its
    // state could never merge past the frozen ceiling anyway) so the pool
    // slot goes to the next undecided campaign in the LPT queue. It still
    // retires - the campaign finishes normally.
    shards_cancelled.add();
  } else {
    obs::Span span("shard", "sched");
    span.arg("seq", entry.campaign->sequence)
        .arg("shard", static_cast<std::uint64_t>(entry.shard));
    const std::int64_t t0 = obs::now_ns();
    entry.campaign->run_shard(entry.shard);
    shard_us.record(static_cast<std::uint64_t>((obs::now_ns() - t0) / 1000));
  }
  retire(entry.campaign, 0);
  return true;
}

std::optional<Scheduler::Claim> Scheduler::claim(std::size_t max_shards) {
  static auto& shards_cancelled =
      obs::Registry::global().counter("sched.shards_cancelled");
  for (;;) {
    QueueEntry entry;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty()) return std::nullopt;
      entry = queue_.top();
      queue_.pop();
      if (!entry.campaign->cancelled.load(std::memory_order_relaxed)) {
        // The heap pops a campaign's shards in ascending order, so its
        // next shard, if still queued, is the new top.
        Claim claim{entry.campaign->sequence, entry.shard, entry.shard + 1,
                    entry.campaign};
        while (claim.end - claim.begin < max_shards && !queue_.empty() &&
               queue_.top().campaign == entry.campaign &&
               queue_.top().shard == claim.end) {
          queue_.pop();
          ++claim.end;
        }
        claimed_ += claim.end - claim.begin;
        return claim;
      }
    }
    shards_cancelled.add();  // stopped campaign: retire, never hand out
    retire(entry.campaign, 0);
  }
}

void Scheduler::release(const Claim& claim) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t shard = claim.begin; shard < claim.end; ++shard) {
      queue_.push(QueueEntry{claim.campaign, shard});
    }
    claimed_ -= claim.end - claim.begin;
  }
  claims_returned_.notify_all();
}

void Scheduler::drain() {
  // Loop: a parallel_for covers the shards queued at its start; campaigns
  // submitted (or claims released) while it runs are picked up by the next
  // pass. With the queue empty, wait until every claim has come back.
  for (;;) {
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      claims_returned_.wait(lock,
                            [this] { return !queue_.empty() || claimed_ == 0; });
      n = queue_.size();
    }
    if (n == 0) return;
    if (threads_ <= 1) {
      while (run_next()) {
      }
    } else {
      ThreadPool::shared().parallel_for(n, threads_,
                                        [this](std::size_t) { run_next(); });
    }
  }
}

std::size_t Scheduler::pending_shards() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::vector<CampaignProgress> Scheduler::progress() const {
  const std::int64_t now = obs::now_ns();
  std::vector<CampaignProgress> table;
  const std::lock_guard<std::mutex> lock(mutex_);
  table.reserve(active_.size());
  for (const auto& campaign : active_) {
    CampaignProgress row;
    row.label = campaign->label;
    row.sequence = campaign->sequence;
    row.shards_total = campaign->plan.shard_count;
    row.shards_done = campaign->plan.shard_count - campaign->remaining;
    row.age_us =
        static_cast<std::uint64_t>((now - campaign->enqueue_ns) / 1000);
    row.stopped = campaign->cancelled.load(std::memory_order_relaxed);
    table.push_back(std::move(row));
  }
  // queue_position = rank in the LPT pop order (weight desc, sequence asc)
  // among the active campaigns - the order their remaining shards drain.
  std::vector<std::size_t> order(table.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (active_[a]->weight != active_[b]->weight) {
      return active_[a]->weight > active_[b]->weight;
    }
    return active_[a]->sequence < active_[b]->sequence;
  });
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    table[order[rank]].queue_position = rank;
  }
  return table;
}

}  // namespace polaris::engine
