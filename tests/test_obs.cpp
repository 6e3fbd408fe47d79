// polaris::obs in isolation: counter exactness under concurrency, the
// log-bucket histogram's error bound, snapshot merge algebra, and the
// tracer's JSON output (valid, nested, disabled-by-default). Everything
// here uses LOCAL registries except the tracer tests - the tracer is
// process-global, so those tests start/stop it around their own spans.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace {

using namespace polaris;

// --- counters ----------------------------------------------------------------

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
  obs::Registry registry;
  auto& counter = registry.counter("test.hits");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (auto& thread : threads) thread.join();
  // Sharded relaxed increments lose nothing: the total is exact, not
  // approximate.
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(ObsCounter, SameNameReturnsSameCounter) {
  obs::Registry registry;
  registry.counter("a").add(2);
  registry.counter("a").add(3);
  EXPECT_EQ(registry.counter("a").value(), 5u);
  EXPECT_EQ(registry.snapshot().counter_value("a"), 5u);
  EXPECT_EQ(registry.snapshot().counter_value("missing"), 0u);
}

// --- histograms --------------------------------------------------------------

TEST(ObsHistogram, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < obs::Histogram::kLinearBuckets; ++v) {
    const std::size_t index = obs::Histogram::bucket_index(v);
    EXPECT_EQ(obs::Histogram::bucket_lower(index), v);
    EXPECT_EQ(obs::Histogram::bucket_upper(index), v + 1);
  }
}

TEST(ObsHistogram, BucketsContainTheirValuesWithBoundedWidth) {
  // Sweep a wide range; every value must land in a bucket that contains
  // it, and above the linear range the bucket width must stay within 25%
  // of the lower bound (the documented resolution of 4 sub-buckets per
  // power of two).
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40); v = v * 3 + 1) {
    const std::size_t index = obs::Histogram::bucket_index(v);
    const std::uint64_t lower = obs::Histogram::bucket_lower(index);
    const std::uint64_t upper = obs::Histogram::bucket_upper(index);
    ASSERT_LE(lower, v) << "value " << v;
    ASSERT_GT(upper, v) << "value " << v;
    if (v >= obs::Histogram::kLinearBuckets) {
      EXPECT_LE((upper - lower) * 4, lower) << "value " << v;
    }
  }
}

TEST(ObsHistogram, PercentileWithinBucketBound) {
  obs::Registry registry;
  auto& histogram = registry.histogram("h");
  constexpr std::uint64_t kValue = 1000;
  for (int i = 0; i < 100; ++i) histogram.record(kValue);
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const auto& h = snapshot.histograms[0];
  EXPECT_EQ(h.count, 100u);
  EXPECT_EQ(h.sum, 100 * kValue);
  // Every sample was kValue, so any percentile is the midpoint of
  // kValue's bucket: within 12.5% of the true value.
  for (const double p : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_NEAR(h.percentile(p), static_cast<double>(kValue),
                0.125 * static_cast<double>(kValue))
        << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(kValue));
}

TEST(ObsHistogram, PercentilesAreExactInTheLinearRange) {
  // Samples below kLinearBuckets land in width-1 buckets; a percentile
  // there must return the exact sample value, not the bucket midpoint
  // (p50 of all-zero latencies is 0, not 0.5).
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{3},
        static_cast<std::uint64_t>(obs::Histogram::kLinearBuckets - 1)}) {
    obs::Registry registry;
    auto& histogram = registry.histogram("h");
    for (int i = 0; i < 50; ++i) histogram.record(value);
    const auto snapshot = registry.snapshot();
    const auto& h = snapshot.histograms[0];
    for (const double p : {0.0, 0.5, 0.99, 1.0}) {
      EXPECT_DOUBLE_EQ(h.percentile(p), static_cast<double>(value))
          << "value=" << value << " p=" << p;
    }
  }
}

TEST(ObsCounter, SubTracksGaugeOccupancy) {
  obs::Registry registry;
  auto& gauge = registry.counter("cache.bytes");
  gauge.add(1000);
  gauge.sub(250);
  gauge.add(50);
  gauge.sub(800);
  EXPECT_EQ(gauge.value(), 0u);
}

TEST(ObsHistogram, PercentilesAreMonotonic) {
  obs::Registry registry;
  auto& histogram = registry.histogram("h");
  std::uint64_t value = 1;
  for (int i = 0; i < 200; ++i) {
    histogram.record(value);
    value = value * 7 % 100000 + 1;
  }
  const auto snapshot = registry.snapshot();
  const auto& h = snapshot.histograms[0];
  EXPECT_LE(h.percentile(0.50), h.percentile(0.95));
  EXPECT_LE(h.percentile(0.95), h.percentile(0.99));
}

// --- snapshot algebra --------------------------------------------------------

TEST(ObsSnapshot, SubtractRecoversIntervalDelta) {
  obs::Registry registry;
  auto& histogram = registry.histogram("h");
  histogram.record(100);
  histogram.record(2000);
  const auto earlier = registry.snapshot();
  histogram.record(100);
  histogram.record(123456);
  auto delta = registry.snapshot().histograms[0];
  delta.subtract(earlier.histograms[0]);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.sum, 100u + 123456u);
  // The interval's p99 reflects only the new samples.
  EXPECT_NEAR(delta.percentile(0.99), 123456.0, 0.125 * 123456.0);
}

TEST(ObsSnapshot, JsonFragmentAndPrometheusRender) {
  obs::Registry registry;
  registry.counter("cache.hits").add(3);
  registry.histogram("pool.task_us").record(250);
  const auto snapshot = registry.snapshot();

  const std::string json = snapshot.json_fragment();
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"cache.hits\":3"), std::string::npos);
  EXPECT_NE(json.find("\"pool.task_us\":{"), std::string::npos);

  const std::string prom = snapshot.prometheus("polaris_");
  EXPECT_NE(prom.find("polaris_cache_hits 3"), std::string::npos);
  EXPECT_NE(prom.find("polaris_pool_task_us_count 1"), std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.95\""), std::string::npos);
}

// --- runtime info ------------------------------------------------------------

TEST(ObsRuntimeInfo, ReportsPlausibleIdentity) {
  const auto info = obs::runtime_info();
  EXPECT_TRUE(info.build_type == "release" || info.build_type == "debug");
  EXPECT_FALSE(info.simd.empty());
  EXPECT_GE(info.lane_words, 1u);
}

// --- tracer ------------------------------------------------------------------

/// Minimal structural check that `json` parses as one object with a
/// traceEvents array (a full parser lives in CI: python3 -m json.tool).
int count_occurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ObsTracer, DisabledByDefaultAndSpansCostNothingVisible) {
  EXPECT_FALSE(obs::Tracer::global().enabled());
  {
    obs::Span span("idle", "test");
    span.arg("k", std::uint64_t{1});
  }
  // Still disabled, and a subsequent start() sees none of the above.
  auto& tracer = obs::Tracer::global();
  tracer.start();
  std::size_t events = 0;
  (void)tracer.stop_to_json(&events);
  EXPECT_EQ(events, 0u);
}

TEST(ObsTracer, EmitsValidNestedSpans) {
  auto& tracer = obs::Tracer::global();
  tracer.start();
  {
    obs::Span outer("outer", "test");
    outer.arg("design", "des3").arg("gates", std::uint64_t{42});
    {
      obs::Span inner("inner", "test");
      inner.arg("shard", std::uint64_t{0});
    }
  }
  std::size_t events = 0;
  const std::string json = tracer.stop_to_json(&events);
  EXPECT_EQ(events, 2u);
  EXPECT_FALSE(tracer.enabled());

  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"design\":\"des3\",\"gates\":42}"),
            std::string::npos);

  // Nesting: events are sorted by start time, so "outer" precedes "inner",
  // and the outer duration contains the inner one (same thread, RAII).
  const std::size_t outer_pos = json.find("\"name\":\"outer\"");
  const std::size_t inner_pos = json.find("\"name\":\"inner\"");
  EXPECT_LT(outer_pos, inner_pos);
  auto duration_after = [&](std::size_t pos) {
    const std::size_t dur = json.find("\"dur\":", pos);
    return std::stod(json.substr(dur + 6));
  };
  auto timestamp_after = [&](std::size_t pos) {
    const std::size_t ts = json.find("\"ts\":", pos);
    return std::stod(json.substr(ts + 5));
  };
  EXPECT_LE(timestamp_after(outer_pos), timestamp_after(inner_pos));
  EXPECT_GE(timestamp_after(outer_pos) + duration_after(outer_pos),
            timestamp_after(inner_pos) + duration_after(inner_pos));
}

TEST(ObsTracer, AsyncSpansMatchAcrossThreads) {
  auto& tracer = obs::Tracer::global();
  tracer.start();
  const std::uint64_t id = obs::Tracer::next_async_id();
  obs::TraceArgs args;
  args.add("traces", std::uint64_t{8192});
  tracer.async_begin("campaign", "tvla", id, std::move(args).str());
  std::thread([&] { tracer.async_end("campaign", "tvla", id); }).join();
  std::size_t events = 0;
  const std::string json = tracer.stop_to_json(&events);
  EXPECT_EQ(events, 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"b\""), 1);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"e\""), 1);
  // Begin and end carry the same id so Perfetto joins them.
  const std::size_t first_id = json.find("\"id\":\"0x");
  ASSERT_NE(first_id, std::string::npos);
  const std::string id_token = json.substr(first_id, json.find('"', first_id + 6) - first_id);
  EXPECT_EQ(count_occurrences(json, id_token), 2);
}

TEST(ObsLog, RateLimitCountsSuppressedLines) {
  const std::uint64_t before =
      obs::Registry::global().snapshot().counter_value("obs.log_suppressed");
  // Hammer well past the burst budget; the bucket admits at most burst +
  // refill-during-the-loop lines and counts the rest instead of flooding.
  for (int i = 0; i < 200; ++i) {
    obs::log("test", "rate limit probe " + std::to_string(i));
  }
  const std::uint64_t after =
      obs::Registry::global().snapshot().counter_value("obs.log_suppressed");
  EXPECT_GE(after - before, 100u);
}

TEST(ObsSnapshot, SubtractKeepsMetricsBornInsideTheInterval) {
  // A metric first touched AFTER the earlier snapshot has no earlier row
  // to subtract - the whole-snapshot subtract must keep its full value,
  // not drop or corrupt it.
  obs::Registry registry;
  registry.counter("old").add(3);
  const auto earlier = registry.snapshot();
  registry.counter("old").add(4);
  registry.counter("born_late").add(9);
  registry.histogram("h_late").record(50);
  auto delta = registry.snapshot();
  delta.subtract(earlier);
  EXPECT_EQ(delta.counter_value("old"), 4u);
  EXPECT_EQ(delta.counter_value("born_late"), 9u);
  const auto* hist = delta.find_histogram("h_late");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 1u);
  EXPECT_EQ(hist->sum, 50u);
}

TEST(ObsWallClock, Iso8601TimestampHasTheDocumentedShape) {
  // obs::log prefixes every line with this; scrapers pattern-match it, so
  // the shape is a contract: "YYYY-MM-DDTHH:MM:SS.mmmZ" (24 chars, UTC).
  const std::string stamp = obs::wall_clock_iso8601();
  ASSERT_EQ(stamp.size(), 24u);
  EXPECT_EQ(stamp[4], '-');
  EXPECT_EQ(stamp[7], '-');
  EXPECT_EQ(stamp[10], 'T');
  EXPECT_EQ(stamp[13], ':');
  EXPECT_EQ(stamp[16], ':');
  EXPECT_EQ(stamp[19], '.');
  EXPECT_EQ(stamp.back(), 'Z');
  for (const std::size_t i : {0u, 1u, 2u, 3u, 5u, 6u, 8u, 9u, 11u, 12u,
                              14u, 15u, 17u, 18u, 20u, 21u, 22u}) {
    EXPECT_TRUE(stamp[i] >= '0' && stamp[i] <= '9') << "position " << i;
  }
  // Sanity: the year is the wall clock's, not 1970's.
  EXPECT_GE(stamp.substr(0, 4), "2024");
  // And it agrees with wall_clock_ms to within clock-read jitter.
  EXPECT_GT(obs::wall_clock_ms(), 0);
}

}  // namespace
