#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "sgnn/obs/metrics.hpp"
#include "sgnn/obs/telemetry.hpp"
#include "sgnn/obs/trace.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(CounterTest, ConcurrentUpdatesAreLossless) {
  Counter counter;
  const int kThreads = 8;
  const int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kIncrements);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
  gauge.reset();
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(HistogramTest, ConcurrentObservationsAreLossless) {
  Histogram histogram(Histogram::exponential_bounds(1e-3, 1e3, 10.0));
  const int kThreads = 8;
  const int kObservations = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kObservations; ++i) {
        histogram.observe(0.01 * (t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = histogram.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads * kObservations));
  // Sum of t in 1..8 of 0.01 * t * kObservations.
  EXPECT_NEAR(snap.sum, 0.01 * 36 * kObservations, 1e-6);
  std::uint64_t bucketed = 0;
  for (const auto b : snap.buckets) bucketed += b;
  EXPECT_EQ(bucketed, snap.count);
}

TEST(HistogramTest, QuantilesInterpolateSensibly) {
  Histogram histogram({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 100; ++i) histogram.observe(1.5);  // (1, 2]
  for (int i = 0; i < 100; ++i) histogram.observe(3.0);  // (2, 4]
  const auto snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 200u);
  EXPECT_DOUBLE_EQ(snap.min, 1.5);
  EXPECT_DOUBLE_EQ(snap.max, 3.0);
  const double p25 = snap.quantile(0.25);
  EXPECT_GE(p25, 1.0);
  EXPECT_LE(p25, 2.0);
  const double p75 = snap.quantile(0.75);
  EXPECT_GE(p75, 2.0);
  EXPECT_LE(p75, 4.0);
  // Quantiles are monotone and bounded by the observed extremes.
  EXPECT_LE(snap.quantile(0.0), snap.quantile(0.5));
  EXPECT_LE(snap.quantile(0.5), snap.quantile(1.0));
  EXPECT_LE(snap.quantile(1.0), snap.max);
}

TEST(HistogramTest, EmptyHistogramIsWellBehaved) {
  Histogram histogram({1.0, 2.0});
  const auto snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
}

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  Counter& a = registry.counter("obs_test.same_name");
  Counter& b = registry.counter("obs_test.same_name");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(3);
  EXPECT_EQ(b.value(), 3);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndUpdate) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.counter("obs_test.concurrent").reset();
  const int kThreads = 8;
  const int kIncrements = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kIncrements; ++i) {
        registry.counter("obs_test.concurrent").add(1);
        registry.histogram("obs_test.concurrent_hist").observe(0.001);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.counter("obs_test.concurrent").value(),
            kThreads * kIncrements);
}

TEST(MetricsRegistryTest, SnapshotAndTextDump) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.counter("obs_test.snap_counter").reset();
  registry.counter("obs_test.snap_counter").add(7);
  registry.gauge("obs_test.snap_gauge").set(1.25);
  registry.histogram("obs_test.snap_hist").reset();
  registry.histogram("obs_test.snap_hist").observe(0.5);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("obs_test.snap_counter"), 7);
  EXPECT_DOUBLE_EQ(snap.gauges.at("obs_test.snap_gauge"), 1.25);
  EXPECT_EQ(snap.histograms.at("obs_test.snap_hist").count, 1u);

  const std::string text = snap.to_text();
  EXPECT_NE(text.find("obs_test.snap_counter = 7"), std::string::npos);
  EXPECT_NE(text.find("obs_test.snap_gauge = 1.25"), std::string::npos);
  EXPECT_NE(text.find("obs_test.snap_hist: count=1"), std::string::npos);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"obs_test.snap_counter\":7"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(MetricsRegistryTest, JsonEscapesInstrumentNames) {
  MetricsSnapshot snap;
  snap.counters["quote\"d"] = 1;
  snap.gauges["tab\tbed"] = 0.5;
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"quote\\\"d\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tab\\tbed\":0.5"), std::string::npos) << json;
  EXPECT_EQ(json.find('\t'), std::string::npos) << json;
}

// ---------------------------------------------------------------- tracing

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::instance().disable();
    TraceRecorder::instance().clear();
  }
  void TearDown() override {
    TraceRecorder::instance().disable();
    TraceRecorder::instance().clear();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  {
    TraceSpan span("invisible", "test");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(TraceRecorder::instance().size(), 0u);
}

TEST_F(TraceTest, NestedSpansAreOrderedAndContained) {
  TraceRecorder::instance().enable();
  {
    TraceSpan outer("outer", "test");
    {
      TraceSpan inner("inner", "test");
      inner.arg("key", std::string("value"));
    }
  }
  TraceRecorder::instance().disable();

  const auto events = TraceRecorder::instance().events();
  ASSERT_EQ(events.size(), 2u);
  const auto find = [&](const char* name) {
    return *std::find_if(events.begin(), events.end(),
                         [&](const TraceEvent& e) {
                           return std::string(e.name) == name;
                         });
  };
  const TraceEvent outer = find("outer");
  const TraceEvent inner = find("inner");
  EXPECT_LE(outer.begin_us, inner.begin_us);
  EXPECT_GE(outer.end_us, inner.end_us);
  EXPECT_EQ(outer.tid, inner.tid);
  ASSERT_EQ(inner.args.size(), 1u);
  EXPECT_EQ(inner.args[0].first, "key");
  EXPECT_EQ(inner.args[0].second, "value");
}

TEST_F(TraceTest, ChromeJsonExportHasCompleteEventsAndRankPids) {
  TraceRecorder::instance().enable();
  {
    const ScopedTraceRank rank(2);
    TraceSpan span("ranked_work", "test");
  }
  { TraceSpan span("unranked_work", "test"); }
  TraceRecorder::instance().disable();

  const std::string json = TraceRecorder::instance().to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ranked_work\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank 2\""), std::string::npos);
  // Braces and brackets balance — the cheap structural validity check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST_F(TraceTest, ConcurrentSpansFromManyThreadsAllLand) {
  TraceRecorder::instance().enable();
  const int kThreads = 8;
  const int kSpans = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const ScopedTraceRank rank(t);
      for (int i = 0; i < kSpans; ++i) {
        TraceSpan span("work", "test");
      }
    });
  }
  for (auto& t : threads) t.join();
  TraceRecorder::instance().disable();

  EXPECT_EQ(TraceRecorder::instance().size(),
            static_cast<std::size_t>(kThreads * kSpans));
  std::set<int> ranks;
  for (const auto& event : TraceRecorder::instance().events()) {
    ranks.insert(event.rank);
  }
  EXPECT_EQ(ranks.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(TraceTest, ScopedRankRestoresPreviousRank) {
  EXPECT_EQ(TraceRecorder::current_rank(), -1);
  {
    const ScopedTraceRank outer(1);
    EXPECT_EQ(TraceRecorder::current_rank(), 1);
    {
      const ScopedTraceRank inner(2);
      EXPECT_EQ(TraceRecorder::current_rank(), 2);
    }
    EXPECT_EQ(TraceRecorder::current_rank(), 1);
  }
  EXPECT_EQ(TraceRecorder::current_rank(), -1);
}

// -------------------------------------------------------------- telemetry

StepTelemetry sample_step() {
  StepTelemetry t;
  t.step = 42;
  t.epoch = 3;
  t.rank = 1;
  t.loss = 0.125;
  t.grad_norm = 2.5;
  t.learning_rate = 1e-3;
  t.batch_graphs = 8;
  t.batch_atoms = 321;
  t.batch_edges = 4567;
  t.step_seconds = 0.25;
  t.atoms_per_sec = 1284.0;
  t.graphs_per_sec = 32.0;
  t.collective_bytes = 1048576;
  t.comm_seconds_modeled = 3.5e-5;
  t.halo_bytes = 262144;
  t.halo_exchanges = 12;
  t.halo_exposed_seconds = 1.5e-6;
  t.halo_overlapped_seconds = 2.5e-6;
  t.live_bytes = 123456;
  t.peak_bytes = 654321;
  t.kernel_seconds = 0.125;
  t.kernel_flops = 1000000;
  t.kernel_bytes = 2000000;
  return t;
}

TEST(TelemetryTest, JsonRoundTripPreservesEveryField) {
  const StepTelemetry original = sample_step();
  const StepTelemetry parsed = StepTelemetry::from_json(original.to_json());
  EXPECT_EQ(parsed.step, original.step);
  EXPECT_EQ(parsed.epoch, original.epoch);
  EXPECT_EQ(parsed.rank, original.rank);
  EXPECT_DOUBLE_EQ(parsed.loss, original.loss);
  EXPECT_DOUBLE_EQ(parsed.grad_norm, original.grad_norm);
  EXPECT_DOUBLE_EQ(parsed.learning_rate, original.learning_rate);
  EXPECT_EQ(parsed.batch_graphs, original.batch_graphs);
  EXPECT_EQ(parsed.batch_atoms, original.batch_atoms);
  EXPECT_EQ(parsed.batch_edges, original.batch_edges);
  EXPECT_DOUBLE_EQ(parsed.step_seconds, original.step_seconds);
  EXPECT_DOUBLE_EQ(parsed.atoms_per_sec, original.atoms_per_sec);
  EXPECT_DOUBLE_EQ(parsed.graphs_per_sec, original.graphs_per_sec);
  EXPECT_EQ(parsed.collective_bytes, original.collective_bytes);
  EXPECT_DOUBLE_EQ(parsed.comm_seconds_modeled,
                   original.comm_seconds_modeled);
  EXPECT_EQ(parsed.halo_bytes, original.halo_bytes);
  EXPECT_EQ(parsed.halo_exchanges, original.halo_exchanges);
  EXPECT_DOUBLE_EQ(parsed.halo_exposed_seconds,
                   original.halo_exposed_seconds);
  EXPECT_DOUBLE_EQ(parsed.halo_overlapped_seconds,
                   original.halo_overlapped_seconds);
  EXPECT_EQ(parsed.live_bytes, original.live_bytes);
  EXPECT_EQ(parsed.peak_bytes, original.peak_bytes);
  EXPECT_DOUBLE_EQ(parsed.kernel_seconds, original.kernel_seconds);
  EXPECT_EQ(parsed.kernel_flops, original.kernel_flops);
  EXPECT_EQ(parsed.kernel_bytes, original.kernel_bytes);
}

TEST(TelemetryTest, PreHaloLogsParseWithZeroHaloFields) {
  // Logs written before graph parallelism carry no halo_* fields; they must
  // read back as zeros, not as a parse error.
  std::string line = sample_step().to_json();
  const auto begin = line.find(",\"halo_bytes\"");
  const auto end = line.find(",\"live_bytes\"");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  line.erase(begin, end - begin);
  const StepTelemetry parsed = StepTelemetry::from_json(line);
  EXPECT_EQ(parsed.step, 42);
  EXPECT_EQ(parsed.halo_bytes, 0u);
  EXPECT_EQ(parsed.halo_exchanges, 0);
  EXPECT_DOUBLE_EQ(parsed.halo_exposed_seconds, 0.0);
  EXPECT_DOUBLE_EQ(parsed.halo_overlapped_seconds, 0.0);
}

TEST(TelemetryTest, ReadJsonlParsesStreamAndSkipsBlankLines) {
  std::ostringstream out;
  JsonlTelemetrySink sink(out);
  sink.on_step(sample_step());
  StepTelemetry second = sample_step();
  second.step = 43;
  sink.on_step(second);

  std::istringstream in(out.str() + "\n   \n");
  const std::vector<StepTelemetry> steps = read_jsonl(in);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].step, 42);
  EXPECT_EQ(steps[1].step, 43);
  EXPECT_EQ(steps[1].kernel_flops, 1000000);
}

TEST(TelemetryTest, ReadJsonlReportsLineNumberOnMalformedInput) {
  std::istringstream in(sample_step().to_json() + "\n{not json}\n");
  try {
    read_jsonl(in);
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(TelemetryTest, JsonlSinkWritesOneParseableLinePerStep) {
  std::ostringstream out;
  JsonlTelemetrySink sink(out);
  sink.on_step(sample_step());
  StepTelemetry second = sample_step();
  second.step = 43;
  sink.on_step(second);
  EXPECT_EQ(sink.lines_written(), 2);

  std::istringstream in(out.str());
  std::string line;
  std::vector<StepTelemetry> parsed;
  while (std::getline(in, line)) {
    parsed.push_back(StepTelemetry::from_json(line));
  }
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].step, 42);
  EXPECT_EQ(parsed[1].step, 43);
}

TEST(TelemetryTest, ConcurrentSinkWritesStayLineAtomic) {
  std::ostringstream out;
  JsonlTelemetrySink sink(out);
  const int kThreads = 4;
  const int kSteps = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      StepTelemetry step = sample_step();
      step.rank = t;
      for (int i = 0; i < kSteps; ++i) {
        step.step = i;
        sink.on_step(step);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sink.lines_written(), kThreads * kSteps);

  std::istringstream in(out.str());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    const StepTelemetry parsed = StepTelemetry::from_json(line);
    EXPECT_GE(parsed.rank, 0);
    EXPECT_LT(parsed.rank, kThreads);
    ++lines;
  }
  EXPECT_EQ(lines, kThreads * kSteps);
}

TEST(TelemetryTest, RecordStepMetricsFeedsRegistry) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.reset();
  record_step_metrics(sample_step());
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("train.steps"), 1);
  EXPECT_EQ(snap.counters.at("train.atoms"), 321);
  EXPECT_DOUBLE_EQ(snap.gauges.at("train.atoms_per_sec"), 1284.0);
  EXPECT_EQ(snap.histograms.at("step.seconds").count, 1u);
  EXPECT_GT(snap.histograms.at("step.seconds").quantile(0.5), 0.0);
}

}  // namespace
}  // namespace sgnn::obs
