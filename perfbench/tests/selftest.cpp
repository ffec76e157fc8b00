// Tests of the benchmark's own helpers: the quantile rules, span self-time
// arithmetic, and seed determinism of the generated inputs.
//
//   python3 perfbench/run.py --self-test

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::abs(got - want) <= 1e-12 * std::max(1.0, std::abs(want)),
         what + " (got " + std::to_string(got) + ", want " +
             std::to_string(want) + ")");
}

bool throws(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

void test_quantiles() {
  using namespace perfbench;
  expect_near(median({3, 1, 2}), 2, "median of odd count");
  expect_near(median({4, 1, 3, 2}), 2.5, "median of even count");
  expect_near(quantile(ramp(5), 0.25), 2, "interpolated quartile");
  expect_near(quantile({1, 2}, 0.9), 1.9, "interpolation between two");
  expect(throws([] { quantile({}, 0.5); }), "quantile of nothing refused");
  expect(throws([] { quantile({1}, 1.5); }), "q outside [0,1] refused");

  expect(samples_beyond(100, 0.9) == 10, "10 of 100 beyond p90");
  expect(samples_beyond(99, 0.9) == 9, "9 of 99 beyond p90");
  expect(samples_beyond(1000, 0.99) == 10, "10 of 1000 beyond p99");
  expect(samples_beyond(10, 1.0) == 0, "nothing beyond the maximum");
  expect(throws([] { tail_quantile(ramp(99), 0.9); }),
         "p90 of 99 samples refused (9 beyond)");
  expect(!throws([] { tail_quantile(ramp(100), 0.9); }),
         "p90 of 100 samples accepted (10 beyond)");
  expect(throws([] { tail_quantile(ramp(999), 0.99); }),
         "p99 of 999 samples refused");
  expect(!throws([] { tail_quantile(ramp(1000), 0.99); }),
         "p99 of 1000 samples accepted");
  expect_near(tail_quantile(ramp(100), 0.9), 90.1, "p90 value");
}

perfbench::SpanRecord record(const char* name, int parent, std::int64_t b,
                             std::int64_t e) {
  perfbench::SpanRecord r;
  r.name = name;
  r.parent = parent;
  r.begin_ns = b;
  r.end_ns = e;
  return r;
}

void test_self_time() {
  using namespace perfbench;
  // step [0,100] with children [10,30] and [20,50] (overlapping, so they
  // cover [10,50] once) and [90,120] (clipped to the parent's end); the
  // grandchild [12,14] belongs to its own parent only.
  const std::vector<SpanRecord> spans = {
      record("step", -1, 0, 100),    record("a", 0, 10, 30),
      record("b", 0, 20, 50),        record("c", 0, 90, 120),
      record("a.inner", 1, 12, 14),  record("step", -1, 200, 260),
      record("a", 5, 200, 260),
  };
  const std::vector<double> self = self_seconds(spans);
  expect_near(self[0], 50e-9, "parent self = 100 - |[10,50] u [90,100]|");
  expect_near(self[1], 18e-9, "child self excludes its own child");
  expect_near(self[2], 30e-9, "leaf self = duration");
  expect_near(self[4], 2e-9, "grandchild self");
  expect_near(self[5], 0, "fully covered parent has no self time");

  const auto totals = totals_by_name(spans);
  expect(totals.at("step").count == 2, "two step spans");
  expect_near(totals.at("step").total_seconds, 160e-9, "step total");
  expect_near(totals.at("step").self_seconds, 50e-9, "step self total");
  expect_near(totals.at("a").total_seconds, 80e-9, "a total");
  expect_near(totals.at("a").self_seconds, 78e-9, "a self total");
}

void test_recorder() {
  using namespace perfbench;
  SpanRecorder off(false);
  { const Span s(off, "ignored"); }
  expect(off.spans().empty(), "disabled recorder keeps nothing");

  SpanRecorder on(true);
  {
    const Span outer(on, "outer", 7);
    { const Span inner(on, "inner", 7); }
    { const Span sibling(on, "sibling", 8); }
  }
  { const Span next(on, "next"); }
  const auto spans = on.spans();
  expect(spans.size() == 4, "four spans recorded");
  expect(spans[0].parent == -1 && spans[1].parent == 0 &&
             spans[2].parent == 0 && spans[3].parent == -1,
         "parents follow nesting on one thread");
  expect(spans[1].id == 7 && spans[2].id == 8 && spans[3].id == -1,
         "ids kept");
  for (const auto& s : spans) expect(s.end_ns >= s.begin_ns, "closed spans");

  const std::filesystem::path path = "perfbench_selftest.trace.json";
  on.write_chrome_json(path.string());
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  expect(text.rfind("{\"traceEvents\":[", 0) == 0 &&
             text.find("\"name\":\"sibling\"") != std::string::npos,
         "chrome trace written");
}

void test_seed_determinism() {
  using namespace perfbench;
  TrainSizing train;
  train.dataset_bytes = 2u << 20;
  train.per_source = {2, 2, 2, 2, 1};
  const auto a = make_train_inputs(5, train);
  const auto b = make_train_inputs(5, train);
  const auto c = make_train_inputs(6, train);
  expect(a.train_set.size() == 9, "stratified training set size");
  expect(batch_sequence_hash(a, 4, 2) == batch_sequence_hash(b, 4, 2),
         "one seed regenerates the batch sequence");
  expect(batch_sequence_hash(a, 4, 2) != batch_sequence_hash(c, 4, 2),
         "another seed gives another batch sequence");

  ServeSizing serve;
  serve.resident = 4;
  serve.rounds = 3;
  serve.fresh_per_source = 5;
  serve.repeats = 5;
  const auto x = make_serve_inputs(5, serve);
  const auto y = make_serve_inputs(5, serve);
  const auto z = make_serve_inputs(6, serve);
  expect(request_list_hash(x) == request_list_hash(y),
         "one seed regenerates the request list");
  expect(request_list_hash(x) != request_list_hash(z),
         "another seed gives another request list");
  expect(x.per_round == 30 && x.requests.size() == 90, "round layout");
  for (std::size_t round = 0; round < serve.rounds; ++round) {
    std::size_t fresh = 0;
    std::size_t forced = 0;
    for (std::size_t i = 0; i < x.per_round; ++i) {
      const auto& r = x.requests[round * x.per_round + i];
      fresh += r.repeat ? 0 : 1;
      forced += r.forces ? 1 : 0;
      expect(r.repeat == (r.structure < x.resident),
             "repeats name resident structures, fresh ones do not");
    }
    expect(fresh == 25 && forced == 6, "every round has the same mix");
  }
  for (const auto& s : x.structures) {
    expect(s.num_atoms() >= 2, "no single-atom structures");
  }
}

}  // namespace

int main() {
  test_quantiles();
  test_self_time();
  test_recorder();
  test_seed_determinism();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
