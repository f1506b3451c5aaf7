// Self-tests of the benchmark's own math and inputs: percentiles,
// lateness, the RNG, the digest, and that every workload's inputs are a
// pure function of the seed. Exits non-zero on the first failure.

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "jobs.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void TestPercentile() {
  using perfbench::Percentile;
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  Expect(Percentile(hundred, 50) == 50, "p50 of 1..100 is 50");
  Expect(Percentile(hundred, 90) == 90, "p90 of 1..100 is 90");
  Expect(Percentile(hundred, 100) == 100, "p100 is the maximum");
  Expect(Percentile({7}, 90) == 7, "one sample is every percentile");
  Expect(Percentile({1, 2, 3}, 50) == 2, "p50 of three is the middle");
  Expect(Percentile({1, 2, 3, 4}, 50) == 2, "nearest rank takes the lower middle");
  Expect(std::isnan(Percentile({}, 50)), "no samples gives NaN");
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> with_failures(95, 1.0);
  with_failures.insert(with_failures.end(), 5, inf);
  Expect(Percentile(with_failures, 90) == 1.0, "5% failures stay above p90");
  with_failures.insert(with_failures.end(), 10, inf);
  Expect(std::isinf(Percentile(with_failures, 90)),
         "failures miss every latency limit");
  Expect(perfbench::SamplesBeyond(100, 90) == 10, "100 samples: 10 beyond p90");
  Expect(perfbench::SamplesBeyond(110, 90) == 11, "110 samples: 11 beyond p90");
  Expect(perfbench::SamplesBeyond(99, 90) == 9, "99 samples: 9 beyond p90");
}

void TestWindows() {
  using perfbench::WindowedPercentile;
  Expect(perfbench::WindowsFor(50) == 1, "few samples: one window");
  Expect(perfbench::WindowsFor(330) == 3, "330 samples: three windows");
  Expect(perfbench::WindowsFor(100000) == 8, "at most eight windows");
  // 880 samples, 8 windows of 110; one window is a burst 10x slower.
  std::vector<double> samples;
  for (int w = 0; w < 8; ++w) {
    for (int i = 1; i <= 110; ++i) samples.push_back(w == 3 ? 10.0 * i : i);
  }
  Expect(WindowedPercentile(samples, 50) == 55, "a burst in one window is ignored");
  Expect(WindowedPercentile(samples, 90) == 99, "windowed p90 per window");
  std::vector<double> done;  // 10 completions per clock second, 880 of them
  for (int i = 1; i <= 880; ++i) done.push_back(100.0 * i);
  Expect(std::fabs(perfbench::WindowedRate(done, 0.0) - 10.0) < 1e-9,
         "windowed rate of a steady stream");
  for (double& t : done) t = t > 35000 ? t + 5000 : t;  // a 5 s stall
  Expect(std::fabs(perfbench::WindowedRate(done, 0.0) - 10.0) < 1e-9,
         "windowed rate ignores one stalled window");
}

void TestPassRates() {
  using perfbench::PassRates;
  // Two passes over a 4-job list: 2, 3, 5, 10 ms per job, the second 10x
  // slower; 4 jobs per 20 ms is 200 jobs per CPU-second.
  std::vector<double> cpu_ms;
  for (int pass = 0; pass < 2; ++pass) {
    for (double ms : {2.0, 3.0, 5.0, 10.0}) {
      cpu_ms.push_back(pass == 1 ? 10 * ms : ms);
    }
  }
  cpu_ms.push_back(1000.0);  // an incomplete third pass is left out
  const std::vector<double> rates = PassRates(cpu_ms, 4);
  Expect(rates.size() == 2 && std::fabs(rates[0] - 200.0) < 1e-9 &&
             std::fabs(rates[1] - 20.0) < 1e-9,
         "one rate per complete pass");
  Expect(PassRates({2.0, 3.0, 5.0}, 4).empty(), "no complete pass, no rate");
  Expect(PassRates({2.0, 3.0, 5.0}, 0).empty(), "an empty list has no pass");
  const double start = perfbench::ProcessCpuMs();
  volatile double sink = 0.0;
  for (int i = 0; i < 20000000; ++i) sink = sink + i;
  Expect(perfbench::ProcessCpuMs() > start, "busy work uses process CPU");
  const double heap = perfbench::HeapInUseMb();
  std::vector<char> block(8 << 20, 1);
  Expect(perfbench::HeapInUseMb() - heap >= 7.9, "an 8 MB block counts in the heap");
}

void TestLateness() {
  using perfbench::LatenessMs;
  Expect(LatenessMs(10.0, 12.5) == 2.5, "late start counts its delay");
  Expect(LatenessMs(10.0, 10.0) == 0.0, "on time is zero");
  Expect(LatenessMs(10.0, 9.0) == 0.0, "early start is on time");
}

void TestRngAndDigest() {
  perfbench::BenchRng a(42), b(42), c(43);
  bool same = true, differ = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t x = a.Next();
    same = same && x == b.Next();
    differ = differ || x != c.Next();
  }
  Expect(same, "same seed, same stream");
  Expect(differ, "different seed, different stream");
  // SplitMix64 reference value for seed 0.
  Expect(perfbench::BenchRng(0).Next() == 0xe220a8397b1dcdafULL,
         "SplitMix64 matches its reference output");
  perfbench::BenchRng u(7);
  double mean = 0.0;
  for (int i = 0; i < 20000; ++i) mean += u.Uniform01();
  mean /= 20000;
  Expect(std::fabs(mean - 0.5) < 0.01, "uniform draws have mean 1/2");
  Expect(perfbench::Fnv1a64("") == perfbench::kFnvBasis, "FNV of nothing");
  Expect(perfbench::Fnv1a64("a") == 0xaf63dc4c8601ec8cULL,
         "FNV-1a 64 matches its reference output");
}

void TestInputsArePure() {
  for (uint64_t seed : {1ULL, 2ULL, 977ULL}) {
    for (const char* clusterer : {"fosc", "mpck"}) {
      const auto first = perfbench::TrialJobs(clusterer, seed);
      Expect(first == perfbench::TrialJobs(clusterer, seed),
             "trial job list is a pure function of the seed");
      Expect(first.size() == 7 * 6 * perfbench::kJobsPerCell,
             "trial list covers 7 datasets x 6 levels");
      Expect(first != perfbench::TrialJobs(clusterer, seed + 1),
             "another seed gives another job list");
    }
    perfbench::ServiceMix mix_a(seed), mix_b(seed);
    const auto a = mix_a.Schedule(40, 110, 10000, 2500);
    const auto b = mix_b.Schedule(40, 110, 10000, 2500);
    bool same = mix_a.base() == mix_b.base() && a.size() == b.size();
    for (size_t i = 0; same && i < a.size(); ++i) {
      same = a[i].kind == b[i].kind && a[i].due_ms == b[i].due_ms &&
             a[i].spec == b[i].spec && a[i].pick == b[i].pick;
    }
    for (int i = 0; same && i < 200; ++i) {
      const perfbench::ServiceOp x = mix_a.Next(), y = mix_b.Next();
      same = x.kind == y.kind && x.spec == y.spec && x.pick == y.pick;
    }
    Expect(same, "service schedule and closed-loop mix are pure functions of the seed");
    size_t light = 0;
    bool blocks_alternate = true;
    for (const auto& op : a) {
      light += op.heavy ? 0 : 1;
      blocks_alternate = blocks_alternate &&
                         op.heavy == (static_cast<int>(op.due_ms / 2500) % 2 == 1);
    }
    Expect(blocks_alternate, "light and heavy blocks alternate");
    // 5 s in each phase: exactly 200 light and 550 heavy arrivals.
    Expect(light == 200, "light blocks offer their rate");
    Expect(a.size() - light == 550, "heavy blocks offer their rate");
    bool ordered = true;
    for (size_t i = 1; i < a.size(); ++i) {
      ordered = ordered && a[i - 1].due_ms <= a[i].due_ms;
    }
    Expect(ordered, "the schedule is in due order");
  }
}

}  // namespace

int main() {
  TestPercentile();
  TestWindows();
  TestPassRates();
  TestLateness();
  TestRngAndDigest();
  TestInputsArePure();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
