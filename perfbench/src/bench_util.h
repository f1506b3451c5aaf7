#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

/// \file
/// Measurement plumbing shared by every workload: the benchmark's own
/// seeded RNG and digest (kept independent of the library's Rng and Hash64
/// so a change to either cannot silently change the inputs or the pins),
/// percentile and lateness math, and the result record a run prints.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double MsSince(Clock::time_point from) {
  return MsBetween(from, Clock::now());
}

/// SplitMix64: the input generator. Same seed, same stream, on every
/// platform and standard library.
class BenchRng {
 public:
  explicit BenchRng(uint64_t seed) : state_(seed) {}

  uint64_t Next();
  /// Uniform on [0, 1).
  double Uniform01();
  /// Uniform on [0, n); n > 0.
  uint64_t Index(uint64_t n);

 private:
  uint64_t state_;
};

/// FNV-1a 64 over `bytes`, continuing from `hash`.
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
uint64_t Fnv1a64(std::string_view bytes, uint64_t hash = kFnvBasis);

/// Nearest-rank percentile (p in (0, 100]): the smallest sample with at
/// least p% of the samples at or below it. +inf samples (failed operations,
/// which miss every latency limit) sort last. NaN for no samples.
double Percentile(std::vector<double> samples, double p);

/// Samples strictly above the nearest-rank p-th percentile position. A
/// reported percentile needs at least ten (see README.md).
size_t SamplesBeyond(size_t n, double p);

/// Robust per-run statistics: the samples, in the order they were taken,
/// are cut into `WindowsFor(n)` consecutive equal windows, the statistic is
/// taken per window, and the median over windows is reported. A burst of
/// interference from outside the benchmark then moves at most a minority
/// of windows instead of the whole run's figure.
inline constexpr size_t kMinWindowSamples = 110;  ///< p90 keeps 10 beyond
size_t WindowsFor(size_t n);

/// Median over windows of each window's nearest-rank p-th percentile.
double WindowedPercentile(const std::vector<double>& samples, double p);

/// CPU time used so far by every thread of this process, in ms
/// (CLOCK_PROCESS_CPUTIME_ID). On a shared host the scheduler decides how
/// long a job waits for a core, but not how much CPU it uses: the kernel
/// leaves time a vCPU was stolen by the hypervisor out of this clock.
double ProcessCpuMs();

/// Median over windows of each window's completions per ms-clock second,
/// from the clock's readings at each completion (ascending) and at the
/// start. With the process CPU clock, jobs per CPU-second.
double WindowedRate(const std::vector<double>& done_ms, double start_ms);

/// Jobs per CPU-second of each complete pass over a cycled list of
/// `pass_len` jobs, from per-job CPU ms taken in list order. Every pass has
/// the same job mix, so passes compare where windows would not.
std::vector<double> PassRates(const std::vector<double>& cpu_ms,
                              size_t pass_len);

/// Prints a timing's windowed p50/p90 with its sample and window counts.
void PrintTiming(const char* name, const std::vector<double>& samples);

/// How late an open-loop operation started relative to its schedule;
/// early starts count as on time.
inline double LatenessMs(double due_ms, double started_ms) {
  return started_ms > due_ms ? started_ms - due_ms : 0.0;
}

/// Heap memory this process holds, in MB: the bytes allocated and not yet
/// freed, in every malloc arena and in mmapped chunks (mallinfo2). Unlike
/// resident set sizes, it does not depend on which file pages the page
/// cache keeps (peak RSS of one run read 13.7 and 7.6 MB on the same VM)
/// or on how the arenas of several threads fragmented.
double HeapInUseMb();

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `failed` counts rejected, errored and
/// wrong-output operations among `attempted`.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
};

/// The result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Non-finite values print as
/// 1e12 so the line stays valid JSON.
std::string ResultJson(const RunResult& result);

/// Times calls into the library from outside and keeps one span per call
/// in memory: stage name, job index, start and duration. Spans are written
/// out as Chrome trace-event JSON at the end of a traced run.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Runs `fn`, records its span under `stage`, returns its result.
  template <typename Fn>
  auto Time(const char* stage, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Record(stage, start, Clock::now());
    } else {
      auto out = fn();
      Record(stage, start, Clock::now());
      return out;
    }
  }

  void Record(const char* stage, Clock::time_point start,
              Clock::time_point end);
  void set_job(int64_t job) { job_ = job; }

  /// Busy ms and call count of one stage.
  double StageMs(std::string_view stage) const;
  uint64_t StageCalls(std::string_view stage) const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* stage;
    int64_t job;
    double start_us;
    double dur_us;
  };
  Clock::time_point origin_;
  int64_t job_ = -1;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
