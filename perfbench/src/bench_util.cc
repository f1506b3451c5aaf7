#include "bench_util.h"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

uint64_t BenchRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double BenchRng::Uniform01() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t BenchRng::Index(uint64_t n) { return Next() % n; }

uint64_t Fnv1a64(std::string_view bytes, uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

size_t SamplesBeyond(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const size_t at = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return n > at ? n - at : 0;
}

size_t WindowsFor(size_t n) {
  return std::clamp<size_t>(n / kMinWindowSamples, 1, 8);
}

double WindowedPercentile(const std::vector<double>& samples, double p) {
  const size_t windows = WindowsFor(samples.size());
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = samples.size() * w / windows;
    const size_t end = samples.size() * (w + 1) / windows;
    per_window.push_back(Percentile(
        std::vector<double>(samples.begin() + begin, samples.begin() + end), p));
  }
  return Percentile(per_window, 50);
}

double WindowedRate(const std::vector<double>& done_ms, double start_ms) {
  const size_t windows = WindowsFor(done_ms.size());
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = done_ms.size() * w / windows;
    const size_t end = done_ms.size() * (w + 1) / windows;
    const double from = begin == 0 ? start_ms : done_ms[begin - 1];
    per_window.push_back((end - begin) / ((done_ms[end - 1] - from) / 1000.0));
  }
  return Percentile(per_window, 50);
}

double ProcessCpuMs() {
  struct timespec now {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) / 1e6;
}

std::vector<double> PassRates(const std::vector<double>& cpu_ms,
                              size_t pass_len) {
  std::vector<double> per_pass;
  for (size_t begin = 0; pass_len > 0 && begin + pass_len <= cpu_ms.size();
       begin += pass_len) {
    double ms = 0.0;
    for (size_t i = begin; i < begin + pass_len; ++i) ms += cpu_ms[i];
    per_pass.push_back(pass_len / (ms / 1000.0));
  }
  return per_pass;
}

void PrintTiming(const char* name, const std::vector<double>& samples) {
  const size_t windows = WindowsFor(samples.size());
  std::printf("%-18s p50 %9.3f ms  p90 %9.3f ms  (%zu samples, median of %zu "
              "windows of >= %zu, each >= %zu beyond p90)\n",
              name, WindowedPercentile(samples, 50),
              WindowedPercentile(samples, 90), samples.size(), windows,
              samples.size() / windows,
              SamplesBeyond(samples.size() / windows, 90));
}

double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 1e12;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + number +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void Tracer::Record(const char* stage, Clock::time_point start,
                    Clock::time_point end) {
  spans_.push_back(
      {stage, job_,
       std::chrono::duration<double, std::micro>(start - origin_).count(),
       std::chrono::duration<double, std::micro>(end - start).count()});
}

double Tracer::StageMs(std::string_view stage) const {
  double us = 0.0;
  for (const Span& span : spans_) {
    if (stage == span.stage) us += span.dur_us;
  }
  return us / 1000.0;
}

uint64_t Tracer::StageCalls(std::string_view stage) const {
  uint64_t calls = 0;
  for (const Span& span : spans_) {
    if (stage == span.stage) ++calls;
  }
  return calls;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"job\": %lld}}%s\n",
                 s.stage, s.start_us, s.dur_us, static_cast<long long>(s.job),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
