// service-mix: an in-process cvcp_serve under the service's operation mix
// (cold-dataset FOSC jobs, warm resubmissions that publish a new version
// with fsync, MPCK jobs, and Fetches of earlier versions), in two phases
// of equal length.
//
// The open loop: independent clients arrive on a seeded schedule, in
// blocks alternating between a light and a heavy absolute rate. One
// generator thread submits and fetches on schedule and three waiter
// threads collect results, so the load is four threads and four
// connections. It gives the latencies from the due time, the generator's
// lateness and the backlog, which are printed, and heap_mb.
//
// The closed loop: four clients, each submitting its next operation as
// soon as the previous one completed, keep the server saturated. It gives
// jobs_per_cpu_s, the jobs completed per CPU-second of the whole process
// (server and clients). The open loop leaves the cores idle between
// arrivals, and on a shared VM the CPU cost of waking an idle core varied
// by +-20% from run to run; the saturated loop's by +-2-5%.
//
// Every served report must equal a direct RunJob of its spec byte for
// byte, and every Fetch must return the bytes first served for that
// version.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "core/dataset_cache.h"
#include "jobs.h"
#include "replay.h"
#include "service/client.h"
#include "service/dataset_resolver.h"
#include "service/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Open-loop offered load in operations/s (jobs are 75% of operations).
/// Fixed, never re-derived per run. A closed-loop probe of the mix
/// sustained 50-105 jobs/s over ten probes of seeds 1-4, median 72, on
/// the commit that introduced this benchmark (4-vCPU VM, fsync-bound: cold
/// jobs persist nine artifacts); these rates offered about 25% and 50% of
/// that median. At 70% of a faster day's probe, one fsync stall grew a
/// backlog that set the heavy p90 of one run in five (374 ms against
/// ~25 ms). Each run's closed loop prints the saturation it reached.
constexpr double kLightRate = 24.0;
constexpr double kHeavyRate = 48.0;
/// Light and heavy rates alternate in blocks of this length, so both
/// sample the whole open loop (on a shared 4-vCPU VM, speed and fsync
/// latency drift over tens of seconds).
constexpr double kBlockMs = 2500.0;
constexpr int kSetupReps = 9;
constexpr int kWaiters = 3;
constexpr int kClosedClients = 4;
constexpr int kServerBatch = 1;
constexpr int kServerThreads = 2;
/// A run whose generator starts its operations later than this (p90) fell
/// behind its own schedule: its latencies are not an open-loop measure,
/// so it is reported invalid rather than slow.
constexpr double kLateBoundMs = 50.0;
/// Traced runs replay the warm base plus this many cold and MPCK specs.
constexpr size_t kTraceCold = 12;
constexpr size_t kTraceMpck = 8;

constexpr double kMissed = std::numeric_limits<double>::infinity();

cvcp::ServerConfig MakeConfig(const std::string& dir) {
  cvcp::ServerConfig config;
  config.socket_path = dir + "/s.sock";
  config.results_dir = dir + "/results";
  config.store_dir = dir + "/store";
  config.batch = kServerBatch;
  config.threads = kServerThreads;
  return config;
}

struct Served {
  uint64_t job_id = 0;
  std::string bytes;
};

/// A started server whose warm base specs have been served once.
struct Service {
  std::unique_ptr<cvcp::Server> server;
  std::string socket;
  std::vector<Served> base;
};

/// Starts a server over fresh directories and serves the base specs once:
/// all submitted first, then all collected, so the server stays busy.
cvcp::Status StartService(const std::string& dir,
                          const std::vector<cvcp::JobSpec>& base,
                          Service* service) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const cvcp::ServerConfig config = MakeConfig(dir);
  service->socket = config.socket_path;
  service->server = std::make_unique<cvcp::Server>(config);
  CVCP_RETURN_IF_ERROR(service->server->Start());
  CVCP_ASSIGN_OR_RETURN(cvcp::Client client,
                        cvcp::Client::Connect(service->socket));
  for (const cvcp::JobSpec& spec : base) {
    CVCP_ASSIGN_OR_RETURN(cvcp::SubmitReply submitted, client.Submit(spec));
    service->base.push_back({submitted.job_id, ""});
  }
  for (Served& served : service->base) {
    CVCP_ASSIGN_OR_RETURN(cvcp::ReportReply reply, client.Wait(served.job_id));
    served.bytes = std::move(reply.report_bytes);
  }
  return cvcp::Status::OK();
}

/// The completed versions a Fetch may target, shared by a loop's threads.
/// The bytes an entry points at are written before it is added and never
/// change.
class Completed {
 public:
  explicit Completed(const std::vector<Served>& base) {
    for (const Served& served : base) served_.push_back(&served);
  }
  void Add(const Served* served) {
    std::lock_guard<std::mutex> lock(mu_);
    served_.push_back(served);
  }
  const Served* Pick(uint64_t pick) {
    std::lock_guard<std::mutex> lock(mu_);
    return served_[pick % served_.size()];
  }

 private:
  std::mutex mu_;
  std::vector<const Served*> served_;
};

/// Client-side counts and samples of one loop.
struct LoopCounts {
  ServiceLayerSamples layer;
  uint64_t fetch_failures = 0;
};

/// Fetches the version `pick` selects and checks it returns the bytes
/// first served for it.
void FetchAndCheck(cvcp::Client& client, Completed& completed, uint64_t pick,
                   std::mutex& mu, LoopCounts* counts) {
  const Served* target = completed.Pick(pick);
  const Clock::time_point start = Clock::now();
  cvcp::Result<cvcp::ReportReply> reply = client.Fetch(target->job_id);
  const double ms = MsSince(start);
  std::lock_guard<std::mutex> lock(mu);
  counts->layer.fetch_ms.push_back(ms);
  if (!reply.ok() || reply->report_bytes != target->bytes) {
    ++counts->fetch_failures;
    std::fprintf(stderr, "fetch of job %llu: %s\n",
                 static_cast<unsigned long long>(target->job_id),
                 reply.ok() ? "bytes differ from the first served"
                            : reply.status().ToString().c_str());
  }
}

/// Counts a failed submit as rejected (admission backpressure) or errored.
void CountSubmitFailure(const cvcp::Status& status, LoopCounts* counts) {
  if (status.code() == cvcp::StatusCode::kResourceExhausted) {
    ++counts->layer.rejected;
  } else {
    ++counts->layer.errors;
    std::fprintf(stderr, "submit: %s\n", status.ToString().c_str());
  }
}

/// One submitted job of either loop.
struct Outcome {
  /// Open loop: due → result; closed loop: submit → result. kMissed on
  /// failure.
  double latency_ms = kMissed;
  Served served;
};

/// Client-side record of the open loop.
struct OpenRecord {
  std::vector<Outcome> outcomes;  ///< parallel to the schedule
  LoopCounts counts;
};

/// Runs the schedule against the service. The base versions served during
/// set-up are the first fetch targets.
OpenRecord RunOpenLoop(const std::vector<ServiceOp>& ops,
                       const Service& service) {
  OpenRecord record;
  record.outcomes.resize(ops.size());
  Completed completed(service.base);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> pending;
  bool generator_done = false;
  uint64_t outstanding = 0;

  const Clock::time_point origin = Clock::now();
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      cvcp::Result<cvcp::Client> client = cvcp::Client::Connect(service.socket);
      while (true) {
        size_t i = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !pending.empty() || generator_done; });
          if (pending.empty()) return;
          i = pending.front();
          pending.pop_front();
        }
        Outcome& outcome = record.outcomes[i];
        cvcp::Result<cvcp::ReportReply> reply =
            client.ok() ? client->Wait(outcome.served.job_id)
                        : cvcp::Result<cvcp::ReportReply>(client.status());
        const double now_ms = MsSince(origin);
        std::lock_guard<std::mutex> lock(mu);
        --outstanding;
        if (!reply.ok()) {
          ++record.counts.layer.errors;
          std::fprintf(stderr, "wait: %s\n", reply.status().ToString().c_str());
          continue;
        }
        outcome.served.bytes = std::move(reply->report_bytes);
        outcome.latency_ms = now_ms - ops[i].due_ms;
        completed.Add(&outcome.served);
      }
    });
  }

  cvcp::Result<cvcp::Client> client = cvcp::Client::Connect(service.socket);
  for (size_t i = 0; i < ops.size(); ++i) {
    const ServiceOp& op = ops[i];
    std::this_thread::sleep_until(
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(op.due_ms)));
    const double started_ms = MsSince(origin);
    {
      std::lock_guard<std::mutex> lock(mu);
      record.counts.layer.late_ms.push_back(LatenessMs(op.due_ms, started_ms));
      if (!client.ok()) {
        ++record.counts.layer.errors;
        continue;
      }
    }
    if (op.kind == ServiceOp::Kind::kFetch) {
      FetchAndCheck(*client, completed, op.pick, mu, &record.counts);
      continue;
    }
    const Clock::time_point start = Clock::now();
    cvcp::Result<cvcp::SubmitReply> submitted = client->Submit(op.spec);
    const double submit_ms = MsSince(start);
    std::lock_guard<std::mutex> lock(mu);
    record.counts.layer.submit_ms.push_back(submit_ms);
    if (!submitted.ok()) {
      CountSubmitFailure(submitted.status(), &record.counts);
      continue;
    }
    record.outcomes[i].served.job_id = submitted->job_id;
    pending.push_back(i);
    ++outstanding;
    record.counts.layer.backlog_max =
        std::max(record.counts.layer.backlog_max, outstanding);
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
  }
  cv.notify_all();
  for (std::thread& waiter : waiters) waiter.join();
  return record;
}

/// Record of the closed loop.
struct ClosedRecord {
  /// Every operation dealt, in deal order, and the jobs' outcomes (fetches
  /// leave theirs empty). A deque, so fetch targets stay put as it grows.
  std::vector<ServiceOp> ops;
  std::deque<Outcome> outcomes;
  double cpu_start_ms = 0.0;
  std::vector<double> done_cpu_ms;  ///< process CPU clock at each completed job
  double cpu_ms = 0.0;
  double wall_ms = 0.0;
  LoopCounts counts;
};

/// Runs kClosedClients closed-loop clients over the next operations of
/// `mix` for `ms`; each client finishes the operation it holds when time
/// is up.
ClosedRecord RunClosedLoop(ServiceMix* mix, const Service& service, double ms) {
  ClosedRecord record;
  Completed completed(service.base);
  std::mutex mu;
  const Clock::time_point start = Clock::now();
  record.cpu_start_ms = ProcessCpuMs();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClosedClients; ++c) {
    clients.emplace_back([&] {
      cvcp::Result<cvcp::Client> client = cvcp::Client::Connect(service.socket);
      if (!client.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        ++record.counts.layer.errors;
        return;
      }
      while (MsSince(start) < ms) {
        ServiceOp op;
        Outcome* outcome = nullptr;
        {
          std::lock_guard<std::mutex> lock(mu);
          op = mix->Next();
          record.ops.push_back(op);
          outcome = &record.outcomes.emplace_back();
        }
        if (op.kind == ServiceOp::Kind::kFetch) {
          FetchAndCheck(*client, completed, op.pick, mu, &record.counts);
          continue;
        }
        const Clock::time_point job_start = Clock::now();
        cvcp::Result<cvcp::SubmitReply> submitted = client->Submit(op.spec);
        cvcp::Result<cvcp::ReportReply> reply =
            submitted.ok() ? client->Wait(submitted->job_id)
                           : cvcp::Result<cvcp::ReportReply>(submitted.status());
        std::lock_guard<std::mutex> lock(mu);
        if (!submitted.ok()) {
          CountSubmitFailure(submitted.status(), &record.counts);
          continue;
        }
        if (!reply.ok()) {
          ++record.counts.layer.errors;
          std::fprintf(stderr, "wait: %s\n", reply.status().ToString().c_str());
          continue;
        }
        outcome->served = {submitted->job_id, std::move(reply->report_bytes)};
        outcome->latency_ms = MsSince(job_start);
        record.done_cpu_ms.push_back(ProcessCpuMs());
        completed.Add(&outcome->served);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  record.cpu_ms = ProcessCpuMs() - record.cpu_start_ms;
  record.wall_ms = MsSince(start);
  return record;
}

/// Direct in-process RunJob of every distinct spec, keyed by its encoding:
/// bytes and wall ms. Parallel over four lanes, or — for traced runs,
/// whose queue metric subtracts these walls — serial at the server's
/// fan-out width, with the warm base run once first so resubmissions
/// compare with a warm direct run, as they ran warm served.
struct Direct {
  std::string bytes;
  double ms = 0.0;
};

std::map<std::string, Direct> RunDirect(
    const std::vector<cvcp::JobSpec>& base,
    const std::vector<const std::vector<ServiceOp>*>& op_lists, bool serial,
    RunResult* out) {
  std::map<std::string, Direct> direct;
  std::vector<const cvcp::JobSpec*> specs;
  for (const cvcp::JobSpec& spec : base) {
    if (direct.emplace(cvcp::EncodeJobSpec(spec), Direct{}).second) {
      specs.push_back(&spec);
    }
  }
  for (const std::vector<ServiceOp>* ops : op_lists) {
    for (const ServiceOp& op : *ops) {
      if (op.kind != ServiceOp::Kind::kFetch &&
          direct.emplace(cvcp::EncodeJobSpec(op.spec), Direct{}).second) {
        specs.push_back(&op.spec);
      }
    }
  }
  cvcp::DatasetResolver resolver;
  cvcp::DatasetCachePool pool(256u << 20);
  std::vector<Direct> results(specs.size());
  std::atomic<bool> failed{false};
  auto run = [&](size_t s, int threads) {
    cvcp::Result<const cvcp::Dataset*> data = resolver.Resolve(*specs[s]);
    if (!data.ok()) {
      failed = true;
      return;
    }
    cvcp::JobContext context;
    context.cache = pool.For((*data)->points());
    context.exec.threads = threads;
    const Clock::time_point start = Clock::now();
    cvcp::Result<cvcp::CvcpReport> report = cvcp::RunJob(**data, *specs[s], context);
    results[s].ms = MsSince(start);
    if (!report.ok()) {
      failed = true;
      return;
    }
    results[s].bytes = cvcp::EncodeCvcpReport(report.value());
  };
  if (serial) {
    for (size_t s = 0; s < base.size(); ++s) run(s, kServerThreads);
    for (size_t s = 0; s < specs.size(); ++s) run(s, kServerThreads);
  } else {
    std::atomic<size_t> next{0};
    std::vector<std::thread> lanes;
    for (int lane = 0; lane < 4; ++lane) {
      lanes.emplace_back([&] {
        for (size_t s; (s = next.fetch_add(1)) < specs.size();) run(s, 1);
      });
    }
    for (std::thread& lane : lanes) lane.join();
  }
  if (failed) out->Fail("a direct RunJob of a served spec failed");
  for (size_t s = 0; s < specs.size(); ++s) {
    direct[cvcp::EncodeJobSpec(*specs[s])] = std::move(results[s]);
  }
  return direct;
}

/// Served jobs whose bytes differ from the direct RunJob of their spec;
/// each such outcome is marked missed.
uint64_t CountWrong(const std::vector<ServiceOp>& ops,
                    std::vector<Outcome*> outcomes,
                    std::map<std::string, Direct>& direct) {
  uint64_t wrong = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == ServiceOp::Kind::kFetch) continue;
    Outcome& outcome = *outcomes[i];
    if (outcome.latency_ms != kMissed &&
        outcome.served.bytes != direct[cvcp::EncodeJobSpec(ops[i].spec)].bytes) {
      ++wrong;
      outcome.latency_ms = kMissed;
    }
  }
  return wrong;
}

template <typename Container>
std::vector<Outcome*> Pointers(Container& outcomes) {
  std::vector<Outcome*> out;
  for (Outcome& outcome : outcomes) out.push_back(&outcome);
  return out;
}

}  // namespace

RunResult RunServiceMix(const Options& options) {
  RunResult out;
  const double total_ms = options.seconds * 1000.0;
  // Traced runs need only the open loop's client-side samples.
  const double open_ms = options.trace ? total_ms : total_ms / 2;
  ServiceMix mix(options.seed);
  const std::vector<ServiceOp> schedule =
      mix.Schedule(kLightRate, kHeavyRate, open_ms, kBlockMs);
  const std::string dir =
      options.workdir + "/svc-" + std::to_string(::getpid());

  // Set-up, repeated on fresh directories: server start (recovery of an
  // empty store) and the warm base served once, cold. The median of its
  // CPU time is reported.
  std::vector<double> setup_s;
  Service service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (service.server != nullptr) service.server->Stop(/*drain=*/true);
    service = Service{};
    const double start = ProcessCpuMs();
    const cvcp::Status started = StartService(dir, mix.base(), &service);
    if (!started.ok()) {
      out.Fail("service set-up: " + started.ToString());
      if (service.server != nullptr) service.server->Stop(/*drain=*/false);
      std::filesystem::remove_all(dir);
      return out;
    }
    setup_s.push_back((ProcessCpuMs() - start) / 1000.0);
  }

  OpenRecord open = RunOpenLoop(schedule, service);
  // Read before the closed loop, whose job count (and with it the number
  // of cold datasets kept resident) depends on the machine's speed.
  const double heap_mb = HeapInUseMb();
  ClosedRecord closed;
  if (!options.trace) closed = RunClosedLoop(&mix, service, total_ms - open_ms);
  service.server->Stop(/*drain=*/true);

  std::map<std::string, Direct> direct =
      RunDirect(mix.base(), {&schedule, &closed.ops}, options.trace, &out);
  uint64_t wrong = 0;
  for (size_t b = 0; b < mix.base().size(); ++b) {
    if (service.base[b].bytes != direct[cvcp::EncodeJobSpec(mix.base()[b])].bytes) {
      ++wrong;
    }
  }
  wrong += CountWrong(schedule, Pointers(open.outcomes), direct);
  wrong += CountWrong(closed.ops, Pointers(closed.outcomes), direct);
  std::vector<double> light_ms, heavy_ms;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const ServiceOp& op = schedule[i];
    if (op.kind == ServiceOp::Kind::kFetch) continue;
    const Outcome& outcome = open.outcomes[i];
    (op.heavy ? heavy_ms : light_ms).push_back(outcome.latency_ms);
    if (op.heavy && outcome.latency_ms != kMissed) {
      open.counts.layer.queue_ms.push_back(
          outcome.latency_ms - direct[cvcp::EncodeJobSpec(op.spec)].ms);
    }
  }
  const uint64_t fetch_failures =
      open.counts.fetch_failures + closed.counts.fetch_failures;
  if (wrong > 0) {
    out.Fail(std::to_string(wrong) + " served reports differ from direct RunJob");
  }
  if (fetch_failures > 0) {
    out.Fail(std::to_string(fetch_failures) +
             " fetches did not return the bytes first served");
  }
  const double late_p90 = WindowedPercentile(open.counts.layer.late_ms, 90);
  if (late_p90 > kLateBoundMs) {
    out.Fail("run invalid: the generator fell behind its schedule (p90 " +
             std::to_string(late_p90) + " ms late)");
  }
  const ServiceLayerSamples& layer = open.counts.layer;
  const ServiceLayerSamples& closed_layer = closed.counts.layer;
  out.attempted = schedule.size() + closed.ops.size();
  out.failed = layer.rejected + layer.errors + closed_layer.rejected +
               closed_layer.errors + wrong + fetch_failures;

  if (options.trace) {
    std::vector<cvcp::JobSpec> sample = mix.base();
    size_t cold = 0, mpck = 0;
    for (const ServiceOp& op : schedule) {
      if (op.kind == ServiceOp::Kind::kColdFosc && cold < kTraceCold) {
        sample.push_back(op.spec);
        ++cold;
      } else if (op.kind == ServiceOp::Kind::kMpck && mpck < kTraceMpck) {
        sample.push_back(op.spec);
        ++mpck;
      }
    }
    ReplayAndReport(sample, 1, dir + "/replay",
                    options.workdir + "/" + options.workload + ".trace.json",
                    &layer, &out);
    PrintTiming("service.submit.ms", layer.submit_ms);
    PrintTiming("service.fetch.ms", layer.fetch_ms);
    PrintTiming("service.queue.ms", layer.queue_ms);
  } else {
    std::vector<double> closed_ms;
    for (size_t i = 0; i < closed.ops.size(); ++i) {
      if (closed.ops[i].kind != ServiceOp::Kind::kFetch) {
        closed_ms.push_back(closed.outcomes[i].latency_ms);
      }
    }
    PrintTiming("light.job_ms", light_ms);
    PrintTiming("job_ms", heavy_ms);
    PrintTiming("closed.job_ms", closed_ms);
    std::printf("open loop: rejected %llu, errors %llu, backlog max %llu, "
                "generator late p90 %.3f ms\n",
                static_cast<unsigned long long>(layer.rejected),
                static_cast<unsigned long long>(layer.errors),
                static_cast<unsigned long long>(layer.backlog_max), late_p90);
    std::printf("closed loop: %zu jobs of %zu operations in %.0f ms, %.2f "
                "jobs/s, CPU %.0f ms; set-up CPU median of %d\n",
                closed.done_cpu_ms.size(), closed.ops.size(), closed.wall_ms,
                closed.done_cpu_ms.size() / (closed.wall_ms / 1000.0),
                closed.cpu_ms, kSetupReps);
    out.Add("setup_s", Percentile(setup_s, 50), "s");
    out.Add("jobs_per_cpu_s",
            WindowedRate(closed.done_cpu_ms, closed.cpu_start_ms), "1/s");
    out.Add("ok_frac", 1.0 - static_cast<double>(out.failed) / out.attempted,
            "ratio");
    out.Add("heap_mb", heap_mb, "MB");
  }
  std::filesystem::remove_all(dir);
  return out;
}

}  // namespace perfbench
