#ifndef CVCP_COMMON_PARALLEL_H_
#define CVCP_COMMON_PARALLEL_H_

/// \file
/// Data-parallel loops on top of the shared ThreadPool, plus the
/// `ExecutionContext` that configs use to say how many threads a
/// computation may use and the nested-budget planner that divides one
/// process-wide budget across nesting levels.
///
/// Nesting contract: ParallelFor may be called from anywhere, including
/// from inside another ParallelFor body running on a pool worker. The
/// caller always participates as a lane of its own loop and, once out of
/// work, *helps while waiting* — it pops queued tasks (its own loop's or
/// any other's) and executes them instead of blocking — so nested
/// fan-outs compose without deadlock and without idle threads, and the
/// process-wide OS-thread count never exceeds the pool size + 1.
///
/// Determinism contract (the engine's contract everywhere): for loop
/// bodies that write only to their own index's result slot, the output is
/// bit-identical for every thread count, every nesting plan, and every
/// execution order — parallelism changes wall time, never results.

#include <atomic>
#include <cstddef>
#include <functional>

#include "common/cancel.h"

namespace cvcp {

/// How much parallelism a computation may use. Plumbed through configs
/// (CvConfig, CvcpConfig, bench TrialSpec) down to the execution layer.
struct ExecutionContext {
  /// Worker threads to use. 0 ⇒ all hardware threads (the default);
  /// 1 ⇒ the exact serial code path, never touching the pool.
  int threads = 0;

  /// Cooperative cancellation for the work under this context. The
  /// default token never fires, so existing callers pay one null check.
  /// When it does fire, ParallelFor stops claiming new indices — callers
  /// that pass a live token must Check() it after the loop and treat
  /// untouched result slots as unavailable, never publish them. Code
  /// that publishes shared artifacts strips the token first (see
  /// DistanceMatrix::Compute) so a cancelled run can never leave a
  /// partial artifact behind. Like `threads`, the token changes whether
  /// a run completes, never the bytes of a completed result.
  CancelToken cancel;

  /// `threads`, with 0 resolved to the hardware concurrency (>= 1).
  int ResolvedThreads() const;

  /// Context that forces the serial code path.
  static ExecutionContext Serial() {
    ExecutionContext context;
    context.threads = 1;
    return context;
  }

  bool operator==(const ExecutionContext&) const = default;
};

/// A thread budget divided between two nesting levels: an outer
/// data-parallel loop and the parallel work nested inside each of its
/// iterations (e.g. trials outside, CVCP grid×fold cells inside).
struct NestedBudget {
  ExecutionContext outer;
  ExecutionContext inner;
};

/// Divides `exec`'s budget between an outer loop of `outer_size`
/// iterations and the work nested inside each iteration: the outer loop
/// gets min(outer_size, budget) lanes (at least one) and each lane's
/// nested work gets ceil(budget / lanes) threads, so outer lanes × inner
/// width ≈ budget (at most budget + lanes − 1; the pool's fixed thread
/// count is the hard physical cap). Help-while-waiting absorbs the
/// imbalance: a lane that finishes early executes other lanes' queued
/// inner cells, so the whole budget stays busy until the last cell of the
/// last lane. Both returned contexts have concrete (resolved) thread
/// counts, and results are identical to the serial schedule whenever the
/// loop bodies follow the engine's slot-writing discipline.
NestedBudget PlanBudget(const ExecutionContext& exec, size_t outer_size);

/// Runs `fn(i)` for every i in [0, n). With a resolved thread count of 1
/// this is a plain ascending loop; otherwise up to
/// `exec.ResolvedThreads()` lanes — the calling thread plus pool tasks —
/// claim indices dynamically in ascending order, so bodies with uneven
/// cost balance automatically. The caller is always one of the lanes, and
/// once indices run out it helps while waiting (executes queued pool
/// tasks — typically nested fan-outs' cells — until its own lanes
/// finish), so calls nest from any thread without deadlock or idle
/// threads. Blocks until all iterations finish — except that once
/// `exec.cancel` fires, lanes stop claiming new indices (in-flight
/// bodies still run to completion), so remaining slots may be skipped;
/// callers with a live token must Check() it after the call before
/// consuming results. Exceptions: the serial
/// path stops at the first throwing iteration; the pool path runs every
/// iteration and rethrows one of the thrown exceptions (which one is
/// scheduling-dependent) — fallible bodies should report through
/// per-index result slots (as ScoreGridOnFolds does) rather than throw.
void ParallelFor(const ExecutionContext& exec, size_t n,
                 const std::function<void(size_t)>& fn);

/// Tracks the lowest failing index of a ParallelFor fan-out whose
/// reduction is first-error-wins. Correct for *any* execution order (the
/// longest-first cell scheduler runs cells out of ascending order): only
/// indices *above* the lowest recorded failure are ever skipped, so every
/// index below it still runs and may record a lower failure; failures are
/// deterministic per index, so the minimum settles on exactly the index
/// the serial stop-at-first-error loop would have reported — the serial
/// error semantics, minus the wasted work above the failure.
class FirstErrorTracker {
 public:
  /// `n` = iteration count; "no failure yet" is represented as n.
  explicit FirstErrorTracker(size_t n) : first_{n} {}

  /// True when `i` is above the lowest recorded failure and its work can
  /// be skipped.
  bool ShouldSkip(size_t i) const {
    return i > first_.load(std::memory_order_relaxed);
  }

  /// Records a failure at `i` (atomic minimum).
  void Record(size_t i) {
    size_t lowest = first_.load(std::memory_order_relaxed);
    while (i < lowest &&
           !first_.compare_exchange_weak(lowest, i,
                                         std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<size_t> first_;
};

}  // namespace cvcp

#endif  // CVCP_COMMON_PARALLEL_H_
