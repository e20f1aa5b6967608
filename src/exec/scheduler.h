#ifndef SEQ_EXEC_SCHEDULER_H_
#define SEQ_EXEC_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"

namespace seq {

/// Admission priority class of one query. Higher classes are admitted from
/// the wait queue first and their morsels are dispatched to workers first;
/// within a class everything is FIFO (arrival order) with per-query
/// round-robin morsel dispatch, so no class member can starve another.
enum class QueryPriority { kLow = 0, kNormal = 1, kHigh = 2 };

const char* QueryPriorityName(QueryPriority priority);

/// Strictly validated positive-integer environment parse shared by the
/// execution knobs (SEQ_PARALLELISM, SEQ_SCHED_WORKERS): the whole string
/// must be a decimal integer >= `min_value`. Anything else — garbage,
/// negative, zero where a positive count is required, trailing junk —
/// logs one warning to stderr and returns `fallback` instead of being
/// silently adopted.
int ValidatedEnvInt(const char* name, int min_value, int fallback);

/// Process-wide default for the scheduler's worker-pool size: the
/// SEQ_SCHED_WORKERS environment variable when set (validated), otherwise
/// std::thread::hardware_concurrency() (with a floor of 1).
int DefaultSchedWorkers();

/// Point-in-time scheduler counters for `.sched stats` and tests.
struct SchedulerStats {
  int workers = 0;          ///< configured pool size
  int live_workers = 0;     ///< threads currently alive in the pool
  int active_workers = 0;   ///< threads currently running a task
  int peak_active_workers = 0;
  int running = 0;          ///< queries holding an admission slot
  int peak_running = 0;
  int max_running = 0;      ///< admission limit (0 = unlimited)
  size_t queued = 0;        ///< queries waiting in the admission queue
  size_t max_queued = 0;    ///< wait-queue bound
  int64_t default_timeout_ms = 0;  ///< queue-timeout default (0 = none)
  int64_t admitted = 0;
  int64_t queued_total = 0;  ///< admissions that had to wait
  int64_t rejected_queue_full = 0;
  int64_t rejected_timeout = 0;
  int64_t groups = 0;  ///< task groups (parallel queries) executed
  int64_t tasks = 0;   ///< individual tasks (morsel claims) dispatched
  size_t preemptible = 0;       ///< checkpointable runners registered now
  int64_t suspend_requests = 0;  ///< preemptions requested under pressure
};

/// The process-wide query scheduler: ONE shared worker pool executing the
/// morsels of every parallel query in the process, fed through an
/// admission controller that bounds how many queries run at once.
///
/// The pool is a fixed, process-wide resource (default hardware
/// concurrency, SEQ_SCHED_WORKERS env, `.sched workers <n>` in seqsh) and
/// ExecOptions::parallelism is a per-query *share cap* — the most workers
/// that may run one query's morsels concurrently — not a thread count.
///
/// Scheduling is per-query fair round-robin: workers claim tasks one at a
/// time, rotating across the runnable task groups of the highest non-empty
/// priority class; within a group, tasks are claimed strictly FIFO, so
/// morsel order matches submission order. Results stay byte-identical to
/// serial regardless: the executor merges per-morsel output in morsel
/// order.
///
/// Admission: a query asking for parallel execution first takes an
/// admission slot. At most `max_running` queries hold slots; beyond that,
/// callers wait in a bounded priority queue (`max_queued`, rejection with
/// ResourceExhausted when full) until a slot frees, their admission
/// timeout elapses (ResourceExhausted), their wall-clock budget expires
/// (DeadlineExceeded — queue time counts toward max_wall_ms), or they are
/// cancelled. Serial queries never touch the scheduler and are never
/// queued or rejected — admission bounds *pool* load, and a serial query
/// uses only its caller's thread.
///
/// Lifecycle: a leaked process singleton (Global()), its worker threads
/// started lazily on the first parallel query and detached — they only
/// ever touch the leaked scheduler and the leaked metrics registries, so
/// process exit while they idle is safe.
class QueryScheduler {
 public:
  /// RAII admission slot. Releasing it (destruction) hands the slot to
  /// the best waiting query (highest priority class, earliest arrival).
  class Admission {
   public:
    Admission() = default;
    Admission(Admission&& other) noexcept { *this = std::move(other); }
    Admission& operator=(Admission&& other) noexcept;
    Admission(const Admission&) = delete;
    Admission& operator=(const Admission&) = delete;
    ~Admission() { Release(); }

    bool active() const { return scheduler_ != nullptr; }
    /// Time spent waiting in the admission queue (0 when a slot was free).
    int64_t queue_wait_us() const { return queue_wait_us_; }
    void Release();

   private:
    friend class QueryScheduler;
    Admission(QueryScheduler* scheduler, int64_t queue_wait_us)
        : scheduler_(scheduler), queue_wait_us_(queue_wait_us) {}
    QueryScheduler* scheduler_ = nullptr;
    int64_t queue_wait_us_ = 0;
  };

  /// Admission request: everything the controller needs to decide how
  /// long this query may wait and when the wait must be abandoned.
  struct AdmitRequest {
    QueryPriority priority = QueryPriority::kNormal;
    /// Longest acceptable queue wait: > 0 bounds it, 0 adopts the
    /// scheduler default, < 0 waits indefinitely (subject to deadline and
    /// cancellation).
    int64_t timeout_ms = 0;
    /// The query's wall-clock budget deadline (armed BEFORE admission, so
    /// queue time counts toward max_wall_ms). Expiry while queued returns
    /// DeadlineExceeded with the standard budget message.
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /// The caller's cooperative cancellation flag, polled while queued.
    const std::atomic<bool>* cancel = nullptr;
  };

  /// Blocks until this query holds an admission slot, or returns why it
  /// never will: ResourceExhausted (queue full / queue timeout),
  /// DeadlineExceeded (wall-clock budget expired while queued) or
  /// Cancelled. Immediate when a slot is free.
  Result<Admission> Admit(const AdmitRequest& request);

  /// RAII registration of a checkpoint-capable (suspendable) running
  /// query. While registered, the scheduler may set the flag when a
  /// higher-priority query has to wait for an admission slot — the
  /// runner is expected to suspend to a checkpoint at its next chunk
  /// boundary and release its slot (docs/robustness.md).
  class Preemption {
   public:
    Preemption() = default;
    Preemption(Preemption&& other) noexcept { *this = std::move(other); }
    Preemption& operator=(Preemption&& other) noexcept;
    Preemption(const Preemption&) = delete;
    Preemption& operator=(const Preemption&) = delete;
    ~Preemption() { Release(); }

    bool active() const { return scheduler_ != nullptr; }
    /// The flag the executor polls at chunk boundaries
    /// (CheckpointConfig::preempt).
    const std::atomic<bool>* flag() const { return token_.get(); }
    /// Clears a fired request so the runner can be preempted again after
    /// it resumed.
    void Rearm() {
      if (token_ != nullptr) token_->store(false, std::memory_order_release);
    }
    void Release();

   private:
    friend class QueryScheduler;
    QueryScheduler* scheduler_ = nullptr;
    std::shared_ptr<std::atomic<bool>> token_;
    uint64_t id_ = 0;
  };

  /// Registers the calling query (running at `priority`) as preemptible.
  /// Under admission-queue pressure the scheduler picks the
  /// lowest-priority registered runner whose class is strictly below the
  /// waiter's and sets its flag.
  Preemption RegisterPreemptible(QueryPriority priority);

  /// Runs `n_tasks` invocations of `task` (arguments 0..n_tasks-1) on the
  /// shared pool and returns when all have finished. At most `share_cap`
  /// workers run this group's tasks concurrently (the per-query fair
  /// share); tasks are dispatched FIFO. The calling thread does not
  /// execute tasks — it waits, invoking `poll` roughly every millisecond
  /// when set (cancellation forwarding), and stops polling the moment the
  /// group completes (the predicate is re-checked before every re-arm).
  /// Tasks must not call back into RunGroup or Admit.
  void RunGroup(size_t n_tasks, int share_cap, QueryPriority priority,
                const std::function<void(size_t)>& task,
                const std::function<void()>& poll = {});

  /// Resizes the worker pool (clamped to >= 1). Shrinking takes effect as
  /// excess workers finish their current task; tasks already running are
  /// never interrupted.
  void SetWorkers(int n);
  int workers() const;

  /// Admission limit: at most `n` queries hold slots at once (0 =
  /// unlimited). Raising it (or removing it) admits eligible waiters
  /// immediately.
  void SetMaxRunning(int n);
  int max_running() const;

  /// Bound of the admission wait queue; arrivals beyond it are rejected
  /// with ResourceExhausted. 0 rejects the instant no slot is free.
  void SetMaxQueued(size_t n);

  /// Default queue timeout applied when AdmitRequest::timeout_ms == 0.
  /// 0 (the initial value) means no timeout.
  void SetDefaultTimeoutMs(int64_t ms);

  SchedulerStats Stats() const;

  /// Human-readable stats block for the seqsh `.sched` command.
  std::string ToString() const;

  /// The process-global scheduler every parallel query runs on.
  static QueryScheduler& Global();

  QueryScheduler();
  /// Shuts the worker pool down: wakes every idle worker and blocks until
  /// all of them have exited. The caller must have no RunGroup or Admit in
  /// flight. (The Global() instance is leaked and never runs this; local
  /// instances — tests — need it so detached workers never outlive the
  /// scheduler they reference.)
  ~QueryScheduler();
  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

 private:
  struct TaskGroup;
  struct Waiter;
  struct PreemptEntry;

  void ReleaseSlot();
  void UnregisterPreemptible(uint64_t id);
  /// Called when a waiter of class `waiter_priority` has to queue: flags
  /// the best victim among the registered preemptible runners.
  void RequestPreemptionLocked(int waiter_priority);
  void EnsureWorkersLocked();
  void WorkerLoop();
  /// True when some group has an unclaimed task and a free share slot.
  bool HasRunnableLocked() const;
  /// The next group to serve: highest priority class first, then
  /// round-robin rotation across that class's runnable groups.
  std::shared_ptr<TaskGroup> PickLocked();
  /// Hands freed slots to waiting queries (best class, earliest arrival).
  void GrantSlotsLocked();

  mutable std::mutex mu_;
  std::condition_variable worker_cv_;  ///< workers: "a task may be runnable"
  std::condition_variable admit_cv_;   ///< admission waiters
  std::condition_variable exit_cv_;    ///< destructor: "all workers gone"

  // Worker pool (guarded by mu_).
  bool shutdown_ = false;
  int target_workers_;
  int live_workers_ = 0;
  int active_workers_ = 0;
  int peak_active_workers_ = 0;

  // Task groups of running queries (guarded by mu_). A group leaves the
  // list once fully claimed; completion is signalled on its own cv.
  std::vector<std::shared_ptr<TaskGroup>> groups_;
  size_t rr_cursor_ = 0;

  // Admission (guarded by mu_).
  int max_running_;
  size_t max_queued_;
  int64_t default_timeout_ms_ = 0;
  int running_ = 0;
  int peak_running_ = 0;
  uint64_t next_arrival_ = 0;
  std::vector<Waiter*> wait_queue_;

  // Preemptible (checkpoint-capable) runners (guarded by mu_).
  std::vector<PreemptEntry> preemptible_;
  uint64_t next_preempt_id_ = 1;

  // Monotonic totals (guarded by mu_; cheap, cold-path updates).
  int64_t admitted_ = 0;
  int64_t queued_total_ = 0;
  int64_t rejected_queue_full_ = 0;
  int64_t rejected_timeout_ = 0;
  int64_t groups_total_ = 0;
  int64_t tasks_total_ = 0;
  int64_t suspend_requests_ = 0;
};

}  // namespace seq

#endif  // SEQ_EXEC_SCHEDULER_H_
