#include "exec/scheduler.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "obs/metrics.h"

namespace seq {

const char* QueryPriorityName(QueryPriority priority) {
  switch (priority) {
    case QueryPriority::kLow:
      return "low";
    case QueryPriority::kNormal:
      return "normal";
    case QueryPriority::kHigh:
      return "high";
  }
  return "unknown";
}

int ValidatedEnvInt(const char* name, int min_value, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  constexpr long kMax = 1 << 20;  // far beyond any sane thread/query count
  if (errno != 0 || end == env || *end != '\0' || v < min_value || v > kMax) {
    std::cerr << "seq: ignoring invalid " << name << "='" << env
              << "' (expected an integer in [" << min_value << ", " << kMax
              << "]); using " << fallback << "\n";
    return fallback;
  }
  return static_cast<int>(v);
}

int DefaultSchedWorkers() {
  static const int kWorkers = [] {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return ValidatedEnvInt("SEQ_SCHED_WORKERS", 1, hw > 0 ? hw : 4);
  }();
  return kWorkers;
}

/// One parallel query's unit of scheduling: a run-this-index closure plus
/// FIFO claim/completion counters, all guarded by the scheduler mutex
/// (claims are one counter bump per morsel — noise next to a morsel's
/// >= 256 positions of work).
struct QueryScheduler::TaskGroup {
  std::function<void(size_t)> run;
  size_t n_tasks = 0;
  size_t next = 0;  ///< next unclaimed task index (FIFO)
  size_t done = 0;
  int active = 0;  ///< workers currently inside run()
  int share_cap = 1;
  int priority = static_cast<int>(QueryPriority::kNormal);
  uint64_t arrival = 0;
  std::condition_variable done_cv;

  bool runnable() const { return next < n_tasks && active < share_cap; }
};

/// One query waiting for an admission slot. Stack-allocated in Admit;
/// stays in the wait queue only while its owner blocks there, so raw
/// pointers are safe.
struct QueryScheduler::Waiter {
  int priority = static_cast<int>(QueryPriority::kNormal);
  uint64_t arrival = 0;
  bool granted = false;
};

/// One registered checkpoint-capable runner. The token is shared with the
/// runner's Preemption handle (and through it with the executor's chunk
/// loop), so a fired request stays visible after unregistration.
struct QueryScheduler::PreemptEntry {
  std::shared_ptr<std::atomic<bool>> token;
  int priority = static_cast<int>(QueryPriority::kNormal);
  uint64_t id = 0;
};

QueryScheduler::QueryScheduler()
    : target_workers_(DefaultSchedWorkers()),
      max_running_(std::max(2 * DefaultSchedWorkers(), 8)),
      max_queued_(256) {}

QueryScheduler::~QueryScheduler() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_ = true;
  worker_cv_.notify_all();
  // Workers release mu_ as their last touch of this object before thread
  // exit, and exit_cv_'s wait reacquires it — so once live_workers_ reads
  // zero here, no worker can reference the scheduler again.
  exit_cv_.wait(lock, [this] { return live_workers_ == 0; });
}

QueryScheduler& QueryScheduler::Global() {
  static QueryScheduler* scheduler = new QueryScheduler();
  return *scheduler;
}

QueryScheduler::Admission& QueryScheduler::Admission::operator=(
    Admission&& other) noexcept {
  if (this != &other) {
    Release();
    scheduler_ = other.scheduler_;
    queue_wait_us_ = other.queue_wait_us_;
    other.scheduler_ = nullptr;
  }
  return *this;
}

void QueryScheduler::Admission::Release() {
  if (scheduler_ != nullptr) {
    scheduler_->ReleaseSlot();
    scheduler_ = nullptr;
  }
}

Result<QueryScheduler::Admission> QueryScheduler::Admit(
    const AdmitRequest& request) {
  // Hot metric objects resolved once; the registries are leaked process
  // singletons, so the references never dangle.
  static MetricCounter& admitted_metric =
      MetricsRegistry::Global().Counter("sched.admitted");
  static MetricCounter& queued_metric =
      MetricsRegistry::Global().Counter("sched.queued");
  static MetricCounter& rejected_full_metric =
      MetricsRegistry::Global().Counter("sched.rejected_queue_full");
  static MetricCounter& rejected_timeout_metric =
      MetricsRegistry::Global().Counter("sched.rejected_timeout");
  static Histogram& wait_hist =
      MetricsRegistry::Global().GetHistogram("sched.queue_wait_us");

  const auto enter = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  if (max_running_ <= 0 || running_ < max_running_) {
    ++running_;
    peak_running_ = std::max(peak_running_, running_);
    ++admitted_;
    lock.unlock();
    admitted_metric.Add();
    wait_hist.Record(0.0);
    return Admission(this, 0);
  }

  if (wait_queue_.size() >= max_queued_) {
    ++rejected_queue_full_;
    std::ostringstream oss;
    oss << "scheduler admission queue is full (" << wait_queue_.size()
        << " queued, limit " << max_queued_ << "; running " << running_ << "/"
        << max_running_ << ")";
    lock.unlock();
    rejected_full_metric.Add();
    return Status::ResourceExhausted(oss.str());
  }

  Waiter waiter;
  waiter.priority = static_cast<int>(request.priority);
  waiter.arrival = next_arrival_++;
  wait_queue_.push_back(&waiter);
  ++queued_total_;
  queued_metric.Add();
  // Queue pressure: ask a lower-priority checkpointable runner to park
  // itself so this waiter's class makes progress.
  RequestPreemptionLocked(waiter.priority);

  std::optional<std::chrono::steady_clock::time_point> timeout_at;
  int64_t effective_timeout_ms = 0;
  if (request.timeout_ms > 0) {
    effective_timeout_ms = request.timeout_ms;
  } else if (request.timeout_ms == 0 && default_timeout_ms_ > 0) {
    effective_timeout_ms = default_timeout_ms_;
  }
  if (effective_timeout_ms > 0) {
    timeout_at = enter + std::chrono::milliseconds(effective_timeout_ms);
  }

  // Wait for a grant, polling cancellation / deadlines about every
  // millisecond. Every decision below is made while holding the mutex, so
  // a grant cannot race an abandonment: whoever gets the lock first wins.
  Status failure;
  bool timed_out = false;
  while (!waiter.granted) {
    admit_cv_.wait_for(lock, std::chrono::milliseconds(1),
                       [&] { return waiter.granted; });
    if (waiter.granted) break;
    const auto now = std::chrono::steady_clock::now();
    if (request.cancel != nullptr &&
        request.cancel->load(std::memory_order_relaxed)) {
      failure = Status::Cancelled("query cancelled by driver");
      break;
    }
    if (request.deadline.has_value() && now >= *request.deadline) {
      failure = Status::DeadlineExceeded(
          "query exceeded wall-clock budget while queued for admission");
      break;
    }
    if (timeout_at.has_value() && now >= *timeout_at) {
      timed_out = true;
      break;
    }
  }

  if (!waiter.granted) {
    wait_queue_.erase(
        std::find(wait_queue_.begin(), wait_queue_.end(), &waiter));
    if (timed_out) {
      ++rejected_timeout_;
      std::ostringstream oss;
      oss << "scheduler admission timed out after " << effective_timeout_ms
          << "ms (running " << running_ << "/" << max_running_ << ", "
          << wait_queue_.size() << " still queued)";
      failure = Status::ResourceExhausted(oss.str());
    }
    lock.unlock();
    if (timed_out) rejected_timeout_metric.Add();
    return failure;
  }

  // Granted: GrantSlotsLocked already took the running slot on our behalf.
  ++admitted_;
  const int64_t waited_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - enter)
          .count();
  lock.unlock();
  admitted_metric.Add();
  wait_hist.Record(static_cast<double>(waited_us));
  return Admission(this, waited_us);
}

void QueryScheduler::ReleaseSlot() {
  std::lock_guard<std::mutex> lock(mu_);
  --running_;
  GrantSlotsLocked();
}

QueryScheduler::Preemption& QueryScheduler::Preemption::operator=(
    Preemption&& other) noexcept {
  if (this != &other) {
    Release();
    scheduler_ = other.scheduler_;
    token_ = std::move(other.token_);
    id_ = other.id_;
    other.scheduler_ = nullptr;
    other.token_.reset();
  }
  return *this;
}

void QueryScheduler::Preemption::Release() {
  if (scheduler_ != nullptr) {
    scheduler_->UnregisterPreemptible(id_);
    scheduler_ = nullptr;
    token_.reset();
  }
}

QueryScheduler::Preemption QueryScheduler::RegisterPreemptible(
    QueryPriority priority) {
  Preemption handle;
  std::lock_guard<std::mutex> lock(mu_);
  PreemptEntry entry;
  entry.token = std::make_shared<std::atomic<bool>>(false);
  entry.priority = static_cast<int>(priority);
  entry.id = next_preempt_id_++;
  handle.scheduler_ = this;
  handle.token_ = entry.token;
  handle.id_ = entry.id;
  preemptible_.push_back(std::move(entry));
  return handle;
}

void QueryScheduler::UnregisterPreemptible(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = preemptible_.begin(); it != preemptible_.end(); ++it) {
    if (it->id == id) {
      preemptible_.erase(it);
      return;
    }
  }
}

void QueryScheduler::RequestPreemptionLocked(int waiter_priority) {
  static MetricCounter& suspend_metric =
      MetricsRegistry::Global().Counter("sched.suspend_requests");
  PreemptEntry* victim = nullptr;
  for (auto& entry : preemptible_) {
    if (entry.priority >= waiter_priority) continue;  // strictly lower only
    if (entry.token->load(std::memory_order_relaxed)) continue;  // asked
    if (victim == nullptr || entry.priority < victim->priority ||
        (entry.priority == victim->priority && entry.id < victim->id)) {
      victim = &entry;
    }
  }
  if (victim == nullptr) return;
  victim->token->store(true, std::memory_order_release);
  ++suspend_requests_;
  suspend_metric.Add();
}

void QueryScheduler::GrantSlotsLocked() {
  bool granted_any = false;
  while (!wait_queue_.empty() &&
         (max_running_ <= 0 || running_ < max_running_)) {
    auto best = std::min_element(
        wait_queue_.begin(), wait_queue_.end(),
        [](const Waiter* a, const Waiter* b) {
          if (a->priority != b->priority) return a->priority > b->priority;
          return a->arrival < b->arrival;  // FIFO within the class
        });
    (*best)->granted = true;
    wait_queue_.erase(best);
    ++running_;
    peak_running_ = std::max(peak_running_, running_);
    granted_any = true;
  }
  if (granted_any) admit_cv_.notify_all();
}

void QueryScheduler::RunGroup(size_t n_tasks, int share_cap,
                              QueryPriority priority,
                              const std::function<void(size_t)>& task,
                              const std::function<void()>& poll) {
  if (n_tasks == 0) return;
  auto group = std::make_shared<TaskGroup>();
  group->run = task;
  group->n_tasks = n_tasks;
  group->share_cap = std::max(share_cap, 1);
  group->priority = static_cast<int>(priority);

  std::unique_lock<std::mutex> lock(mu_);
  group->arrival = next_arrival_++;
  ++groups_total_;
  groups_.push_back(group);
  EnsureWorkersLocked();
  worker_cv_.notify_all();

  if (!poll) {
    group->done_cv.wait(lock, [&] { return group->done == group->n_tasks; });
    return;
  }
  // Wait/poll loop with the completion predicate re-checked before every
  // re-arm, so polling stops once the pending count hits zero. The poll
  // callback forwards the caller's cancellation flag to workers deep
  // inside a blocking operator; it must stop the instant the group
  // finishes so a completed query never observes a stale cancel.
  while (group->done < group->n_tasks) {
    group->done_cv.wait_for(lock, std::chrono::milliseconds(1),
                            [&] { return group->done == group->n_tasks; });
    if (group->done == group->n_tasks) break;
    lock.unlock();
    poll();
    lock.lock();
  }
}

void QueryScheduler::EnsureWorkersLocked() {
  while (live_workers_ < target_workers_) {
    ++live_workers_;  // counted before spawn so a burst cannot overspawn
    std::thread([this] { WorkerLoop(); }).detach();
  }
}

bool QueryScheduler::HasRunnableLocked() const {
  for (const auto& group : groups_) {
    if (group->runnable()) return true;
  }
  return false;
}

std::shared_ptr<QueryScheduler::TaskGroup> QueryScheduler::PickLocked() {
  int best_priority = -1;
  for (const auto& group : groups_) {
    if (group->runnable()) {
      best_priority = std::max(best_priority, group->priority);
    }
  }
  if (best_priority < 0) return nullptr;
  const size_t n = groups_.size();
  for (size_t k = 0; k < n; ++k) {
    const size_t i = (rr_cursor_ + k) % n;
    if (groups_[i]->priority == best_priority && groups_[i]->runnable()) {
      rr_cursor_ = (i + 1) % n;  // next pick starts past this query: fair RR
      return groups_[i];
    }
  }
  return nullptr;
}

void QueryScheduler::WorkerLoop() {
  static MetricCounter& tasks_metric =
      MetricsRegistry::Global().Counter("sched.tasks");
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    worker_cv_.wait(lock, [this] {
      return shutdown_ || live_workers_ > target_workers_ ||
             HasRunnableLocked();
    });
    if (shutdown_ || live_workers_ > target_workers_) {
      // Shutting down, or the pool shrank and this worker is excess.
      if (--live_workers_ == 0) exit_cv_.notify_all();
      return;
    }
    std::shared_ptr<TaskGroup> group = PickLocked();
    if (group == nullptr) continue;
    const size_t task_index = group->next++;
    ++group->active;
    if (group->next >= group->n_tasks) {
      // Fully claimed: out of the dispatch list (completion is signalled
      // on the group's own cv; the shared_ptr keeps it alive).
      groups_.erase(std::find(groups_.begin(), groups_.end(), group));
    }
    ++active_workers_;
    peak_active_workers_ = std::max(peak_active_workers_, active_workers_);
    ++tasks_total_;
    lock.unlock();
    tasks_metric.Add();
    group->run(task_index);
    lock.lock();
    --active_workers_;
    --group->active;
    if (++group->done == group->n_tasks) {
      group->done_cv.notify_all();
    } else if (group->next < group->n_tasks) {
      // Dropping below the share cap may have made this group runnable
      // for an idle worker again.
      worker_cv_.notify_one();
    }
  }
}

void QueryScheduler::SetWorkers(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  target_workers_ = std::max(n, 1);
  if (target_workers_ < live_workers_) {
    worker_cv_.notify_all();  // excess workers exit as they come idle
  } else if (!groups_.empty()) {
    EnsureWorkersLocked();
    worker_cv_.notify_all();
  }
  // Growing an idle pool spawns nothing: workers start lazily with the
  // next parallel query.
}

int QueryScheduler::workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return target_workers_;
}

void QueryScheduler::SetMaxRunning(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  max_running_ = std::max(n, 0);
  GrantSlotsLocked();  // a raised (or removed) limit admits waiters now
}

int QueryScheduler::max_running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_running_;
}

void QueryScheduler::SetMaxQueued(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  max_queued_ = n;
}

void QueryScheduler::SetDefaultTimeoutMs(int64_t ms) {
  std::lock_guard<std::mutex> lock(mu_);
  default_timeout_ms_ = ms > 0 ? ms : 0;
}

SchedulerStats QueryScheduler::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SchedulerStats stats;
  stats.workers = target_workers_;
  stats.live_workers = live_workers_;
  stats.active_workers = active_workers_;
  stats.peak_active_workers = peak_active_workers_;
  stats.running = running_;
  stats.peak_running = peak_running_;
  stats.max_running = max_running_;
  stats.queued = wait_queue_.size();
  stats.max_queued = max_queued_;
  stats.default_timeout_ms = default_timeout_ms_;
  stats.admitted = admitted_;
  stats.queued_total = queued_total_;
  stats.rejected_queue_full = rejected_queue_full_;
  stats.rejected_timeout = rejected_timeout_;
  stats.groups = groups_total_;
  stats.tasks = tasks_total_;
  stats.preemptible = preemptible_.size();
  stats.suspend_requests = suspend_requests_;
  return stats;
}

std::string QueryScheduler::ToString() const {
  const SchedulerStats s = Stats();
  std::ostringstream oss;
  oss << "scheduler: " << s.workers << " worker(s) (" << s.live_workers
      << " live, " << s.active_workers << " active, peak "
      << s.peak_active_workers << ")\n";
  oss << "  admission: " << s.running << " running (peak " << s.peak_running
      << ", limit ";
  if (s.max_running > 0) {
    oss << s.max_running;
  } else {
    oss << "off";
  }
  oss << "), " << s.queued << " queued (limit " << s.max_queued
      << ", timeout ";
  if (s.default_timeout_ms > 0) {
    oss << s.default_timeout_ms << "ms";
  } else {
    oss << "off";
  }
  oss << ")\n";
  oss << "  totals: admitted=" << s.admitted << " (waited " << s.queued_total
      << "), rejected=" << s.rejected_queue_full << " queue-full + "
      << s.rejected_timeout << " timeout, groups=" << s.groups
      << ", tasks=" << s.tasks << "\n";
  oss << "  preemption: " << s.preemptible << " registered runner(s), "
      << s.suspend_requests << " suspend request(s)\n";
  return oss.str();
}

}  // namespace seq
