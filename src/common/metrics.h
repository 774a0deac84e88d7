#ifndef DATACON_COMMON_METRICS_H_
#define DATACON_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace datacon {

/// A monotonic wall-clock timer. Construction starts it; ElapsedNs reads it
/// without stopping. Backed by steady_clock, so it is immune to NTP jumps —
/// the right clock for profiling, the wrong one for timestamps.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  int64_t ElapsedNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNs()) * 1e-9;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Renders a nanosecond duration human-readably ("412 ns", "3.21 ms",
/// "1.05 s") with three significant digits.
std::string FormatDurationNs(int64_t ns);

/// Renders a system-clock timestamp (microseconds since the Unix epoch) as
/// ISO 8601 UTC with microsecond precision: "2026-08-09T12:34:56.789012Z".
std::string FormatWallTimeUs(int64_t us);

/// An insertion-ordered registry of named integer counters. Insertion order
/// is preserved so serialized output is stable across runs — a requirement
/// for the profile-determinism regression test. Lookup is linear; counter
/// sets are small (a dozen names) and hot-path increments go through a
/// pointer obtained once, not through the name.
class CounterSet {
 public:
  /// Adds `delta` to `name`, creating the counter at zero first.
  void Add(std::string_view name, int64_t delta);

  /// The counter's value, or 0 if it was never added to.
  int64_t Get(std::string_view name) const;

  bool empty() const { return entries_.empty(); }

  const std::vector<std::pair<std::string, int64_t>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, int64_t>> entries_;
};

/// One node of an evaluation profile tree (the EXPLAIN ANALYZE payload):
/// a name, elapsed wall time, and two counter sets —
///
///  - `counters`: logical work counters (tuples considered, index probes,
///    fixpoint rounds, delta sizes). These are bit-identical at every
///    thread-count setting; the determinism test diffs them.
///  - `exec`: scheduling-dependent execution detail (chunks dispatched,
///    snapshot materializations). Reported, but excluded from the
///    determinism digest because they legitimately vary with PRAGMA THREADS.
///
/// Serializes to an indented human-readable tree (ToText) and to JSON
/// (ToJson); CounterDigest is the canonical timing-free, exec-free JSON used
/// to assert profile equality across thread counts.
class ProfileNode {
 public:
  explicit ProfileNode(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Appends a child and returns it (owned by this node).
  ProfileNode* AddChild(std::string name);

  CounterSet& counters() { return counters_; }
  const CounterSet& counters() const { return counters_; }
  CounterSet& exec() { return exec_; }
  const CounterSet& exec() const { return exec_; }

  void set_elapsed_ns(int64_t ns) { elapsed_ns_ = ns; }
  /// Negative when no timing was recorded for this node.
  int64_t elapsed_ns() const { return elapsed_ns_; }

  const std::vector<std::unique_ptr<ProfileNode>>& children() const {
    return children_;
  }

  /// Depth-first search by node name; nullptr when absent. Test helper.
  const ProfileNode* Find(std::string_view name) const;

  /// Indented tree, one node per line (two spaces per level, this node at
  /// `depth`), counters appended as `k=v`; exec counters are prefixed with
  /// `~` to mark them scheduling-dependent.
  std::string ToText(int depth = 0) const;

  /// Full JSON: {"name":..,"elapsed_ns":..,"counters":{..},"exec":{..},
  /// "children":[..]}.
  std::string ToJson() const;

  /// JSON with wall times and exec counters stripped: equal strings at
  /// THREADS=1 and THREADS=N is the parallel-determinism contract.
  std::string CounterDigest() const;

 private:
  void AppendText(std::string* out, int depth) const;
  void AppendJson(std::string* out, bool deterministic_only) const;

  std::string name_;
  CounterSet counters_;
  CounterSet exec_;
  int64_t elapsed_ns_ = -1;
  std::vector<std::unique_ptr<ProfileNode>> children_;
};

/// A fixed-bucket log-scale histogram of non-negative integer samples
/// (latencies in ns, round counts, tuple counts). Bucket i >= 1 covers
/// [2^(i-1), 2^i - 1]; bucket 0 holds zeros (and clamps negatives). All
/// counters are relaxed atomics, so concurrent Record calls from worker
/// threads need no lock and never lose a sample; count/sum/bucket reads
/// taken while writers run are individually exact though not mutually
/// atomic (fine for monitoring output).
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(int64_t value);

  /// Adds every bucket/count/sum of `other` into this histogram and raises
  /// max — the cross-thread merge operation.
  ///
  /// Contract: `other` should be quiescent (no concurrent Record) for an
  /// exact merge. The bucket array and count/sum/max are read as separate
  /// relaxed loads, so merging from a live source can capture a state no
  /// single moment had — e.g. a count that exceeds the sum of the copied
  /// buckets. Such torn merges never corrupt this histogram's own
  /// invariants beyond that same benign skew, and Percentile stays robust
  /// to it (rank is clamped to the observed bucket mass).
  void MergeFrom(const Histogram& other);

  void Reset();

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// The value at quantile `q` in [0, 1]: the upper bound of the first
  /// bucket whose cumulative count reaches ceil(q * count), clamped to the
  /// recorded max (so p100 of a single sample is that sample, not its
  /// bucket's upper bound). 0 when empty. The rank is additionally clamped
  /// to the bucket mass actually observed during the scan, so a torn
  /// MergeFrom (count ahead of the buckets) yields the largest observed
  /// bucket's bound instead of scanning past the last bucket into a
  /// potentially bogus max().
  int64_t Percentile(double q) const;

  /// {"count":..,"sum":..,"max":..,"p50":..,"p95":..,"p99":..}
  std::string ToJson() const;

  /// "count=5 sum=123 p50=32 p95=64 p99=64 max=57"
  std::string ToText() const;

  /// Appends this histogram's Prometheus samples: the cumulative
  /// `<name>_bucket{le="..."}` series with power-of-two upper bounds up to
  /// the highest occupied bucket, then `le="+Inf"`, `<name>_sum`, and
  /// `<name>_count`. The `+Inf` bucket and `_count` always agree even after
  /// a torn MergeFrom (both report max(bucket mass, count)).
  void AppendPrometheus(std::string* out, const std::string& name) const;

 private:
  static size_t BucketIndex(int64_t value);

  /// Test backdoor: lets the torn-merge regression test construct a
  /// histogram whose count disagrees with its bucket totals without racing
  /// real threads. Defined by the test only.
  friend struct HistogramPeer;

  std::array<std::atomic<int64_t>, kBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

/// A named monotonic event counter (cache hits, invalidations, ...): the
/// discrete-event counterpart of Histogram. Relaxed atomic increments —
/// safe from any thread, read with value().
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// An insertion-ordered registry of named histograms and counters — the
/// continuous-observability counterpart of the per-query ProfileNode tree.
/// Every `Database` owns one (so concurrent databases never contend or
/// cross-contaminate); the evaluation layer feeds it per query (end-to-end
/// latency, fixpoint rounds, tuples derived, seed tuples pruned) and the
/// cache/constraint subsystems feed their counters. `SHOW METRICS;` reads
/// the owning database's registry; ProcessMetrics() aggregates registries
/// of retired databases for process-wide artifacts. Registration takes a
/// mutex; returned Histogram/Counter pointers are stable for the registry's
/// lifetime, so hot paths record through a pointer without any registry
/// lock.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The histogram named `name`, created empty on first use. Insertion
  /// order is preserved in both exports.
  Histogram* GetHistogram(std::string_view name);

  /// The counter named `name`, created at zero on first use. Insertion
  /// order is preserved in both exports; returned pointers are stable for
  /// the registry's lifetime.
  Counter* GetCounter(std::string_view name);

  /// Resets every histogram's samples and every counter's value (names
  /// stay registered) — REPL-session hygiene.
  void Reset();

  /// Folds every histogram and counter of `other` into this registry,
  /// creating names on first sight (insertion order: existing names keep
  /// their slot, new names append in `other`'s order). `other` should be
  /// quiescent for an exact merge; a live source yields the same benign
  /// torn-merge skew as Histogram::MergeFrom. Never holds both registry
  /// locks at once, so opposing merges cannot deadlock.
  void MergeFrom(const MetricsRegistry& other);

  /// {"histograms":{"query.latency_ns":{...},...},"counters":{"cache.hits":N,...}}
  std::string ToJson() const;

  /// One line per histogram: "name  count=.. p50=.. p95=.. p99=.. max=..";
  /// names ending in "_ns" additionally render the percentiles as
  /// human-readable durations. Counters follow, one "name  count=N" line
  /// each.
  std::string ToText() const;

  /// Prometheus text exposition (format 0.0.4). Metric names are prefixed
  /// `datacon_` with dots mapped to underscores; counters render as
  /// `<name>_total`, histograms as cumulative `<name>_bucket{le="..."}`
  /// series (power-of-two upper bounds) plus `<name>_sum`/`<name>_count`.
  std::string ToPrometheus() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> entries_
      DATACON_GUARDED_BY(mu_);
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_
      DATACON_GUARDED_BY(mu_);
};

/// The process-level aggregator (never destroyed): the ONLY process-wide
/// metrics state. Databases merge their registry into it on destruction, so
/// benchmark artifacts and end-of-process dumps see the union of all work
/// done, while live accounting stays per-database. Nothing records into it
/// directly — feed it exclusively via MergeFrom.
MetricsRegistry& ProcessMetrics();

/// A bounded log of the slowest statements seen by a Database: at most
/// `capacity` entries, always the slowest-so-far, ordered slowest-first.
/// When full, recording a new slow statement evicts the fastest retained
/// entry; statements under the threshold are never recorded. Thread-safe
/// (one mutex; recording is rare by construction — slow queries only).
class SlowQueryLog {
 public:
  struct Entry {
    std::string statement;
    int64_t elapsed_ns = 0;
    /// Compact evaluation digest: flat stats summary plus, when profiling
    /// was on, the indented profile tree.
    std::string digest;
    /// Monotonic admission number — older entries have smaller sequences,
    /// which breaks latency ties in eviction (oldest evicted first).
    uint64_t sequence = 0;
    /// Capture timestamps, taken inside Record: `steady_ns` is nanoseconds
    /// on the TraceRecorder epoch (correlates with `--trace-out` Chrome
    /// traces); `wall_us` is system-clock microseconds since the Unix epoch
    /// (correlates with the outside world). -1/0 when never recorded.
    int64_t steady_ns = -1;
    int64_t wall_us = 0;
  };

  explicit SlowQueryLog(size_t capacity = 16) : capacity_(capacity) {}

  /// Minimum latency for admission. 0 admits everything (the log still
  /// retains only the N slowest).
  void set_threshold_ns(int64_t ns);
  int64_t threshold_ns() const;

  /// Cheap admission pre-check: true when a Record call with this latency
  /// would retain an entry right now. Lets callers skip building the
  /// statement/digest strings for queries that would be dropped anyway.
  bool WouldRecord(int64_t elapsed_ns) const;

  void Record(std::string statement, int64_t elapsed_ns, std::string digest);

  /// Entries sorted slowest-first (ties: older first).
  std::vector<Entry> Entries() const;

  void Clear();

  /// The `SHOW SLOWLOG;` rendering.
  std::string ToText() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  int64_t threshold_ns_ DATACON_GUARDED_BY(mu_) = 0;
  uint64_t next_sequence_ DATACON_GUARDED_BY(mu_) = 0;
  // Kept sorted slowest-first.
  std::vector<Entry> entries_ DATACON_GUARDED_BY(mu_);
};

}  // namespace datacon

#endif  // DATACON_COMMON_METRICS_H_
