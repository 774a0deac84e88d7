#ifndef DATACON_COMMON_EVENTLOG_H_
#define DATACON_COMMON_EVENTLOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "common/trace.h"

namespace datacon {

/// One key/value field attached to a structured event: the trace span
/// argument type, so one projection serves both surfaces (the JSONL
/// serialization emits integers unquoted).
using EventField = TraceArg;

/// One recorded event: an admission sequence number, a steady/wall clock
/// pair captured at emission (the steady stamp shares the TraceRecorder
/// epoch so events correlate with --trace-out spans; the wall stamp places
/// them in calendar time), a dotted type name ("query.finish",
/// "cache.hit", ...), and typed detail fields.
struct Event {
  uint64_t seq = 0;
  int64_t steady_ns = 0;
  int64_t wall_us = 0;
  std::string type;
  std::vector<EventField> fields;
};

/// A bounded ring of structured events — the machine-readable counterpart
/// of the trace recorder, scoped per Database rather than process-wide.
/// Event types: query.start / query.finish (latency + EvalStats digest +
/// resource attribution), cache.hit / cache.delta / cache.invalidate,
/// constraint.violation, specialize.fallback, slowlog.admit.
///
/// Cost model, mirroring TraceRecorder:
///  - Disabled (the default), the only work on an instrumented path is one
///    relaxed atomic load (`enabled()`); no allocation, no locking, no
///    clock read. Callers must guard field construction behind it.
///  - Enabled, emission takes the ring mutex. Events are per-query-rare
///    (never per-tuple), so the lock is uncontended in practice; the ring
///    is bounded, so an abandoned enabled log cannot grow without bound —
///    once full, each emission overwrites the oldest event and `dropped()`
///    counts the loss.
///
/// Emission never feeds logical counters: EvalStats stays bit-identical
/// with events ON or OFF (pinned by the corpus neutrality test).
class EventLog {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  explicit EventLog(size_t capacity = kDefaultCapacity);
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// The instrumentation guard: one relaxed atomic load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Turns emission on/off. Enabling does not clear retained events.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Records one event, stamping seq and both clocks under the ring lock —
  /// so sequence order and steady-timestamp order always agree (the JSONL
  /// monotonicity the validator checks). No-op when disabled.
  void Emit(std::string type, std::vector<EventField> fields);

  /// Retained events, oldest first.
  std::vector<Event> Events() const;

  /// Events overwritten since construction (ring wrap).
  uint64_t dropped() const;

  void Clear();

  /// One JSON object per line, oldest first:
  /// {"seq":N,"steady_ns":N,"wall_us":N,"type":"...",<fields...>}.
  std::string ToJsonl() const;

  /// The `SHOW EVENTS;` rendering: one "#seq  <wall time>  type  k=v" line
  /// per event, oldest first, with a trailing drop note when the ring
  /// wrapped.
  std::string ToText() const;

 private:
  std::atomic<bool> enabled_{false};
  const size_t capacity_;
  mutable std::mutex mu_;
  /// Ring storage: event with sequence s lives in slot s % capacity_.
  std::vector<Event> ring_ DATACON_GUARDED_BY(mu_);
  uint64_t next_seq_ DATACON_GUARDED_BY(mu_) = 0;
  size_t size_ DATACON_GUARDED_BY(mu_) = 0;
};

}  // namespace datacon

#endif  // DATACON_COMMON_EVENTLOG_H_
