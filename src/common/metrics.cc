#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "common/string_util.h"
#include "common/trace.h"

namespace datacon {

std::string FormatDurationNs(int64_t ns) {
  char buf[32];
  if (ns < 0) return "-";
  if (ns < 10'000) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 " ns", ns);
  } else if (ns < 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2f us",
                  static_cast<double>(ns) / 1e3);
  } else if (ns < 10'000'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2f ms",
                  static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", static_cast<double>(ns) / 1e9);
  }
  return buf;
}

std::string FormatWallTimeUs(int64_t us) {
  if (us <= 0) return "-";
  std::time_t seconds = static_cast<std::time_t>(us / 1'000'000);
  int64_t micros = us % 1'000'000;
  std::tm tm{};
  gmtime_r(&seconds, &tm);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%06dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(micros));
  return buf;
}

void CounterSet::Add(std::string_view name, int64_t delta) {
  for (auto& [key, value] : entries_) {
    if (key == name) {
      value += delta;
      return;
    }
  }
  entries_.emplace_back(std::string(name), delta);
}

int64_t CounterSet::Get(std::string_view name) const {
  for (const auto& [key, value] : entries_) {
    if (key == name) return value;
  }
  return 0;
}

ProfileNode* ProfileNode::AddChild(std::string name) {
  children_.push_back(std::make_unique<ProfileNode>(std::move(name)));
  return children_.back().get();
}

const ProfileNode* ProfileNode::Find(std::string_view name) const {
  if (name_ == name) return this;
  for (const auto& child : children_) {
    if (const ProfileNode* hit = child->Find(name)) return hit;
  }
  return nullptr;
}

namespace {

void AppendCounterObject(std::string* out, const CounterSet& set) {
  out->push_back('{');
  bool first = true;
  for (const auto& [key, value] : set.entries()) {
    if (!first) out->push_back(',');
    first = false;
    AppendJsonEscaped(out, key);
    *out += ':';
    *out += std::to_string(value);
  }
  out->push_back('}');
}

}  // namespace

void ProfileNode::AppendText(std::string* out, int depth) const {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += name_;
  for (const auto& [key, value] : counters_.entries()) {
    *out += "  " + key + "=" + std::to_string(value);
  }
  for (const auto& [key, value] : exec_.entries()) {
    *out += "  ~" + key + "=" + std::to_string(value);
  }
  if (elapsed_ns_ >= 0) *out += "  (" + FormatDurationNs(elapsed_ns_) + ")";
  out->push_back('\n');
  for (const auto& child : children_) child->AppendText(out, depth + 1);
}

std::string ProfileNode::ToText(int depth) const {
  std::string out;
  AppendText(&out, depth);
  return out;
}

void ProfileNode::AppendJson(std::string* out, bool deterministic_only) const {
  *out += "{\"name\":";
  AppendJsonEscaped(out, name_);
  if (!deterministic_only) {
    *out += ",\"elapsed_ns\":" + std::to_string(elapsed_ns_);
  }
  *out += ",\"counters\":";
  AppendCounterObject(out, counters_);
  if (!deterministic_only) {
    *out += ",\"exec\":";
    AppendCounterObject(out, exec_);
  }
  *out += ",\"children\":[";
  bool first = true;
  for (const auto& child : children_) {
    if (!first) out->push_back(',');
    first = false;
    child->AppendJson(out, deterministic_only);
  }
  *out += "]}";
}

std::string ProfileNode::ToJson() const {
  std::string out;
  AppendJson(&out, /*deterministic_only=*/false);
  return out;
}

std::string ProfileNode::CounterDigest() const {
  std::string out;
  AppendJson(&out, /*deterministic_only=*/true);
  return out;
}

size_t Histogram::BucketIndex(int64_t value) {
  if (value <= 0) return 0;
  return static_cast<size_t>(
      std::bit_width(static_cast<uint64_t>(value)));
}

void Histogram::Record(int64_t value) {
  if (value < 0) value = 0;
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  int64_t observed = max_.load(std::memory_order_relaxed);
  while (value > observed &&
         !max_.compare_exchange_weak(observed, value,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::MergeFrom(const Histogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) {
    int64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  int64_t theirs = other.max();
  int64_t observed = max_.load(std::memory_order_relaxed);
  while (theirs > observed &&
         !max_.compare_exchange_weak(observed, theirs,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

int64_t Histogram::Percentile(double q) const {
  int64_t total = count();
  if (total <= 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  // Snapshot the buckets once; clamp the rank to the mass they actually
  // hold. A torn MergeFrom from a live source can leave count() ahead of
  // the bucket totals, and an unclamped rank would then scan past the last
  // occupied bucket and fall through to a max() the buckets never saw.
  std::array<int64_t, kBuckets> snapshot;
  int64_t mass = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    snapshot[i] = buckets_[i].load(std::memory_order_relaxed);
    mass += snapshot[i];
  }
  if (mass <= 0) return 0;
  if (rank > mass) rank = mass;
  int64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += snapshot[i];
    if (seen >= rank) {
      // Upper bound of bucket i: 0 for bucket 0, else 2^i - 1.
      int64_t upper =
          i == 0 ? 0 : static_cast<int64_t>((uint64_t{1} << i) - 1);
      return std::min(upper, max());
    }
  }
  return max();
}

std::string Histogram::ToJson() const {
  std::string out = "{\"count\":" + std::to_string(count()) +
                    ",\"sum\":" + std::to_string(sum()) +
                    ",\"max\":" + std::to_string(max()) +
                    ",\"p50\":" + std::to_string(Percentile(0.50)) +
                    ",\"p95\":" + std::to_string(Percentile(0.95)) +
                    ",\"p99\":" + std::to_string(Percentile(0.99)) + "}";
  return out;
}

std::string Histogram::ToText() const {
  return "count=" + std::to_string(count()) + " sum=" + std::to_string(sum()) +
         " p50=" + std::to_string(Percentile(0.50)) +
         " p95=" + std::to_string(Percentile(0.95)) +
         " p99=" + std::to_string(Percentile(0.99)) +
         " max=" + std::to_string(max());
}

void Histogram::AppendPrometheus(std::string* out,
                                 const std::string& name) const {
  std::array<int64_t, kBuckets> snapshot;
  size_t highest = 0;
  int64_t mass = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    snapshot[i] = buckets_[i].load(std::memory_order_relaxed);
    mass += snapshot[i];
    if (snapshot[i] != 0) highest = i;
  }
  int64_t total = std::max(mass, count());
  int64_t cumulative = 0;
  for (size_t i = 0; i <= highest; ++i) {
    cumulative += snapshot[i];
    int64_t upper =
        i == 0 ? 0 : static_cast<int64_t>((uint64_t{1} << i) - 1);
    *out += name + "_bucket{le=\"" + std::to_string(upper) + "\"} " +
            std::to_string(cumulative) + "\n";
  }
  *out += name + "_bucket{le=\"+Inf\"} " + std::to_string(total) + "\n";
  *out += name + "_sum " + std::to_string(sum()) + "\n";
  *out += name + "_count " + std::to_string(total) + "\n";
}

MetricsRegistry& ProcessMetrics() {
  // Leaked for the same reason as TraceRecorder::Global: late threads must
  // always find it alive.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, histogram] : entries_) {
    if (key == name) return histogram.get();
  }
  entries_.emplace_back(std::string(name), std::make_unique<Histogram>());
  return entries_.back().second.get();
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, counter] : counters_) {
    if (key == name) return counter.get();
  }
  counters_.emplace_back(std::string(name), std::make_unique<Counter>());
  return counters_.back().second.get();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, histogram] : entries_) histogram->Reset();
  for (auto& [key, counter] : counters_) counter->Reset();
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  // Snapshot `other`'s name→pointer table under its lock, then merge with
  // both locks released (GetHistogram/GetCounter re-lock this registry one
  // name at a time). Holding both locks at once would deadlock two threads
  // merging in opposite directions. The source pointers stay valid without
  // the lock — registry entries are never removed.
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  std::vector<std::pair<std::string, int64_t>> counters;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    histograms.reserve(other.entries_.size());
    for (const auto& [key, histogram] : other.entries_) {
      histograms.emplace_back(key, histogram.get());
    }
    counters.reserve(other.counters_.size());
    for (const auto& [key, counter] : other.counters_) {
      counters.emplace_back(key, counter->value());
    }
  }
  for (const auto& [key, histogram] : histograms) {
    GetHistogram(key)->MergeFrom(*histogram);
  }
  for (const auto& [key, value] : counters) {
    GetCounter(key)->Add(value);
  }
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"histograms\":{";
  bool first = true;
  for (const auto& [key, histogram] : entries_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonEscaped(&out, key);
    out.push_back(':');
    out += histogram->ToJson();
  }
  out += "},\"counters\":{";
  first = true;
  for (const auto& [key, counter] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonEscaped(&out, key);
    out.push_back(':');
    out += std::to_string(counter->value());
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::ToText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [key, histogram] : entries_) {
    out += key + "  " + histogram->ToText();
    if (key.size() > 3 && key.compare(key.size() - 3, 3, "_ns") == 0 &&
        histogram->count() > 0) {
      out += "  [p50 " + FormatDurationNs(histogram->Percentile(0.50)) +
             ", p95 " + FormatDurationNs(histogram->Percentile(0.95)) +
             ", p99 " + FormatDurationNs(histogram->Percentile(0.99)) + "]";
    }
    out.push_back('\n');
  }
  for (const auto& [key, counter] : counters_) {
    out += key + "  count=" + std::to_string(counter->value()) + "\n";
  }
  if (out.empty()) out = "(no metrics recorded)\n";
  return out;
}

namespace {

/// `datacon_` + the metric name with every character outside
/// [a-zA-Z0-9_] (dots, mostly) mapped to '_'.
std::string PrometheusName(const std::string& key) {
  std::string out = "datacon_";
  for (char c : key) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [key, histogram] : entries_) {
    std::string name = PrometheusName(key);
    out += "# TYPE " + name + " histogram\n";
    histogram->AppendPrometheus(&out, name);
  }
  for (const auto& [key, counter] : counters_) {
    // Classic exposition format: the _total suffix is part of the metric
    // name, so the TYPE header must carry it too.
    std::string name = PrometheusName(key) + "_total";
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(counter->value()) + "\n";
  }
  return out;
}

void SlowQueryLog::set_threshold_ns(int64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  threshold_ns_ = ns < 0 ? 0 : ns;
}

int64_t SlowQueryLog::threshold_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threshold_ns_;
}

bool SlowQueryLog::WouldRecord(int64_t elapsed_ns) const {
  if (capacity_ == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (elapsed_ns < threshold_ns_) return false;
  return entries_.size() < capacity_ ||
         elapsed_ns > entries_.back().elapsed_ns;
}

void SlowQueryLog::Record(std::string statement, int64_t elapsed_ns,
                          std::string digest) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (elapsed_ns < threshold_ns_) return;
  if (entries_.size() == capacity_ &&
      elapsed_ns <= entries_.back().elapsed_ns) {
    return;  // faster than (or tied with) everything retained
  }
  Entry entry;
  entry.statement = std::move(statement);
  entry.elapsed_ns = elapsed_ns;
  entry.digest = std::move(digest);
  entry.sequence = next_sequence_++;
  // Capture both clocks at admission: the steady stamp shares the trace
  // recorder's epoch (correlates entries with --trace-out spans), the wall
  // stamp places them in calendar time.
  entry.steady_ns = TraceRecorder::Global().NowNs();
  entry.wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  // Insert before the first strictly-slower-or-equal run's end so order stays
  // slowest-first with older entries winning ties.
  auto pos = std::find_if(entries_.begin(), entries_.end(),
                          [&](const Entry& e) {
                            return e.elapsed_ns < entry.elapsed_ns;
                          });
  entries_.insert(pos, std::move(entry));
  if (entries_.size() > capacity_) entries_.pop_back();
}

std::vector<SlowQueryLog::Entry> SlowQueryLog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

std::string SlowQueryLog::ToText() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.empty()) return "(slow-query log empty)\n";
  std::string out;
  int rank = 1;
  for (const Entry& entry : entries_) {
    out += "#";
    out += std::to_string(rank++);
    out += "  ";
    out += FormatDurationNs(entry.elapsed_ns);
    out += "  ";
    out += entry.statement;
    out += "\n";
    if (entry.wall_us > 0) {
      out += "    at ";
      out += FormatWallTimeUs(entry.wall_us);
      out += "  steady=";
      out += std::to_string(entry.steady_ns);
      out += "ns\n";
    }
    if (!entry.digest.empty()) {
      // Indent the digest block under its statement line.
      size_t start = 0;
      while (start < entry.digest.size()) {
        size_t end = entry.digest.find('\n', start);
        if (end == std::string::npos) end = entry.digest.size();
        out += "    ";
        out.append(entry.digest, start, end - start);
        out += "\n";
        start = end + 1;
      }
    }
  }
  return out;
}

}  // namespace datacon
