#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/failpoint.h"
#include "util/json.h"

namespace ips {
namespace {

// Process-unique metric ids. Thread-local caches key on the id, never
// the object address, so a stale cache entry for a destroyed metric
// (private test registry) can never alias a newly created one.
std::atomic<std::uint64_t> next_metric_id{1};

// Per-thread cache mapping metric id -> that thread's cell. The
// single-entry `last` cache makes the common pattern — one hot metric
// per loop — a compare plus a relaxed fetch_add.
struct TlsMetricCache {
  std::uint64_t last_id = 0;
  void* last_cell = nullptr;
  std::unordered_map<std::uint64_t, void*> cells;

  void* Lookup(std::uint64_t id) {
    if (last_id == id) return last_cell;
    const auto it = cells.find(id);
    if (it == cells.end()) return nullptr;
    last_id = id;
    last_cell = it->second;
    return it->second;
  }

  void Store(std::uint64_t id, void* cell) {
    cells[id] = cell;
    last_id = id;
    last_cell = cell;
  }
};

TlsMetricCache& Tls() {
  thread_local TlsMetricCache cache;
  return cache;
}

void AtomicMaxDouble(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

// --- MetricSet ---

std::pair<std::string, std::uint64_t>* MetricSet::Find(std::string_view key) {
  for (auto& item : items_) {
    if (item.first == key) return &item;
  }
  return nullptr;
}

void MetricSet::Set(std::string_view key, std::uint64_t value) {
  if (auto* item = Find(key)) {
    item->second = value;
    return;
  }
  items_.emplace_back(std::string(key), value);
}

void MetricSet::Add(std::string_view key, std::uint64_t delta) {
  if (auto* item = Find(key)) {
    item->second += delta;
    return;
  }
  items_.emplace_back(std::string(key), delta);
}

std::uint64_t MetricSet::Get(std::string_view key) const {
  for (const auto& item : items_) {
    if (item.first == key) return item.second;
  }
  return 0;
}

bool MetricSet::Has(std::string_view key) const {
  for (const auto& item : items_) {
    if (item.first == key) return true;
  }
  return false;
}

// --- Counter ---

Counter::Counter(std::string name)
    : name_(std::move(name)),
      id_(next_metric_id.fetch_add(1, std::memory_order_relaxed)) {}

std::atomic<std::uint64_t>* Counter::NewCell() {
  MutexLock lock(mutex_);
  cells_.push_back(std::make_unique<Cell>());
  return &cells_.back()->value;
}

void Counter::Add(std::uint64_t delta) {
  TlsMetricCache& tls = Tls();
  void* cached = tls.Lookup(id_);
  if (cached == nullptr) {
    cached = NewCell();
    tls.Store(id_, cached);
  }
  static_cast<std::atomic<std::uint64_t>*>(cached)->fetch_add(
      delta, std::memory_order_relaxed);
}

std::uint64_t Counter::Value() const {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& cell : cells_) {
    total += cell->value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  MutexLock lock(mutex_);
  for (const auto& cell : cells_) {
    cell->value.store(0, std::memory_order_relaxed);
  }
}

// --- Gauge ---

Gauge::Gauge(std::string name) : name_(std::move(name)) {}

void Gauge::Set(double value) {
  value_.store(value, std::memory_order_relaxed);
  AtomicMaxDouble(&max_, value);
}

void Gauge::Add(double delta) {
  const double now =
      value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  AtomicMaxDouble(&max_, now);
}

void Gauge::Reset() {
  value_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

// --- Histogram ---

Histogram::Histogram(std::string name)
    : name_(std::move(name)),
      id_(next_metric_id.fetch_add(1, std::memory_order_relaxed)) {}

Histogram::Cell* Histogram::NewCell() {
  MutexLock lock(mutex_);
  cells_.push_back(std::make_unique<Cell>());
  return cells_.back().get();
}

double Histogram::BucketUpperEdge(std::size_t bucket) {
  return std::ldexp(1.0, static_cast<int>(bucket) - 32);
}

void Histogram::Observe(double value) {
  TlsMetricCache& tls = Tls();
  void* cached = tls.Lookup(id_);
  if (cached == nullptr) {
    cached = NewCell();
    tls.Store(id_, cached);
  }
  Cell* cell = static_cast<Cell*>(cached);
  std::size_t bucket = 0;
  if (std::isfinite(value) && value > 0.0) {
    int exponent = 0;
    std::frexp(value, &exponent);
    // frexp: value = m * 2^e with m in [0.5, 1) -> bucket upper edge 2^e.
    bucket = static_cast<std::size_t>(
        std::clamp(exponent + 32, 0, static_cast<int>(kNumBuckets) - 1));
  }
  cell->buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  cell->count.fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(value)) {
    cell->sum.fetch_add(value, std::memory_order_relaxed);
  }
}

std::uint64_t Histogram::Count() const {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& cell : cells_) {
    total += cell->count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  MutexLock lock(mutex_);
  double total = 0.0;
  for (const auto& cell : cells_) {
    total += cell->sum.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Mean() const {
  const std::uint64_t count = Count();
  return count == 0 ? 0.0 : Sum() / static_cast<double>(count);
}

std::array<std::uint64_t, Histogram::kNumBuckets> Histogram::BucketCounts()
    const {
  std::array<std::uint64_t, kNumBuckets> merged{};
  MutexLock lock(mutex_);
  for (const auto& cell : cells_) {
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      merged[b] += cell->buckets[b].load(std::memory_order_relaxed);
    }
  }
  return merged;
}

double Histogram::ApproxQuantile(double q) const {
  const auto counts = BucketCounts();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    seen += counts[b];
    if (seen >= rank) return BucketUpperEdge(b);
  }
  return BucketUpperEdge(kNumBuckets - 1);
}

void Histogram::Reset() {
  MutexLock lock(mutex_);
  for (const auto& cell : cells_) {
    for (auto& bucket : cell->buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    cell->count.store(0, std::memory_order_relaxed);
    cell->sum.store(0.0, std::memory_order_relaxed);
  }
}

// --- MetricsRegistry ---

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked singleton: metric handles cached by production code stay
  // valid through process exit, in any destruction order.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second.get();
  auto created =
      std::unique_ptr<Counter>(new Counter(std::string(name)));
  Counter* raw = created.get();
  counters_.emplace(std::string(name), std::move(created));
  return raw;
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second.get();
  auto created = std::unique_ptr<Gauge>(new Gauge(std::string(name)));
  Gauge* raw = created.get();
  gauges_.emplace(std::string(name), std::move(created));
  return raw;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  MutexLock lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second.get();
  auto created =
      std::unique_ptr<Histogram>(new Histogram(std::string(name)));
  Histogram* raw = created.get();
  histograms_.emplace(std::string(name), std::move(created));
  return raw;
}

StatusOr<std::string> MetricsRegistry::ExportJson() const {
  IPS_FAILPOINT("obs/export");
  JsonWriter json;
  MutexLock lock(mutex_);
  json.BeginObject().Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    json.Key(name).Uint(counter->Value());
  }
  json.EndObject().Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    json.Key(name).BeginObject();
    json.Key("value").Double(gauge->Value());
    json.Key("max").Double(gauge->Max());
    json.EndObject();
  }
  json.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    json.Key(name).BeginObject();
    json.Key("count").Uint(histogram->Count());
    json.Key("sum").Double(histogram->Sum());
    json.Key("mean").Double(histogram->Mean());
    json.Key("p50").Double(histogram->ApproxQuantile(0.5));
    json.Key("p99").Double(histogram->ApproxQuantile(0.99));
    json.EndObject();
  }
  json.EndObject().EndObject();
  return json.Take();
}

TablePrinter MetricsRegistry::ToTable() const {
  TablePrinter table({"metric", "type", "value"});
  // Holds the registry lock across Counter::Value()/Histogram::Count(),
  // which take the per-metric mutexes: the IPS_ACQUIRED_BEFORE order
  // declared on mutex_ (metrics.h). Never export under a metric lock.
  MutexLock lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    table.AddRow({name, "counter", Format(counter->Value())});
  }
  for (const auto& [name, gauge] : gauges_) {
    table.AddRow({name, "gauge",
                  Format(gauge->Value()) + " (max " +
                      Format(gauge->Max()) + ")"});
  }
  for (const auto& [name, histogram] : histograms_) {
    table.AddRow({name, "histogram",
                  "n=" + Format(histogram->Count()) +
                      " mean=" + FormatFixed(histogram->Mean(), 3) +
                      " p99<=" +
                      FormatFixed(histogram->ApproxQuantile(0.99), 3)});
  }
  return table;
}

void MetricsRegistry::Reset() {
  MutexLock lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace ips
