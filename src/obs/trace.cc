#include "obs/trace.h"

#include "util/failpoint.h"
#include "util/json.h"

namespace ips {
namespace {

// Writes `trace` as {"label", "spans": [{"name", "seconds", "counts",
// "children": [...]}]}. Spans are in pre-order (parents precede
// children), so one forward pass nests them with a stack of the spans
// whose children array is open.
void WriteTrace(const Trace& trace, JsonWriter& json) {
  json.BeginObject().Key("label").String(trace.label());
  json.Key("spans").BeginArray();
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < trace.spans().size(); ++i) {
    const Trace::Span& span = trace.spans()[i];
    for (; !open.empty() && span.parent != open.back(); open.pop_back()) {
      json.EndArray().EndObject();
    }
    json.BeginObject().Key("name").String(span.name);
    json.Key("seconds").Double(span.seconds);
    json.Key("counts").BeginObject();
    for (const auto& [key, value] : span.counts) json.Key(key).Uint(value);
    json.EndObject().Key("children").BeginArray();
    open.push_back(i);
  }
  for (; !open.empty(); open.pop_back()) json.EndArray().EndObject();
  json.EndArray().EndObject();
}

}  // namespace

// --- TraceSpan ---

TraceSpan::TraceSpan(Trace* trace, std::string_view name) : trace_(trace) {
  if (trace_ != nullptr) {
    index_ = trace_->OpenSpan(name);
  }
}

TraceSpan::~TraceSpan() {
  if (trace_ != nullptr) {
    trace_->CloseSpan(index_, timer_.Seconds());
  }
}

void TraceSpan::AddCount(std::string_view key, std::uint64_t delta) {
  if (trace_ == nullptr) return;
  trace_->AddCount(index_, key, delta);
}

// --- Trace ---

std::size_t Trace::OpenSpan(std::string_view name) {
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.depth = open_.size();
  const std::size_t index = spans_.size();
  spans_.push_back(std::move(span));
  open_.push_back(index);
  return index;
}

void Trace::CloseSpan(std::size_t index, double seconds) {
  spans_[index].seconds = seconds;
  // Spans close LIFO (RAII scoping), so `index` is the stack top.
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

std::size_t Trace::RecordSpan(std::string_view name, double seconds) {
  const std::size_t index = OpenSpan(name);
  CloseSpan(index, seconds);
  return index;
}

void Trace::AddCount(std::size_t span_index, std::string_view key,
                     std::uint64_t delta) {
  auto& counts = spans_[span_index].counts;
  for (auto& [existing, value] : counts) {
    if (existing == key) {
      value += delta;
      return;
    }
  }
  counts.emplace_back(std::string(key), delta);
}

const Trace::Span* Trace::FindSpan(std::string_view name) const {
  for (const Span& span : spans_) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

std::uint64_t Trace::TotalCount(std::string_view key) const {
  std::uint64_t total = 0;
  for (const Span& span : spans_) {
    for (const auto& [existing, value] : span.counts) {
      if (existing == key) total += value;
    }
  }
  return total;
}

std::string Trace::ToJson() const {
  JsonWriter json;
  WriteTrace(*this, json);
  return json.Take();
}

TablePrinter Trace::ToTable() const {
  TablePrinter table({"span", "seconds", "counts"});
  for (const Span& span : spans_) {
    std::string name(span.depth * 2, ' ');
    name += span.name;
    std::string counts;
    for (const auto& [key, value] : span.counts) {
      if (!counts.empty()) counts += " ";
      counts += key + "=" + Format(value);
    }
    table.AddRow({name, FormatSci(span.seconds, 3), counts});
  }
  return table;
}

// --- TraceRing ---

TraceRing::TraceRing(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(capacity_);
}

TraceRing& TraceRing::Global() {
  static TraceRing* ring = new TraceRing();
  return *ring;
}

void TraceRing::Record(std::shared_ptr<const Trace> trace) {
  if (trace == nullptr) return;
  MutexLock lock(mutex_);
  ring_[(head_ + count_) % capacity_] = std::move(trace);
  if (count_ < capacity_) {
    ++count_;
  } else {
    head_ = (head_ + 1) % capacity_;
  }
}

std::vector<std::shared_ptr<const Trace>> TraceRing::Recent(
    std::size_t limit) const {
  MutexLock lock(mutex_);
  const std::size_t n =
      (limit == 0 || limit > count_) ? count_ : limit;
  std::vector<std::shared_ptr<const Trace>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Newest slot is head_ + count_ - 1; walk backwards.
    out.push_back(ring_[(head_ + count_ - 1 - i) % capacity_]);
  }
  return out;
}

std::size_t TraceRing::size() const {
  MutexLock lock(mutex_);
  return count_;
}

void TraceRing::Clear() {
  MutexLock lock(mutex_);
  for (auto& slot : ring_) slot.reset();
  head_ = 0;
  count_ = 0;
}

StatusOr<std::string> TraceRing::ExportJson(std::size_t limit) const {
  IPS_FAILPOINT("obs/export");
  JsonWriter json;
  json.BeginArray();
  for (const auto& trace : Recent(limit)) WriteTrace(*trace, json);
  json.EndArray();
  return json.Take();
}

}  // namespace ips
