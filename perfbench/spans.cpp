#include "spans.h"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string layer_of(const char* name) {
  const std::string s(name);
  const std::size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (enabled_) {
    origin_ns_ = steady_ns();
    // Sized so span recording never reallocates mid-workload (the allocation
    // counters would otherwise see the tracer's own growth).
    spans_.reserve(1 << 16);
  }
}

std::int64_t Tracer::now_ns() const { return steady_ns() - origin_ns_; }

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::int64_t visit) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_;
  span.visit = visit;
  index_ = static_cast<std::int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->open_ = index_;
  tracer_->spans_[static_cast<std::size_t>(index_)].start_ns = tracer_->now_ns();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end_ns = tracer_->now_ns();
  tracer_->open_ = span.parent;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

double Tracer::total_s(const std::string& name) const {
  double total = 0.0;
  for (const double d : durations(name)) total += d;
  return total;
}

std::map<std::string, LayerTime> Tracer::layer_times() const {
  // Spans come from one thread and nest strictly, so the part of a span its
  // children cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = layer_of(s.name);
    LayerTime& lt = out[layer];
    const std::int64_t dur = s.end_ns - s.start_ns;
    lt.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
    ++lt.spans;
    // Inclusive time counts only spans whose ancestors are all other layers.
    bool nested_in_same_layer = false;
    for (std::int32_t p = s.parent; p >= 0; p = spans_[static_cast<std::size_t>(p)].parent) {
      if (layer_of(spans_[static_cast<std::size_t>(p)].name) == layer) {
        nested_in_same_layer = true;
        break;
      }
    }
    if (!nested_in_same_layer) lt.total_s += static_cast<double>(dur) * 1e-9;
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
       << layer_of(s.name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,";
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    os << buf << "\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"visit\":" << s.visit << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
