// In-memory span recorder for the traced run. Spans are opened around the
// benchmark's own calls into each simulator layer (no tracing inside src/),
// kept in a pre-reserved vector, and written out once at exit as
// Chrome-trace JSON plus a per-layer self-time table.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // "<layer>.<call>", a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into Tracer::spans(), -1 = root
  std::int64_t visit = -1;   // visit id the span belongs to, -1 = none
};

struct LayerTime {
  double self_s = 0.0;   // span time not covered by child spans
  double total_s = 0.0;  // inclusive time of the layer's outermost spans
  std::uint64_t spans = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing and reads no clock.
  explicit Tracer(bool enabled);

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::int64_t visit);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  [[nodiscard]] Scope scope(const char* name, std::int64_t visit = -1) {
    return Scope(this, name, visit);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Inclusive durations (seconds) of every span with exactly this name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  [[nodiscard]] double total_s(const std::string& name) const;

  /// Self time per layer (the name's prefix before the first '.').
  [[nodiscard]] std::map<std::string, LayerTime> layer_times() const;

  /// Chrome-trace ("traceEvents") JSON; returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  std::int64_t origin_ns_ = 0;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;  // innermost open span
};

}  // namespace perfbench
