// Span recording for the traced run. Spans are taken around calls into the
// program's public API from the benchmark's own files (the load driver,
// handler decorators, mesh probes); nothing inside src/ is instrumented.
// They are kept in memory and written out once, when the benchmark ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

// Monotonic nanoseconds on the clock every span uses (steady_clock).
int64_t NowNs();

class Tracer {
 public:
  // Recording is off until enabled; a disabled tracer drops spans, so the
  // same decorators can sit in the untraced half of a traced run.
  void Enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }

  // Thread-safe. Past kMaxSpans further spans are counted, not kept.
  void Record(const Span& span);

  std::vector<Span> Spans() const;
  uint64_t Dropped() const;

  // Writes every kept span as one JSON document; returns false on failure.
  bool WriteJson(const std::string& path) const;

  static constexpr size_t kMaxSpans = 1 << 18;

 private:
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint64_t dropped_ = 0;     // guarded by mu_
};

}  // namespace perfbench
