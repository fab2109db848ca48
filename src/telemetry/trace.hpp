// Scoped tracing: RAII timers emit spans into a fixed-capacity
// per-thread ring buffer (wraparound overwrites the oldest spans), and
// the whole process's rings export as Chrome trace_event JSON that
// chrome://tracing and Perfetto load directly.
//
// Span names must be string literals (the ring stores the pointer).
// Emission takes the owning ring's mutex - uncontended except while an
// export is walking the rings - plus two steady_clock reads, so spans
// are meant for phase-level scopes (a staging pass, a mainloop
// iteration), not per-element inner loops; use counters there.
//
// In M3XU_TELEMETRY=OFF builds ScopedTimer/emit_span compile to empty
// inlines (no clock reads) and the export functions produce an empty
// trace.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "telemetry/stopwatch.hpp"
#include "telemetry/telemetry.hpp"

namespace m3xu::telemetry {

/// Spans retained per thread; older spans are overwritten.
inline constexpr std::size_t kSpanRingCapacity = 4096;

#if M3XU_TELEMETRY_ENABLED

/// Records a completed span on the calling thread's ring. `start_ns`
/// is a now_ns()-epoch timestamp.
void emit_span(const char* name, std::uint64_t start_ns,
               std::uint64_t dur_ns);

/// RAII span: emits [construction, destruction) under `name`.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name) : name_(name), t0_(now_ns()) {}
  ~ScopedTimer() { emit_span(name_, t0_, now_ns() - t0_); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* name_;
  std::uint64_t t0_;
};

/// Chrome trace_event JSON of every span currently retained, all
/// threads, ts-sorted per thread ("X" complete events plus thread_name
/// metadata; ts/dur in microseconds relative to process telemetry
/// init).
std::string trace_json();

/// Writes trace_json() to `path`; false on I/O failure.
bool write_trace_json(const std::string& path);

/// Drops every retained span (test-only).
void reset_trace();

/// now_ns() value the exported trace uses as t=0 (fixed at first trace
/// use). TraceContext::write_json emits ts_us relative to this so
/// per-request timelines align with the Perfetto span export.
std::uint64_t trace_origin_ns();

#else  // !M3XU_TELEMETRY_ENABLED

inline void emit_span(const char*, std::uint64_t, std::uint64_t) {}

class ScopedTimer {
 public:
  explicit ScopedTimer(const char*) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
};

std::string trace_json();
bool write_trace_json(const std::string& path);
inline void reset_trace() {}
inline std::uint64_t trace_origin_ns() { return 0; }

#endif  // M3XU_TELEMETRY_ENABLED

}  // namespace m3xu::telemetry
