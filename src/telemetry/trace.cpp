#include "telemetry/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <vector>

#include "telemetry/json.hpp"

namespace m3xu::telemetry {

#if M3XU_TELEMETRY_ENABLED

namespace {

struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
};

/// One thread's span ring. The owning thread appends under `mu`;
/// exporters copy the ring out under the same mutex. Contention only
/// happens while an export is in flight.
struct Ring {
  std::mutex mu;
  std::array<Span, kSpanRingCapacity> spans;
  std::uint64_t head = 0;  // total spans ever emitted
  int tid = 0;
};

struct RingSnapshot {
  int tid;
  std::vector<Span> spans;  // oldest first
};

class TraceRegistry {
 public:
  static TraceRegistry& instance() {
    // Intentionally leaked: worker threads' thread_local RingOwner
    // destructors run while those threads unwind, which for the global
    // ThreadPool's workers is during static destruction - possibly
    // after a function-local static registry would already be gone
    // (destruction order across translation units is unspecified).
    // detach() into a destroyed registry is a use-after-free, so the
    // registry is immortal; the one-time allocation is reclaimed by
    // process exit.
    static TraceRegistry* const r = new TraceRegistry;
    return *r;
  }

  /// now_ns() at first trace use; exported ts values are relative to
  /// this origin so traces start near t=0.
  std::uint64_t origin_ns() {
    const std::lock_guard<std::mutex> lock(mu_);
    if (origin_ns_ == 0) origin_ns_ = now_ns();
    return origin_ns_;
  }

  /// Names the ring before publishing it: collect() reads tid of every
  /// live ring under mu_.
  void attach(Ring* ring) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (origin_ns_ == 0) origin_ns_ = now_ns();
    ring->tid = next_tid_++;
    live_.push_back(ring);
  }

  void detach(Ring* ring) {
    const std::lock_guard<std::mutex> lock(mu_);
    retired_.push_back(copy_ring(*ring));
    live_.erase(std::remove(live_.begin(), live_.end(), ring), live_.end());
  }

  std::vector<RingSnapshot> collect() {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<RingSnapshot> out = retired_;
    out.reserve(out.size() + live_.size());
    for (Ring* r : live_) out.push_back(copy_ring(*r));
    return out;
  }

  void reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    retired_.clear();
    for (Ring* r : live_) {
      const std::lock_guard<std::mutex> ring_lock(r->mu);
      r->head = 0;
    }
  }

 private:
  static RingSnapshot copy_ring(Ring& r) {
    const std::lock_guard<std::mutex> lock(r.mu);
    RingSnapshot snap;
    snap.tid = r.tid;
    const std::uint64_t n = std::min<std::uint64_t>(r.head, kSpanRingCapacity);
    snap.spans.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = r.head - n; i < r.head; ++i) {
      snap.spans.push_back(r.spans[i % kSpanRingCapacity]);
    }
    return snap;
  }

  std::mutex mu_;
  std::vector<Ring*> live_;
  std::vector<RingSnapshot> retired_;
  std::uint64_t origin_ns_ = 0;
  int next_tid_ = 1;
};

struct RingOwner {
  Ring ring;
  RingOwner() { TraceRegistry::instance().attach(&ring); }
  ~RingOwner() { TraceRegistry::instance().detach(&ring); }
};

Ring& local_ring() {
  thread_local RingOwner owner;
  return owner.ring;
}

}  // namespace

std::uint64_t trace_origin_ns() {
  return TraceRegistry::instance().origin_ns();
}

void emit_span(const char* name, std::uint64_t start_ns,
               std::uint64_t dur_ns) {
  Ring& r = local_ring();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.spans[r.head % kSpanRingCapacity] = Span{name, start_ns, dur_ns};
  ++r.head;
}

std::string trace_json() {
  TraceRegistry& reg = TraceRegistry::instance();
  const std::uint64_t origin = reg.origin_ns();
  std::vector<RingSnapshot> rings = reg.collect();
  // Stable sorts keep the export byte-identical across calls even when
  // tids collide with equal keys (retired ring order is detach order,
  // which varies with thread teardown at shutdown).
  std::stable_sort(rings.begin(), rings.end(),
                   [](const RingSnapshot& a, const RingSnapshot& b) {
                     return a.tid < b.tid;
                   });

  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  for (const RingSnapshot& ring : rings) {
    w.begin_object();
    w.kv("name", "thread_name");
    w.kv("ph", "M");
    w.kv("pid", 1);
    w.kv("tid", ring.tid);
    w.key("args").begin_object();
    w.kv("name",
         ring.tid == 1 ? std::string("main")
                       : "thread-" + std::to_string(ring.tid));
    w.end_object();
    w.end_object();
    std::vector<Span> spans = ring.spans;
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span& a, const Span& b) {
                       return a.start_ns < b.start_ns;
                     });
    for (const Span& s : spans) {
      const std::uint64_t rel =
          s.start_ns >= origin ? s.start_ns - origin : 0;
      w.begin_object();
      w.kv("name", s.name);
      w.kv("ph", "X");
      w.key("ts").value(static_cast<double>(rel) * 1e-3, 12);
      w.key("dur").value(static_cast<double>(s.dur_ns) * 1e-3, 9);
      w.kv("pid", 1);
      w.kv("tid", ring.tid);
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void reset_trace() { TraceRegistry::instance().reset(); }

#else  // !M3XU_TELEMETRY_ENABLED

std::string trace_json() {
  return "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": []\n}";
}

#endif  // M3XU_TELEMETRY_ENABLED

bool write_trace_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = trace_json();
  const bool ok =
      std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
      std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace m3xu::telemetry
