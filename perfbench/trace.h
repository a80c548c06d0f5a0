// In-memory span tracer for the pipeline benchmark.
//
// Every call the benchmark makes into a simulator module is wrapped in a
// Span. A Span always measures its own duration (the stage timings behind
// the end-to-end metrics need it); only a traced run also keeps the span
// record (name, start, end, parent) in memory. The records are written out
// once, after the run, so the traced run pays no I/O while it measures.
//
// Span names are "<layer>.<what>", e.g. "core.run" or "trace.db_save"; a
// layer's self time is the sum over its spans of the duration minus the
// part covered by child spans. Work that is too fine-grained for one span
// per call (scheduler-policy calls) is folded into one aggregate child per
// enclosing span with AddAggregate.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Wall clock, for the per-call timings of the forwarding policy: a
/// CPU-time reading is a system call, too slow to take twice per decision.
using Clock = std::chrono::steady_clock;

/// Seconds of CPU time the process has used since it started (exec),
/// user and system. Every span, and so every stage time behind the
/// end-to-end metrics, is measured on this clock: the benchmark runs on
/// one thread, so on a quiet host it reads like wall time, but it leaves
/// out the time the host's hypervisor or scheduler gives the CPU to
/// someone else.
double Now();

/// Seconds of wall time since the process started (its static
/// initialization); bounds how long a run measures.
double WallNow();

struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  /// An aggregate stands for many calls inside its parent; it has a total
  /// duration but no position on the timeline (start is the parent's).
  bool aggregate = false;
  double Duration() const { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its id, or -1
  /// when tracing is off.
  int Begin(const char* name, double start);
  void End(int id, double end);

  /// Adds `seconds` of work named `name` as a child of the innermost open
  /// span. No-op when tracing is off.
  void AddAggregate(const std::string& name, double seconds);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time per layer (the name's prefix up to the first '.') over the
  /// spans with ids in [from, to).
  std::map<std::string, double> LayerSelfTimes(std::size_t from,
                                               std::size_t to) const;

  /// One JSON object per span.
  std::string ToJsonl() const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// Times one call. The duration is available from Seconds() after Stop()
/// (or destruction); the record goes to the tracer when it is on.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), start_(Now()), id_(tracer.Begin(name, start_)) {}
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double Stop() {
    if (!stopped_) {
      end_ = Now();
      tracer_.End(id_, end_);
      stopped_ = true;
    }
    return end_ - start_;
  }
  double Seconds() const { return end_ - start_; }
  double Elapsed() const { return Now() - start_; }

 private:
  Tracer& tracer_;
  double start_;
  int id_;
  double end_ = 0.0;
  bool stopped_ = false;
};

/// Runs `fn` inside a span and returns the span's duration.
template <typename Fn>
double Timed(Tracer& tracer, const char* name, Fn&& fn) {
  Span span(tracer, name);
  fn();
  return span.Stop();
}

}  // namespace perfbench
