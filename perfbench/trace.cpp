#include "trace.h"

#include <time.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {
// Initialized before main runs, so WallNow() approximates time since the
// process started.
const Clock::time_point g_origin = Clock::now();
}  // namespace

double Now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double WallNow() {
  return std::chrono::duration<double>(Clock::now() - g_origin).count();
}

int Tracer::Begin(const char* name, double start) {
  if (!enabled_) return -1;
  SpanRecord rec;
  rec.name = name;
  rec.start = start;
  rec.end = start;
  rec.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(rec));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id, double end) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = end;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::AddAggregate(const std::string& name, double seconds) {
  if (!enabled_) return;
  SpanRecord rec;
  rec.name = name;
  rec.parent = open_.empty() ? -1 : open_.back();
  rec.start = rec.parent < 0 ? 0.0 : spans_[static_cast<std::size_t>(
                                                rec.parent)].start;
  rec.end = rec.start + seconds;
  rec.aggregate = true;
  spans_.push_back(std::move(rec));
}

std::map<std::string, double> Tracer::LayerSelfTimes(std::size_t from,
                                                     std::size_t to) const {
  to = std::min(to, spans_.size());
  std::vector<double> child(spans_.size(), 0.0);
  for (std::size_t i = from; i < to; ++i) {
    const SpanRecord& s = spans_[i];
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.Duration();
  }
  std::map<std::string, double> self;
  for (std::size_t i = from; i < to; ++i) {
    const std::string& name = spans_[i].name;
    self[name.substr(0, name.find('.'))] += spans_[i].Duration() - child[i];
  }
  return self;
}

std::string Tracer::ToJsonl() const {
  std::string out;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%d,\"aggregate\":%s}\n",
                  i, s.name.c_str(), s.start, s.end, s.parent,
                  s.aggregate ? "true" : "false");
    out += buf;
  }
  return out;
}

}  // namespace perfbench
