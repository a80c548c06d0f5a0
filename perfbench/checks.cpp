#include "checks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

using simmr::cluster::TaskKind;
namespace obs = simmr::obs;

std::string Fmt(const std::string& what, double a, double b) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " (%.17g vs %.17g)", a, b);
  return what + buf;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Largest number of intervals open at once. An interval ending at t and
/// one starting at t do not overlap.
int PeakOverlap(std::vector<std::pair<double, int>>& edges) {
  std::sort(edges.begin(), edges.end());  // -1 sorts before +1 at a tie
  int depth = 0, peak = 0;
  for (const auto& edge : edges) {
    depth += edge.second;
    peak = std::max(peak, depth);
  }
  return peak;
}

}  // namespace

std::string CheckOneSuccessPerTask(const simmr::cluster::HistoryLog& log,
                                   bool faulted) {
  // successes[job position][kind] -> per-index counts
  std::unordered_map<std::int32_t, std::size_t> pos;
  std::vector<std::vector<int>> maps(log.jobs().size()),
      reduces(log.jobs().size());
  for (std::size_t i = 0; i < log.jobs().size(); ++i) {
    const auto& job = log.jobs()[i];
    pos[job.job] = i;
    maps[i].assign(static_cast<std::size_t>(std::max(0, job.num_maps)), 0);
    reduces[i].assign(static_cast<std::size_t>(std::max(0, job.num_reduces)),
                      0);
  }
  for (const auto& t : log.tasks()) {
    if (!t.succeeded) continue;
    const auto it = pos.find(t.job);
    if (it == pos.end())
      return "successful attempt of unknown job " + std::to_string(t.job);
    auto& counts = t.kind == TaskKind::kMap ? maps[it->second]
                                            : reduces[it->second];
    if (t.index < 0 || static_cast<std::size_t>(t.index) >= counts.size())
      return "job " + std::to_string(t.job) + ": successful attempt of " +
             "nonexistent task " + std::to_string(t.index);
    ++counts[static_cast<std::size_t>(t.index)];
  }
  for (std::size_t i = 0; i < log.jobs().size(); ++i) {
    for (const auto* counts : {&maps[i], &reduces[i]}) {
      for (std::size_t k = 0; k < counts->size(); ++k) {
        const int n = (*counts)[k];
        if (n < 1 || (!faulted && n != 1))
          return "job " + std::to_string(log.jobs()[i].job) + " " +
                 (counts == &maps[i] ? "map " : "reduce ") +
                 std::to_string(k) + " has " + std::to_string(n) +
                 " successful attempts";
      }
    }
  }
  return "";
}

std::string CheckNodeSlots(const simmr::cluster::HistoryLog& log,
                           const simmr::cluster::ClusterConfig& config) {
  const auto nodes = static_cast<std::size_t>(config.num_nodes);
  std::vector<std::vector<std::pair<double, int>>> edges[2] = {
      std::vector<std::vector<std::pair<double, int>>>(nodes),
      std::vector<std::vector<std::pair<double, int>>>(nodes)};
  for (const auto& t : log.tasks()) {
    if (t.node < 0 || static_cast<std::size_t>(t.node) >= nodes)
      return "attempt on out-of-range node " + std::to_string(t.node);
    auto& e = edges[t.kind == TaskKind::kMap ? 0 : 1]
                   [static_cast<std::size_t>(t.node)];
    e.emplace_back(t.start, +1);
    e.emplace_back(t.end, -1);
  }
  const int slots[2] = {config.map_slots_per_node,
                        config.reduce_slots_per_node};
  for (int k = 0; k < 2; ++k) {
    for (std::size_t n = 0; n < nodes; ++n) {
      const int peak = PeakOverlap(edges[k][n]);
      if (peak > slots[k])
        return "node " + std::to_string(n) + " ran " + std::to_string(peak) +
               (k == 0 ? " maps" : " reduces") + " at once on " +
               std::to_string(slots[k]) + " slots";
    }
  }
  return "";
}

std::string CheckMapCounts(const simmr::cluster::HistoryLog& log,
                           double block_size_mb) {
  for (const auto& job : log.jobs()) {
    const int expected = std::max(
        1, static_cast<int>(std::ceil(job.input_mb / block_size_mb)));
    if (job.num_maps != expected)
      return "job " + std::to_string(job.job) + " has " +
             std::to_string(job.num_maps) + " maps, expected " +
             std::to_string(expected);
  }
  return "";
}

std::string CheckAllJobsComplete(const simmr::trace::WorkloadTrace& workload,
                                 const RunResult& result) {
  if (result.jobs.size() != workload.size())
    return std::to_string(result.jobs.size()) + " of " +
           std::to_string(workload.size()) + " jobs completed";
  std::vector<char> seen(workload.size(), 0);
  for (const auto& job : result.jobs) {
    if (job.job < 0 || static_cast<std::size_t>(job.job) >= workload.size() ||
        seen[static_cast<std::size_t>(job.job)])
      return "unexpected or repeated job id " + std::to_string(job.job);
    seen[static_cast<std::size_t>(job.job)] = 1;
    if (!std::isfinite(job.finish) || job.finish < job.submit)
      return Fmt("job " + std::to_string(job.job) +
                     " finished before it arrived",
                 job.finish, job.submit);
  }
  return "";
}

std::string CheckSlotOccupancy(const simmr::analysis::RunRecord& record,
                               int map_slots, int reduce_slots) {
  std::vector<std::pair<double, int>> edges[2];
  for (const auto& job : record.jobs) {
    for (const auto& t : job.tasks) {
      if (!(t.timing.end > t.timing.start)) continue;
      auto& e = edges[t.kind == obs::TaskKind::kMap ? 0 : 1];
      e.emplace_back(t.timing.start, +1);
      e.emplace_back(t.timing.end, -1);
    }
  }
  const int slots[2] = {map_slots, reduce_slots};
  for (int k = 0; k < 2; ++k) {
    const int peak = PeakOverlap(edges[k]);
    if (peak > slots[k])
      return std::to_string(peak) + (k == 0 ? " maps" : " reduces") +
             " ran at once on " + std::to_string(slots[k]) + " slots";
  }
  return "";
}

std::string CheckMapBusyTime(const simmr::trace::WorkloadTrace& workload,
                             const simmr::analysis::RunRecord& record) {
  double expected = 0.0;
  for (const auto& job : workload)
    for (const double d : job.profile.map_durations) expected += d;
  double busy = 0.0;
  for (const auto& job : record.jobs)
    for (const auto& t : job.tasks)
      if (t.kind == obs::TaskKind::kMap && t.succeeded)
        busy += t.timing.end - t.timing.start;
  if (!(std::fabs(busy - expected) <= 1e-9 * std::max(1.0, expected)))
    return Fmt("busy map slot-seconds differ from the profiles' map time",
               busy, expected);
  return "";
}

std::string CheckSoloMapStage(const simmr::trace::JobProfile& profile,
                              int map_slots, double map_stage) {
  double sum = 0.0, longest = 0.0;
  for (const double d : profile.map_durations) {
    sum += d;
    longest = std::max(longest, d);
  }
  const double k = map_slots;
  const double lower = std::max(sum / k, longest);
  const double upper = sum / k + (1.0 - 1.0 / k) * longest;
  const double tol = 1e-9 * std::max(1.0, upper);
  if (!(map_stage >= lower - tol && map_stage <= upper + tol))
    return "solo map stage of " + profile.app_name + "/" + profile.dataset +
           Fmt(" outside its list-scheduling bounds", map_stage,
               map_stage < lower ? lower : upper);
  return "";
}

std::string CheckFoldedCompletions(const simmr::core::SimResult& engine,
                                   const simmr::analysis::RunRecord& record) {
  if (record.jobs.size() != engine.jobs.size())
    return "event log folds " + std::to_string(record.jobs.size()) +
           " jobs, the engine reported " +
           std::to_string(engine.jobs.size());
  for (const auto& job : engine.jobs) {
    const auto* folded = record.FindJob(job.job);
    if (folded == nullptr || !folded->completed)
      return "job " + std::to_string(job.job) + " missing from the log";
    if (!SameBits(folded->completion, job.completion) ||
        !SameBits(folded->arrival, job.arrival))
      return Fmt("job " + std::to_string(job.job) +
                     " completion differs between log and engine",
                 folded->completion, job.completion);
  }
  return "";
}

std::string CheckReserialized(const simmr::obs::EventLog& parsed,
                              const std::string& jsonl) {
  if (obs::SerializeEventLog(parsed) != jsonl)
    return "re-serialized event log is not byte-identical";
  return "";
}

std::string CheckSameOutcomes(const RunResult& a, const RunResult& b) {
  if (a.jobs.size() != b.jobs.size())
    return "repeated run has a different job count";
  if (a.events_processed != b.events_processed ||
      !SameBits(a.makespan, b.makespan))
    return Fmt("repeated run differs in events or makespan", a.makespan,
               b.makespan);
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const auto& x = a.jobs[i];
    const auto& y = b.jobs[i];
    if (x.job != y.job || x.name != y.name || !SameBits(x.submit, y.submit) ||
        !SameBits(x.first_launch, y.first_launch) ||
        !SameBits(x.map_stage_end, y.map_stage_end) ||
        !SameBits(x.finish, y.finish) || !SameBits(x.deadline, y.deadline))
      return Fmt("repeated run differs at job " + std::to_string(x.job),
                 x.finish, y.finish);
  }
  return "";
}

std::string CheckSameTrace(const simmr::trace::WorkloadTrace& a,
                           const simmr::trace::WorkloadTrace& b) {
  if (a.size() != b.size()) return "repeated set-up has a different job count";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].profile == b[i].profile) ||
        !SameBits(a[i].arrival, b[i].arrival) ||
        !SameBits(a[i].deadline, b[i].deadline) ||
        !SameBits(a[i].solo_completion, b[i].solo_completion))
      return Fmt("repeated set-up differs at job " + std::to_string(i),
                 a[i].arrival, b[i].arrival);
  }
  return "";
}

std::string CheckKilledNeverComplete(const simmr::obs::EventLog& log) {
  std::map<std::tuple<std::int32_t, int, std::int32_t>, bool> running;
  for (const auto& ev : log.events) {
    if (ev.kind != obs::LogEvent::Kind::kTaskLaunch &&
        ev.kind != obs::LogEvent::Kind::kTaskCompletion)
      continue;
    bool& live =
        running[{ev.job, static_cast<int>(ev.task_kind), ev.index}];
    if (ev.kind == obs::LogEvent::Kind::kTaskLaunch) {
      live = true;
    } else {
      if (ev.succeeded && !live)
        return "job " + std::to_string(ev.job) + " task " +
               std::to_string(ev.index) +
               " completed with no live attempt (killed attempt completed)";
      live = false;
    }
  }
  return "";
}

std::string CheckMumakLowerBound(const simmr::mumak::RumenTrace& trace,
                                 const simmr::mumak::MumakResult& result) {
  if (trace.jobs.size() != result.jobs.size())
    return "Mumak finished " + std::to_string(result.jobs.size()) + " of " +
           std::to_string(trace.jobs.size()) + " jobs";
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    const auto& job = trace.jobs[i];
    double map = 0.0, reduce = 0.0;
    for (const auto& t : job.maps) map = std::max(map, t.TotalDuration());
    for (const auto& t : job.reduces)
      reduce = std::max(reduce, t.ReducePhaseDuration());
    const double completion = result.jobs[i].CompletionTime();
    if (result.jobs[i].name != job.name ||
        completion < (map + reduce) * (1.0 - 1e-12))
      return Fmt("Mumak job " + job.name +
                     " finished before its longest map + reduce phase",
                 completion, map + reduce);
  }
  return "";
}

double ReplayErrorPct(const simmr::cluster::HistoryLog& log,
                      const RunResult& replay) {
  double sum = 0.0;
  for (const auto& job : replay.jobs) {
    if (job.job < 0 || static_cast<std::size_t>(job.job) >= log.jobs().size())
      throw std::out_of_range("replayed job not in the history log");
    const auto& rec = log.jobs()[static_cast<std::size_t>(job.job)];
    const double actual = rec.finish_time - rec.submit_time;
    sum += std::fabs(job.CompletionTime() - actual) / actual;
  }
  return replay.jobs.empty() ? 0.0
                             : 100.0 * sum / static_cast<double>(
                                                 replay.jobs.size());
}

std::string CheckReplayError(double error_pct, double bound_pct) {
  if (!(error_pct <= bound_pct))
    return Fmt("replay error above its bound", error_pct, bound_pct);
  return "";
}

}  // namespace perfbench
