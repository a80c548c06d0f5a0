// Shows that every output check of the benchmark holds on a real simulator
// output and fails once that output is deliberately corrupted.
//
//   ctest --test-dir .bench_build/perfbench
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "analysis/run_record.h"
#include "backend/run_result.h"
#include "backend/session.h"
#include "checks.h"
#include "cluster/cluster_sim.h"
#include "core/engine.h"
#include "mumak/mumak_sim.h"
#include "mumak/rumen.h"
#include "obs/event_log.h"
#include "trace/mr_profiler.h"

namespace {

using namespace simmr;
using perfbench::RunResult;

int g_failures = 0;

/// `ok` must be empty (the check holds on the real output) and `bad`
/// non-empty (it fails on the corrupted one).
void Expect(const char* check, const std::string& ok, const std::string& bad) {
  if (!ok.empty()) {
    std::fprintf(stderr, "FAIL %s: rejected a valid output: %s\n", check,
                 ok.c_str());
    ++g_failures;
  }
  if (bad.empty()) {
    std::fprintf(stderr, "FAIL %s: accepted a corrupted output\n", check);
    ++g_failures;
  }
  if (ok.empty() && !bad.empty()) std::printf("ok   %s\n", check);
}

/// Copies `log`, letting `edit_job` / `edit_task` change each record.
template <typename JobFn, typename TaskFn>
cluster::HistoryLog Edited(const cluster::HistoryLog& log, JobFn edit_job,
                           TaskFn edit_task) {
  cluster::HistoryLog out;
  for (auto job : log.jobs()) {
    edit_job(job);
    out.AddJob(job);
  }
  for (std::size_t i = 0; i < log.tasks().size(); ++i) {
    auto task = log.tasks()[i];
    edit_task(i, task);
    out.AddTask(task);
  }
  return out;
}

cluster::JobSpec SmallJob(cluster::AppModel app, double input_gb) {
  cluster::JobSpec spec;
  spec.app = std::move(app);
  spec.dataset_label = "small";
  spec.input_mb = input_gb * 1024.0;
  spec.num_reduces = 16;
  return spec;
}

}  // namespace

int main() {
  // A small real pipeline: two overlapping testbed jobs, their profiles,
  // a FIFO replay with recording, and a Mumak replay.
  const std::vector<cluster::SubmittedJob> submitted = {
      {SmallJob(cluster::apps::Sort(), 2.0), 0.0, 0.0},
      {SmallJob(cluster::apps::WordCount(), 3.0), 10.0, 0.0}};
  const cluster::TestbedOptions options;
  const cluster::HistoryLog log =
      cluster::RunTestbed(submitted, options).log;
  const auto profiles = trace::BuildAllProfiles(log);

  trace::WorkloadTrace workload;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    trace::TraceJob job;
    job.profile = profiles[i];
    job.arrival = log.jobs()[i].submit_time;
    workload.push_back(job);
  }
  core::SimConfig config;
  obs::EventLogObserver recorder;
  config.observer = &recorder;
  auto fifo = backend::MakePolicy("fifo", 64, 64);
  const core::SimResult engine =
      core::SimulatorEngine(config, *fifo).Run(workload);
  const std::string jsonl = recorder.ToJsonl({"test", "", "simmr"});
  std::istringstream in(jsonl);
  const obs::EventLog parsed = obs::ParseEventLog(in);
  const analysis::RunRecord record = analysis::RunRecord::FromLog(parsed);
  const RunResult replay = backend::FromSimResult(engine);

  const auto no_job = [](cluster::JobRecord&) {};
  const auto no_task = [](std::size_t, cluster::TaskAttemptRecord&) {};

  // One successful attempt per task: drop the first task's success, and
  // (fault-free) duplicate it.
  {
    const auto lost = Edited(log, no_job,
                             [](std::size_t i, cluster::TaskAttemptRecord& t) {
                               if (i == 0) t.succeeded = false;
                             });
    Expect("one_success_per_task", perfbench::CheckOneSuccessPerTask(log, false),
           perfbench::CheckOneSuccessPerTask(lost, true));
    cluster::HistoryLog twice = log;
    twice.AddTask(log.tasks().front());
    Expect("one_success_per_task (duplicate)",
           perfbench::CheckOneSuccessPerTask(log, true),
           perfbench::CheckOneSuccessPerTask(twice, false));
  }

  // Node slots: run a second map on the node of the first, at its time.
  {
    cluster::HistoryLog crowded = log;
    auto extra = log.tasks().front();
    extra.index = 0;
    crowded.AddTask(extra);
    Expect("node_slots", perfbench::CheckNodeSlots(log, options.config),
           perfbench::CheckNodeSlots(crowded, options.config));
  }

  // Map counts: one map too many.
  Expect("map_counts", perfbench::CheckMapCounts(log, 64.0),
         perfbench::CheckMapCounts(
             Edited(log, [](cluster::JobRecord& j) { ++j.num_maps; },
                    no_task),
             64.0));

  // Every job completes: lose one, and finish one before it arrived.
  {
    RunResult lost = replay;
    lost.jobs.pop_back();
    Expect("all_jobs_complete", perfbench::CheckAllJobsComplete(workload, replay),
           perfbench::CheckAllJobsComplete(workload, lost));
    RunResult early = replay;
    early.jobs.back().finish = early.jobs.back().submit - 1.0;
    Expect("all_jobs_complete (early)",
           perfbench::CheckAllJobsComplete(workload, replay),
           perfbench::CheckAllJobsComplete(workload, early));
  }

  // Slot occupancy: 64 extra maps at the time of the first one.
  {
    analysis::RunRecord crowded = record;
    for (int i = 0; i < 64; ++i)
      crowded.jobs[0].tasks.push_back(crowded.jobs[0].tasks.front());
    Expect("slot_occupancy", perfbench::CheckSlotOccupancy(record, 64, 64),
           perfbench::CheckSlotOccupancy(crowded, 64, 64));
  }

  // Busy map time: one map runs a second longer than its profile says.
  {
    analysis::RunRecord longer = record;
    for (auto& t : longer.jobs[0].tasks) {
      if (t.kind == obs::TaskKind::kMap) {
        t.timing.end += 1.0;
        break;
      }
    }
    Expect("map_busy_time", perfbench::CheckMapBusyTime(workload, record),
           perfbench::CheckMapBusyTime(workload, longer));
  }

  // Solo map stage: the replayed span, and one past the greedy bound.
  {
    trace::WorkloadTrace solo(1);
    solo[0].profile = profiles[0];
    core::SimConfig plain;
    auto policy = backend::MakePolicy("fifo", 64, 64);
    const auto r = core::SimulatorEngine(plain, *policy).Run(solo);
    const double span = r.jobs[0].map_stage_end - r.jobs[0].arrival;
    double total = 0.0;
    for (const double d : profiles[0].map_durations) total += d;
    Expect("solo_map_stage", perfbench::CheckSoloMapStage(profiles[0], 64, span),
           perfbench::CheckSoloMapStage(profiles[0], 64, span + total));
    Expect("solo_map_stage (short)",
           perfbench::CheckSoloMapStage(profiles[0], 64, span),
           perfbench::CheckSoloMapStage(profiles[0], 64, 0.5 * span));
  }

  // Folded completions: one ulp off.
  {
    core::SimResult off = engine;
    off.jobs[0].completion = std::nextafter(off.jobs[0].completion, 1e300);
    Expect("folded_completions",
           perfbench::CheckFoldedCompletions(engine, record),
           perfbench::CheckFoldedCompletions(off, record));
  }

  // Re-serialization: one byte changed.
  {
    std::string changed = jsonl;
    changed[changed.size() / 2] = changed[changed.size() / 2] == '1' ? '2' : '1';
    Expect("reserialized", perfbench::CheckReserialized(parsed, jsonl),
           perfbench::CheckReserialized(parsed, changed));
  }

  // Repeated runs: one finish one ulp later.
  {
    RunResult again = backend::FromSimResult(
        core::SimulatorEngine(core::SimConfig{}, *fifo).Run(workload));
    RunResult off = again;
    off.jobs[0].finish = std::nextafter(off.jobs[0].finish, 1e300);
    Expect("same_outcomes", perfbench::CheckSameOutcomes(replay, again),
           perfbench::CheckSameOutcomes(replay, off));
  }

  // Repeated set-ups: one deadline one ulp later.
  {
    trace::WorkloadTrace off = workload;
    off[0].deadline = std::nextafter(off[0].deadline, 1e300);
    Expect("same_trace", perfbench::CheckSameTrace(workload, workload),
           perfbench::CheckSameTrace(workload, off));
  }

  // Killed attempts: a success recorded after the attempt was killed.
  {
    obs::EventLog killed;
    obs::LogEvent launch;
    launch.kind = obs::LogEvent::Kind::kTaskLaunch;
    launch.job = 0;
    launch.index = 3;
    obs::LogEvent kill = launch;
    kill.kind = obs::LogEvent::Kind::kTaskCompletion;
    kill.timing = obs::TaskTiming{0.0, 0.0, 1.0};
    kill.succeeded = false;
    obs::LogEvent done = kill;
    done.succeeded = true;
    killed.events = {launch, kill, done};
    Expect("killed_never_complete",
           perfbench::CheckKilledNeverComplete(parsed),
           perfbench::CheckKilledNeverComplete(killed));
  }

  // Mumak: a job finishing right after its submission.
  {
    auto rumen = mumak::RumenTrace::FromHistory(log);
    std::stable_sort(rumen.jobs.begin(), rumen.jobs.end(),
                     [](const auto& a, const auto& b) {
                       return a.submit_time < b.submit_time;
                     });
    const auto result = mumak::RunMumak(rumen, mumak::MumakConfig{});
    auto early = result;
    early.jobs[0].finish_time = early.jobs[0].submit_time + 1.0;
    Expect("mumak_lower_bound", perfbench::CheckMumakLowerBound(rumen, result),
           perfbench::CheckMumakLowerBound(rumen, early));
  }

  // Replay error: the real error, and one above the bound.
  {
    core::SimConfig plain;
    auto policy = backend::MakePolicy("fifo", 64, 64);
    const RunResult accuracy = backend::FromSimResult(
        core::SimulatorEngine(plain, *policy).Run(workload));
    const double error = perfbench::ReplayErrorPct(log, accuracy);
    RunResult slow = accuracy;
    for (auto& job : slow.jobs) job.finish += 0.5 * job.CompletionTime();
    Expect("replay_error",
           perfbench::CheckReplayError(error, 20.0),
           perfbench::CheckReplayError(perfbench::ReplayErrorPct(log, slow),
                                       20.0));
  }

  if (g_failures != 0) {
    std::fprintf(stderr, "%d check test(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all checks hold on valid outputs and fail on corrupted ones\n");
  return 0;
}
