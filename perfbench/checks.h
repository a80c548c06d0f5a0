// Output checks of the pipeline benchmark.
//
// Each check re-derives a property of a simulator output from first
// principles, apart from the code that produced it, and returns an empty
// string when it holds or a one-line explanation when it does not. The
// benchmark counts each failing check as a failed operation;
// checks_test.cpp shows that each one fails on a deliberately corrupted
// result.
#pragma once

#include <string>
#include <vector>

#include "analysis/run_record.h"
#include "backend/run_result.h"
#include "cluster/config.h"
#include "cluster/history_log.h"
#include "core/metrics.h"
#include "mumak/mumak_sim.h"
#include "mumak/rumen.h"
#include "trace/job_profile.h"
#include "trace/workload.h"

namespace perfbench {

using simmr::backend::RunResult;

/// Every task of every submitted job has exactly one successful attempt
/// (`faulted`: at least one — a map whose output died with its node runs
/// again), and no successful attempt names a task the job does not have.
std::string CheckOneSuccessPerTask(const simmr::cluster::HistoryLog& log,
                                   bool faulted);

/// Sweep over the log: no node ever runs more concurrent map (reduce)
/// attempts than it has map (reduce) slots.
std::string CheckNodeSlots(const simmr::cluster::HistoryLog& log,
                           const simmr::cluster::ClusterConfig& config);

/// Each job's map count is ceil(input / block size), and at least one.
std::string CheckMapCounts(const simmr::cluster::HistoryLog& log,
                           double block_size_mb);

/// Every job of the workload completed, after it arrived.
std::string CheckAllJobsComplete(const simmr::trace::WorkloadTrace& workload,
                                 const RunResult& result);

/// No instant has more running maps (reduces) than the cluster's slots,
/// swept over every attempt of a recorded run, killed ones included.
std::string CheckSlotOccupancy(const simmr::analysis::RunRecord& record,
                               int map_slots, int reduce_slots);

/// Fault-free replay: busy map slot-seconds equal the sum of the replayed
/// profiles' map durations.
std::string CheckMapBusyTime(const simmr::trace::WorkloadTrace& workload,
                             const simmr::analysis::RunRecord& record);

/// A solo replay's map stage (arrival to map-stage end) lies inside the
/// greedy list-scheduling bounds of the profile's map durations on
/// `map_slots` slots: max(sum/k, longest) <= span <= sum/k + (1-1/k)
/// longest.
std::string CheckSoloMapStage(const simmr::trace::JobProfile& profile,
                              int map_slots, double map_stage);

/// The per-job completions folded from the parsed event log equal the
/// engine's own result bit for bit.
std::string CheckFoldedCompletions(const simmr::core::SimResult& engine,
                                   const simmr::analysis::RunRecord& record);

/// Serializing the parsed log again gives back the original bytes.
std::string CheckReserialized(const simmr::obs::EventLog& parsed,
                              const std::string& jsonl);

/// Two runs of one spec produced identical per-job outcomes.
std::string CheckSameOutcomes(const RunResult& a, const RunResult& b);

/// Two set-ups from one history log produced identical replay sets: the
/// same profiles, arrivals, deadlines and solo completions, bit for bit.
std::string CheckSameTrace(const simmr::trace::WorkloadTrace& a,
                           const simmr::trace::WorkloadTrace& b);

/// Walking the recorded attempts of each task in order, a successful
/// completion always belongs to a launch made after the task's last kill.
std::string CheckKilledNeverComplete(const simmr::obs::EventLog& log);

/// Each Mumak job completes no earlier than its longest map plus its
/// longest reduce phase.
std::string CheckMumakLowerBound(const simmr::mumak::RumenTrace& trace,
                                 const simmr::mumak::MumakResult& result);

/// Mean |SimMR - testbed| / testbed per-job completion time, in percent,
/// over the testbed jobs replayed at their logged submit times.
double ReplayErrorPct(const simmr::cluster::HistoryLog& log,
                      const RunResult& replay);

/// The error stays within `bound_pct`.
std::string CheckReplayError(double error_pct, double bound_pct);

}  // namespace perfbench
