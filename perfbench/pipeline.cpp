#include "pipeline.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <istream>
#include <memory>
#include <stdexcept>
#include <streambuf>
#include <tuple>
#include <utility>

#include "analysis/availability.h"
#include "analysis/critical_path.h"
#include "analysis/deadline.h"
#include "analysis/phases.h"
#include "analysis/run_record.h"
#include "backend/run_result.h"
#include "backend/session.h"
#include "checks.h"
#include "cluster/cluster_sim.h"
#include "core/engine.h"
#include "core/simmr.h"
#include "fault/fault_plan.h"
#include "mumak/mumak_sim.h"
#include "mumak/rumen.h"
#include "obs/event_log.h"
#include "prof/profiler.h"
#include "simcore/rng.h"
#include "trace.h"
#include "trace/mr_profiler.h"
#include "trace/trace_database.h"
#include "trace/workload.h"

namespace perfbench {
namespace {

namespace analysis = simmr::analysis;
namespace backend = simmr::backend;
namespace cluster = simmr::cluster;
namespace core = simmr::core;
namespace fault = simmr::fault;
namespace mumak = simmr::mumak;
namespace obs = simmr::obs;
namespace prof = simmr::prof;
namespace strace = simmr::trace;
using simmr::Rng;
using simmr::SimTime;

constexpr const char* kPolicies[] = {"fifo", "maxedf", "minedf", "fair",
                                     "capacity"};
/// The paper's testbed: 64 workers with one map and one reduce slot each.
constexpr int kNodes = 64;
constexpr int kSlots = 64;
/// The layers with work in every round, for the per-round self-time
/// report ("bench" is the benchmark's own glue, "check" its output
/// checks).
constexpr const char* kLayers[] = {"cluster", "trace",    "fault", "mumak",
                                   "core",    "sched",    "backend", "obs",
                                   "analysis", "bench",   "check"};
/// The repository's default testbed seed.
constexpr std::uint64_t kTestbedSeed = 42;
/// Timed rounds per run never drop below this, however long a round takes.
constexpr int kMinTimedRounds = 4;

// ---------------------------------------------------------------- workloads

/// A replay set is `copies` seed-permuted passes over the whole profile
/// pool, so every set has the same job mix and only the order, arrivals
/// and deadlines depend on the seed.
struct ReplaySetSpec {
  int copies = 0;
  double mean_interarrival_s = 0.0;
  double deadline_factor = 0.0;
};

struct WorkloadConfig {
  /// Testbed submissions, in this order, `submit_gap_s` apart. The order
  /// is fixed: the testbed's per-event cost depends on which jobs ran
  /// before, so a seeded order would vary the work between seeds.
  std::vector<cluster::JobSpec> specs;
  double submit_gap_s = 0.0;
  /// Whether a seeded fault plan is applied to every simulator.
  bool faults = false;
  /// Fault-plan action times are drawn inside [0, fault_horizon_s).
  double fault_horizon_s = 0.0;
  /// Runs of the testbed and Mumak stages per round. Each run is one more
  /// sample of the same piece of work, whose fastest sample is kept.
  int testbed_repeats = 1;
  int mumak_repeats = 1;
  /// Bare replays, each under every policy.
  std::vector<ReplaySetSpec> sets;
  /// The FIFO replay that is recorded, serialized and analysed.
  ReplaySetSpec recorded;
  /// Bound on replay_error_pct, in percent.
  double error_bound_pct = 0.0;
};

cluster::JobSpec Job(cluster::AppModel app, int input_gb, int reduces) {
  cluster::JobSpec spec;
  spec.dataset_label = app.name + "-" + std::to_string(input_gb) + "GB";
  spec.app = std::move(app);
  spec.input_mb = input_gb * 1024.0;
  spec.num_reduces = reduces;
  return spec;
}

WorkloadConfig MakeConfig(const std::string& name) {
  namespace apps = cluster::apps;
  WorkloadConfig c;
  if (name == "fig5_serial") {
    // The Figure 5(a) setting: the six applications at the paper's dataset
    // sizes, each alone on the cluster (the gap exceeds the longest job,
    // WikiTrends at ~1270 s).
    c.specs = cluster::ValidationSuite();
    c.submit_gap_s = 1500.0;
    c.mumak_repeats = 5;
    c.sets = {{33, 600.0, 2.0}, {33, 600.0, 2.0}, {33, 600.0, 2.0}};
    c.recorded = {4, 600.0, 2.0};
    // The paper's average SimMR error (Figure 5(a)).
    c.error_bound_pct = 2.7;
  } else if (name == "edf_backlog") {
    // A short, overlapping testbed run of small jobs (four of each
    // application) supplies the profile pool; the replay sets then arrive
    // far faster than 64 + 64 slots drain them.
    for (int pass = 0; pass < 4; ++pass) {
      for (auto job : {Job(apps::WordCount(), 4, 32), Job(apps::WikiTrends(), 4, 32),
                       Job(apps::Twitter(), 3, 32), Job(apps::Sort(), 3, 32),
                       Job(apps::Tfidf(), 2, 32), Job(apps::Bayes(), 4, 32)})
        c.specs.push_back(std::move(job));
    }
    c.submit_gap_s = 20.0;
    c.testbed_repeats = 2;
    c.mumak_repeats = 12;
    c.sets = {{15, 4.0, 1.5}, {15, 4.0, 3.0}};
    c.recorded = {3, 4.0, 1.5};
    c.error_bound_pct = 10.0;
  } else if (name == "faults_recorded") {
    // Moderate load under node crashes, long heartbeat losses and kills;
    // the recorded replay is the largest piece of work.
    c.specs = {Job(apps::WordCount(), 12, 64), Job(apps::WikiTrends(), 10, 64),
               Job(apps::Twitter(), 8, 96),    Job(apps::Sort(), 8, 64),
               Job(apps::Tfidf(), 4, 64),      Job(apps::Bayes(), 12, 64)};
    c.submit_gap_s = 150.0;
    c.faults = true;
    c.fault_horizon_s = 1500.0;
    c.testbed_repeats = 2;
    c.mumak_repeats = 20;
    c.sets = {{50, 200.0, 2.0}, {50, 200.0, 2.0}};
    c.recorded = {27, 200.0, 2.0};
    // The engine applies a crash at once; the testbed notices it only
    // after the 600 s tracker expiry, so faulted replays run ahead.
    c.error_bound_pct = 75.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return c;
}

/// Node crashes with restores, heartbeat losses longer than the tracker
/// expiry interval (600 s), and targeted attempt kills, on the 64 x 1 x 1
/// geometry. `rng` picks the nodes hit; the action times and kill targets
/// are fixed fractions of the horizon.
fault::FaultPlan MakeFaultPlan(Rng rng, double horizon, int kill_jobs) {
  fault::FaultPlan plan;
  plan.num_nodes = kNodes;
  plan.map_slots_per_node = 1;
  plan.reduce_slots_per_node = 1;
  plan.seed = rng.seed();
  std::vector<std::int32_t> nodes(kNodes);
  for (int i = 0; i < kNodes; ++i) nodes[static_cast<std::size_t>(i)] = i;
  for (std::size_t i = nodes.size(); i > 1; --i)
    std::swap(nodes[i - 1], nodes[rng.NextBounded(i)]);
  std::size_t next_node = 0;
  for (int i = 0; i < 4; ++i) {
    fault::FaultAction crash;
    crash.kind = fault::FaultActionKind::kNodeCrash;
    crash.node = nodes[next_node++];
    crash.time = (0.10 + 0.15 * i) * horizon;
    fault::FaultAction restore = crash;
    restore.kind = fault::FaultActionKind::kNodeRestore;
    restore.time = crash.time + 0.2 * horizon;
    plan.actions.push_back(crash);
    plan.actions.push_back(restore);
  }
  for (int i = 0; i < 2; ++i) {
    fault::FaultAction loss;
    loss.kind = fault::FaultActionKind::kHeartbeatLoss;
    loss.node = nodes[next_node++];
    loss.time = (0.15 + 0.3 * i) * horizon;
    loss.end_time = loss.time + 750.0;
    plan.actions.push_back(loss);
  }
  for (int i = 0; i < 8; ++i) {
    fault::FaultAction kill;
    kill.kind = fault::FaultActionKind::kKillAttempt;
    kill.job = i % kill_jobs;
    kill.task_kind = i % 4 == 3 ? obs::TaskKind::kReduce : obs::TaskKind::kMap;
    kill.index = 3 * i + 1;
    kill.time = (0.05 + 0.1 * i) * horizon;
    plan.actions.push_back(kill);
  }
  const std::string err = fault::ValidateFaultPlan(plan);
  if (!err.empty()) throw std::logic_error("benchmark fault plan: " + err);
  return plan;
}

// ----------------------------------------------------------- timed policy

/// Forwards every call to the wrapped policy, timing and counting the
/// decision calls and the lifecycle callbacks (traced run only).
class TimedPolicy final : public core::SchedulerPolicy {
 public:
  explicit TimedPolicy(core::SchedulerPolicy& inner) : inner_(inner) {}

  const char* Name() const override { return inner_.Name(); }

  void OnJobArrival(const core::JobState& job, SimTime now) override {
    const auto t0 = Clock::now();
    inner_.OnJobArrival(job, now);
    lifecycle_ += Clock::now() - t0;
  }
  void OnJobCompletion(const core::JobState& job, SimTime now) override {
    const auto t0 = Clock::now();
    inner_.OnJobCompletion(job, now);
    lifecycle_ += Clock::now() - t0;
  }
  core::JobId ChooseNextMapTask(core::JobQueue q) override {
    return Decide(q, [&] { return inner_.ChooseNextMapTask(q); });
  }
  core::JobId ChooseNextReduceTask(core::JobQueue q) override {
    return Decide(q, [&] { return inner_.ChooseNextReduceTask(q); });
  }
  core::JobId ChooseReducePreemptionVictim(
      core::JobQueue q, const core::JobState& claimant) override {
    return Decide(
        q, [&] { return inner_.ChooseReducePreemptionVictim(q, claimant); });
  }

  double decide_s() const {
    return std::chrono::duration<double>(decide_).count();
  }
  double lifecycle_s() const {
    return std::chrono::duration<double>(lifecycle_).count();
  }
  std::uint64_t calls = 0;
  std::uint64_t found = 0;
  std::uint64_t queue_len_sum = 0;

 private:
  template <typename Fn>
  core::JobId Decide(core::JobQueue q, Fn&& fn) {
    const auto t0 = Clock::now();
    const core::JobId chosen = fn();
    decide_ += Clock::now() - t0;
    ++calls;
    found += chosen != core::kInvalidJob ? 1 : 0;
    queue_len_sum += q.size();
    return chosen;
  }

  core::SchedulerPolicy& inner_;
  Clock::duration decide_{};
  Clock::duration lifecycle_{};
};

// ----------------------------------------------------------------- helpers

/// Read-only istream over a string, so parsing the in-memory event log
/// does not first copy it.
class StringViewBuf : public std::streambuf {
 public:
  explicit StringViewBuf(const std::string& s) {
    char* p = const_cast<char*>(s.data());
    setg(p, p, p + s.size());
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of the process so far, in MB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Records one piece of a stage's timed work. A stage's time is the sum
/// over its pieces of each piece's fastest round (see Bench::Run).
void Piece(std::map<std::string, double>& v, const std::string& stage,
           int index, double seconds) {
  v["e2e." + stage + "/" + std::to_string(index)] = seconds;
}

/// Records one of a round's repeats of the same piece, keeping the fastest.
void RepeatedPiece(std::map<std::string, double>& v, const std::string& stage,
                   double seconds) {
  const std::string key = "e2e." + stage + "/0";
  const auto it = v.find(key);
  v[key] = it == v.end() ? seconds : std::min(it->second, seconds);
}

double TasksOf(const strace::WorkloadTrace& w) {
  double n = 0.0;
  for (const auto& job : w) n += job.profile.num_maps + job.profile.num_reduces;
  return n;
}

/// Waits for a quiet moment of the host before a measurement that has only
/// one sample per run (the cold set-up). The host's speed drifts by up to
/// 1.5x within tenths of a second, so a single 10 ms sample depends more
/// on when it is taken than on the code. A fixed probe (sort 8k integers,
/// copy 1 MB) is timed for `calibrate_s` of wall time to find its fastest
/// time in this stretch, then repeated until one probe is within 3 % of
/// that, for at most `wait_s` more. Returns the CPU time spent, which the
/// caller leaves out of its measurement.
double WaitForQuietHost(double calibrate_s, double wait_s) {
  const double cpu0 = Now();
  std::vector<std::uint32_t> keys(8192), work;
  Rng rng(kTestbedSeed);
  for (auto& k : keys)
    k = static_cast<std::uint32_t>(rng.NextBounded(1u << 30));
  std::vector<char> from(1 << 20, 1), to(from.size());
  volatile std::uint32_t sink = 0;  // keeps the probe from being elided
  const auto probe = [&] {
    const double t0 = Now();
    work = keys;
    std::sort(work.begin(), work.end());
    std::memcpy(to.data(), from.data(), from.size());
    sink = sink + work[work.size() / 2] +
           static_cast<std::uint32_t>(to[sink % to.size()]);
    return Now() - t0;
  };
  double best = probe();
  const double start = WallNow();
  while (WallNow() - start < calibrate_s) best = std::min(best, probe());
  while (WallNow() - start < calibrate_s + wait_s && probe() > 1.03 * best) {
  }
  return Now() - cpu0;
}

// --------------------------------------------------------------- the bench

/// What set-up makes from the testbed's history log: the replay sets and
/// the inputs of the other stages.
struct Prepared {
  fault::FaultPlan plan;
  cluster::HistoryLog log;  // as re-read from disk
  mumak::RumenTrace rumen;
  std::vector<strace::JobProfile> pool;  // as loaded from the trace database
  std::vector<strace::WorkloadTrace> sets;
  strace::WorkloadTrace recorded;
  strace::WorkloadTrace accuracy;  // the log's jobs at their submit times
};

/// The fixed inputs of every round: the submissions, the testbed options
/// and the first set-up's results.
struct Inputs : Prepared {
  std::vector<cluster::SubmittedJob> submitted;
  cluster::TestbedOptions testbed;
  const fault::FaultPlan* plan_ptr = nullptr;
  double testbed_tasks = 0.0, mumak_tasks = 0.0, set_tasks = 0.0,
         recorded_tasks = 0.0;
};

/// Outputs of the warm-up round, which later rounds must reproduce.
struct Reference {
  backend::RunResult testbed;
  backend::RunResult mumak;
  std::vector<backend::RunResult> replays;  // policy-major
  backend::RunResult recorded;
  std::string jsonl;
};

using Values = std::map<std::string, double>;

class Bench {
 public:
  explicit Bench(const RunOptions& options)
      : opt_(options), cfg_(MakeConfig(options.workload)),
        tracer_(options.traced) {}

  RunReport Run();

 private:
  void Setup();
  /// Fault plan, then everything from the testbed's history log to ready
  /// replay sets, each step timed into `v`.
  fault::FaultPlan MakePlan(Values& v);
  void Prepare(const cluster::HistoryLog& testbed_log, Prepared& out,
               Values& v);
  void RunRound(Values& v, bool first);
  /// The full output checks, on the warm-up round's outputs.
  void Checks(const cluster::TestbedResult& testbed,
              const mumak::MumakResult& mumak_result,
              const std::vector<backend::RunResult>& replays,
              const core::SimResult& recorded, const std::string& jsonl,
              const obs::EventLog& parsed, const analysis::RunRecord& record);
  /// A timed round's outputs against the warm-up round's, bit for bit.
  void CheckRepeated(const Prepared& again,
                     const backend::RunResult& testbed_result,
                     const mumak::MumakResult& mumak_result,
                     const std::vector<backend::RunResult>& replays,
                     const core::SimResult& recorded, const std::string& jsonl);
  void Check(const std::string& err) {
    ++attempted_;
    if (!err.empty()) {
      ++failed_;
      if (failures_.size() < 16) failures_.push_back(err);
    }
  }
  core::SimConfig EngineConfig() const {
    core::SimConfig c;
    c.map_slots = kSlots;
    c.reduce_slots = kSlots;
    c.fault_plan = in_.plan_ptr;
    return c;
  }
  /// One bare replay: policy construction, engine run, result adaptation.
  backend::RunResult Replay(const char* policy,
                            const strace::WorkloadTrace& workload,
                            Values& v);

  RunOptions opt_;
  WorkloadConfig cfg_;
  Tracer tracer_;
  Inputs in_;
  Reference ref_;
  double setup_s_ = 0.0;
  double replay_error_pct_ = 0.0;
  double peak_rss_mb_ = 0.0;
  /// Per-layer counts taken once, from the first history log.
  Values log_counts_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::vector<std::string> failures_;
};

fault::FaultPlan Bench::MakePlan(Values& v) {
  fault::FaultPlan plan;
  // The plan is fixed (see Setup), so every seed faces the same faults.
  v["fault.plan_s"] = Timed(tracer_, "fault.plan", [&] {
    if (cfg_.faults)
      plan = MakeFaultPlan(Rng(kTestbedSeed).Split("faults"),
                           cfg_.fault_horizon_s,
                           static_cast<int>(cfg_.specs.size()));
  });
  return plan;
}

void Bench::Prepare(const cluster::HistoryLog& testbed_log, Prepared& out,
                    Values& v) {
  const std::string log_path = opt_.work_dir + "/history.log";
  const std::string db_dir = opt_.work_dir + "/tracedb";
  v["cluster.log_write_s"] = Timed(
      tracer_, "cluster.log_write", [&] { testbed_log.WriteFile(log_path); });
  v["cluster.log_read_s"] = Timed(tracer_, "cluster.log_read", [&] {
    out.log = cluster::HistoryLog::ReadFile(log_path);
  });
  std::vector<strace::JobProfile> profiles;
  v["trace.build_profiles_s"] = Timed(tracer_, "trace.build_profiles", [&] {
    profiles = strace::BuildAllProfiles(out.log);
  });
  v["mumak.rumen_s"] = Timed(tracer_, "mumak.rumen", [&] {
    out.rumen = mumak::RumenTrace::FromHistory(out.log);
    // The log lists jobs in completion order, which RunMumak refuses once
    // jobs overlap; replay them in submission order.
    std::stable_sort(out.rumen.jobs.begin(), out.rumen.jobs.end(),
                     [](const mumak::RumenJob& a, const mumak::RumenJob& b) {
                       return a.submit_time < b.submit_time;
                     });
  });
  v["trace.db_save_s"] = Timed(tracer_, "trace.db_save", [&] {
    strace::TraceDatabase db;
    for (const auto& p : profiles) db.Put(p);
    db.Save(db_dir);
  });
  v["trace.db_load_s"] = Timed(tracer_, "trace.db_load", [&] {
    const auto db = strace::TraceDatabase::Load(db_dir);
    for (const auto id : db.AllIds()) out.pool.push_back(db.Get(id));
  });
  std::vector<double> solos;
  v["core.solo_completions_s"] =
      Timed(tracer_, "core.solo_completions", [&] {
        core::SimConfig solo;
        solo.map_slots = kSlots;
        solo.reduce_slots = kSlots;
        solos = core::MeasureSoloCompletions(out.pool, solo);
      });
  v["trace.make_workload_s"] = Timed(tracer_, "trace.make_workload", [&] {
    Rng master(opt_.seed);
    const auto make = [&](const ReplaySetSpec& s, Rng rng) {
      strace::WorkloadParams params;
      params.mean_interarrival_s = s.mean_interarrival_s;
      params.deadline_factor = s.deadline_factor;
      strace::WorkloadTrace set;
      for (int c = 0; c < s.copies; ++c) {
        const double offset =
            set.empty() ? 0.0 : set.back().arrival + s.mean_interarrival_s;
        for (auto& job : strace::MakeWorkload(out.pool, solos, params, rng)) {
          job.arrival += offset;
          if (job.deadline > 0.0) job.deadline += offset;
          set.push_back(std::move(job));
        }
      }
      return set;
    };
    for (std::size_t i = 0; i < cfg_.sets.size(); ++i)
      out.sets.push_back(make(cfg_.sets[i], master.Split("replay-set", i)));
    out.recorded = make(cfg_.recorded, master.Split("recorded"));
    for (std::size_t i = 0; i < out.log.jobs().size(); ++i) {
      strace::TraceJob job;
      job.profile = profiles[i];
      job.arrival = out.log.jobs()[i].submit_time;
      out.accuracy.push_back(std::move(job));
    }
  });
}

void Bench::Setup() {
  // setup_s is one cold set-up, timed in CPU time from the process's
  // start: process start-up, the fault plan, and everything from the
  // testbed's history log to ready replay sets. The testbed run that
  // produces the log is not set-up; it is the stage behind
  // testbed_tasks_per_s, and is left out, as is the wait for a quiet host
  // before the steps from the log on.
  Values cold;
  {
    Span s(tracer_, "bench.setup");
    for (std::size_t i = 0; i < cfg_.specs.size(); ++i)
      in_.submitted.push_back(
          {cfg_.specs[i], static_cast<double>(i) * cfg_.submit_gap_s, 0.0});
    // The testbed's own noise seed and the fault plan are fixed: the
    // history log is the ground truth replay_error_pct is measured
    // against, and a fixed log keeps that metric, and the testbed's work,
    // the same for every --seed. The seed draws the replay sets.
    in_.testbed.seed = kTestbedSeed;
    in_.plan = MakePlan(cold);
    if (cfg_.faults) {
      in_.plan_ptr = &in_.plan;
      in_.testbed.fault_plan = in_.plan_ptr;
    }
  }
  cluster::TestbedResult first;
  const double testbed_s = Timed(tracer_, "cluster.run_initial", [&] {
    first = cluster::RunTestbed(in_.submitted, in_.testbed);
  });
  const double quiet_s = WaitForQuietHost(1.0, 2.0);
  {
    Span s(tracer_, "bench.setup");
    Prepare(first.log, in_, cold);
  }
  setup_s_ = Now() - testbed_s - quiet_s;

  for (const auto& job : in_.log.jobs())
    in_.testbed_tasks += job.num_maps + job.num_reduces;
  for (const auto& job : in_.rumen.jobs)
    in_.mumak_tasks += job.num_maps + job.num_reduces;
  for (const auto& set : in_.sets) in_.set_tasks += TasksOf(set);
  in_.recorded_tasks = TasksOf(in_.recorded);

  Values& v = log_counts_;
  v["cluster.log_bytes"] = static_cast<double>(
      std::filesystem::file_size(opt_.work_dir + "/history.log"));
  std::uint64_t attempts = 0, succeeded = 0, killed = 0;
  double reexecuted = 0.0;
  std::map<std::tuple<int, int, int>, int> successes;
  for (const auto& t : in_.log.tasks()) {
    ++attempts;
    if (!t.succeeded) {
      // An attempt a kill action ended: the named task, cut off at the
      // action's time (to the log's printed precision). Attempts lost with
      // a crashed or silent node are not counted here.
      for (const auto& a : in_.plan.actions) {
        if (a.kind == fault::FaultActionKind::kKillAttempt &&
            a.job == t.job && a.index == t.index &&
            std::abs(a.time - t.end) < 1e-3 &&
            (a.task_kind == obs::TaskKind::kMap) ==
                (t.kind == cluster::TaskKind::kMap)) {
          ++killed;
          break;
        }
      }
      continue;
    }
    ++succeeded;
    ++successes[{t.job, static_cast<int>(t.kind), t.index}];
  }
  for (const auto& [task, n] : successes) reexecuted += n > 1 ? 1.0 : 0.0;
  v["cluster.attempts"] = static_cast<double>(attempts);
  v["cluster.useful_attempt_ratio"] =
      attempts == 0 ? 0.0
                    : static_cast<double>(succeeded) /
                          static_cast<double>(attempts);
  v["fault.actions"] = static_cast<double>(in_.plan.actions.size());
  v["fault.killed_attempts"] = static_cast<double>(killed);
  v["fault.reexecuted_tasks"] = reexecuted;
}

backend::RunResult Bench::Replay(const char* policy,
                                 const strace::WorkloadTrace& workload,
                                 Values& v) {
  const std::string p = policy;
  std::unique_ptr<core::SchedulerPolicy> inner;
  {
    Span s(tracer_, "sched.construct");
    inner = backend::MakePolicy(p, kSlots, kSlots);
  }
  core::SimResult result;
  if (!tracer_.enabled()) {
    Span s(tracer_, "core.run");
    result = core::SimulatorEngine(EngineConfig(), *inner).Run(workload);
  } else {
    TimedPolicy timed(*inner);
    prof::Reset();
    Span s(tracer_, "core.run");
    result = core::SimulatorEngine(EngineConfig(), timed).Run(workload);
    tracer_.AddAggregate("sched." + p + ".decide", timed.decide_s());
    tracer_.AddAggregate("sched." + p + ".lifecycle", timed.lifecycle_s());
    s.Stop();
    v["core." + p + ".replay_s"] += s.Seconds();
    v["core." + p + ".events"] += static_cast<double>(result.events_processed);
    v["sched." + p + ".decide_s"] += timed.decide_s();
    v["sched." + p + ".lifecycle_s"] += timed.lifecycle_s();
    v["sched." + p + ".calls"] += static_cast<double>(timed.calls);
    v["sched." + p + ".found"] += static_cast<double>(timed.found);
    v["sched." + p + ".queue_len_sum"] +=
        static_cast<double>(timed.queue_len_sum);
    v["simcore.heap_pushes"] +=
        static_cast<double>(prof::Value(prof::Counter::kHeapPushes));
    v["simcore.heap_pops"] +=
        static_cast<double>(prof::Value(prof::Counter::kHeapPops));
    v["simcore.allocations"] +=
        static_cast<double>(prof::Value(prof::Counter::kAllocations));
    v["simcore.replays"] += 1.0;
    v["simcore.queue_depth_max"] =
        std::max(v["simcore.queue_depth_max"],
                 static_cast<double>(
                     prof::HighWaterValue(prof::HighWater::kQueueDepth)));
    v["core.ready_set_max"] = std::max(
        v["core.ready_set_max"],
        static_cast<double>(prof::HighWaterValue(prof::HighWater::kReadySet)));
  }
  Span adapt(tracer_, "backend.adapt");
  backend::RunResult out = backend::FromSimResult(std::move(result));
  v["backend.adapt_s"] += adapt.Stop();
  return out;
}

void Bench::RunRound(Values& v, bool first) {
  const std::size_t first_span = tracer_.spans().size();
  Span round(tracer_, "bench.round");

  // Testbed.
  cluster::TestbedResult testbed;
  backend::RunResult testbed_result;
  {
    Span stage(tracer_, "bench.testbed");
    double run_s = 0.0;
    for (int k = 0; k < cfg_.testbed_repeats; ++k) {
      const double t0 = Now();
      Span run(tracer_, "cluster.run");
      testbed = cluster::RunTestbed(in_.submitted, in_.testbed);
      run_s += run.Stop();
      Span adapt(tracer_, "backend.adapt");
      testbed_result = backend::FromTestbedResult(testbed);
      v["backend.adapt_s"] += adapt.Stop();
      RepeatedPiece(v, "testbed", Now() - t0);
      ++attempted_;
    }
    v["cluster.run_s"] = run_s / cfg_.testbed_repeats;
  }
  v["cluster.events"] = static_cast<double>(testbed.events_processed);

  // Set-up again, from this round's history log: its per-layer times are
  // medians over the rounds, steadier than the one cold set-up.
  Prepared again;
  {
    Span stage(tracer_, "bench.setup");
    again.plan = MakePlan(v);
    Prepare(testbed.log, again, v);
  }

  // Mumak.
  mumak::MumakResult mumak_result;
  {
    Span stage(tracer_, "bench.mumak");
    mumak::MumakConfig mcfg;
    mcfg.num_nodes = kNodes;
    mcfg.fault_plan = in_.plan_ptr;
    double run_s = 0.0;
    for (int k = 0; k < cfg_.mumak_repeats; ++k) {
      const double t0 = Now();
      Span run(tracer_, "mumak.run");
      mumak_result = mumak::RunMumak(in_.rumen, mcfg);
      run_s += run.Stop();
      Span adapt(tracer_, "backend.adapt");
      const backend::RunResult adapted = backend::FromMumakResult(mumak_result);
      v["backend.adapt_s"] += adapt.Stop();
      RepeatedPiece(v, "mumak", Now() - t0);
      ++attempted_;
    }
    v["mumak.run_s"] = run_s / cfg_.mumak_repeats;
  }
  v["mumak.events"] = static_cast<double>(mumak_result.events_processed);

  // Bare SimMR replays of every set under every policy.
  std::vector<backend::RunResult> replays;
  for (const char* policy : kPolicies) {
    const std::string name = std::string("bench.replay.") + policy;
    Span stage(tracer_, name.c_str());
    for (std::size_t i = 0; i < in_.sets.size(); ++i) {
      const double t0 = Now();
      replays.push_back(Replay(policy, in_.sets[i], v));
      Piece(v, std::string("replay_") + policy, static_cast<int>(i),
            Now() - t0);
      ++attempted_;
    }
  }

  // Recorded FIFO replay, serialized to JSONL in memory.
  obs::EventLogObserver recorder;
  core::SimResult recorded;
  std::string jsonl;
  {
    double bare_s = 0.0;
    if (tracer_.enabled()) {
      auto fifo = backend::MakePolicy("fifo", kSlots, kSlots);
      Span bare(tracer_, "core.run_recorded_bare");
      core::SimulatorEngine(EngineConfig(), *fifo).Run(in_.recorded);
      bare_s = bare.Stop();
    }
    Span stage(tracer_, "bench.recorded");
    const double t0 = Now();
    std::unique_ptr<core::SchedulerPolicy> fifo;
    {
      Span s(tracer_, "sched.construct");
      fifo = backend::MakePolicy("fifo", kSlots, kSlots);
    }
    core::SimConfig config = EngineConfig();
    config.observer = &recorder;
    {
      Span run(tracer_, "core.run_recorded");
      recorded = core::SimulatorEngine(config, *fifo).Run(in_.recorded);
      if (tracer_.enabled()) {
        // What recording added over the bare replay of the same spec is
        // the observer's work: attribute it to obs, not core.
        v["obs.record_overhead_s"] = run.Elapsed() - bare_s;
        tracer_.AddAggregate("obs.record",
                             std::max(0.0, v["obs.record_overhead_s"]));
      }
    }
    Piece(v, "recorded", 0, Now() - t0);
    Span ser(tracer_, "obs.serialize");
    jsonl = recorder.ToJsonl({"simmr_perfbench", opt_.workload, "simmr"});
    v["obs.serialize_s"] = ser.Stop();
    Piece(v, "recorded", 1, v["obs.serialize_s"]);
  }
  ++attempted_;
  v["obs.records"] = static_cast<double>(recorder.event_count());
  v["obs.bytes"] = static_cast<double>(jsonl.size());

  // Offline analysis of the serialized log.
  obs::EventLog parsed;
  analysis::RunRecord record;
  {
    Span stage(tracer_, "bench.analyze");
    v["analysis.parse_s"] = Timed(tracer_, "analysis.parse", [&] {
      StringViewBuf buf(jsonl);
      std::istream in(&buf);
      parsed = obs::ParseEventLog(in);
    });
    v["analysis.fold_s"] = Timed(tracer_, "analysis.fold", [&] {
      record = analysis::RunRecord::FromLog(parsed);
    });
    double sink = 0.0;
    v["analysis.report_s"] = Timed(tracer_, "analysis.report", [&] {
      for (const auto& job : record.jobs) {
        sink += analysis::ComputePhaseBreakdown(job).map_total;
        sink += analysis::ExtractCriticalPath(job).work_seconds;
      }
      sink += analysis::AttributeDeadlineMisses(record).missed;
    });
    v["analysis.availability_s"] =
        Timed(tracer_, "analysis.availability", [&] {
          sink += analysis::BuildAvailabilityReport(record, nullptr)
                      .total_wasted_seconds;
        });
    int piece = 0;
    for (const char* step : {"analysis.parse_s", "analysis.fold_s",
                             "analysis.report_s", "analysis.availability_s"})
      Piece(v, "analyze", piece++, v[step]);
    v["analysis.checksum"] = sink;  // keeps the reports from being elided
  }
  ++attempted_;

  std::uint64_t launched = 0, succeeded = 0;
  for (const auto& job : record.jobs) {
    launched += job.launches[0] + job.launches[1];
    succeeded += job.SucceededCount(obs::TaskKind::kMap) +
                 job.SucceededCount(obs::TaskKind::kReduce);
  }
  v["core.useful_attempt_ratio"] =
      launched == 0 ? 0.0
                    : static_cast<double>(succeeded) /
                          static_cast<double>(launched);

  // The warm-up round runs every output check and becomes the reference;
  // a timed round must reproduce it bit for bit, so checks on its outputs
  // would give the same answers again.
  if (first) {
    // Peak memory of set-up and one pass of every stage, as one run of the
    // pipeline needs it. The output checks are the benchmark's own work;
    // and later rounds only repeat the same work in the same process,
    // which adds allocator fragmentation that depends on the seed's exact
    // allocation sizes (measured: +0 or +11 MB on faults_recorded).
    peak_rss_mb_ = PeakRssMb();
    Checks(testbed, mumak_result, replays, recorded, jsonl, parsed, record);
  } else {
    CheckRepeated(again, testbed_result, mumak_result, replays, recorded,
                  jsonl);
  }
  round.Stop();
  if (tracer_.enabled()) {
    for (const auto& [layer, self] :
         tracer_.LayerSelfTimes(first_span, tracer_.spans().size()))
      v[layer + ".self_s"] = self;
  }
  if (first) {
    ref_.testbed = std::move(testbed_result);
    ref_.mumak = backend::FromMumakResult(mumak_result);
    ref_.replays = std::move(replays);
    ref_.recorded = backend::FromSimResult(recorded);
    ref_.jsonl = std::move(jsonl);
  }
}

void Bench::Checks(const cluster::TestbedResult& testbed,
                   const mumak::MumakResult& mumak_result,
                   const std::vector<backend::RunResult>& replays,
                   const core::SimResult& recorded, const std::string& jsonl,
                   const obs::EventLog& parsed,
                   const analysis::RunRecord& record) {
  Span span(tracer_, "check.all");
  const cluster::ClusterConfig& cc = in_.testbed.config;
  Check(CheckOneSuccessPerTask(testbed.log, cfg_.faults));
  if (!cfg_.faults) Check(CheckNodeSlots(testbed.log, cc));
  Check(CheckMapCounts(testbed.log, cc.block_size_mb));
  for (std::size_t i = 0; i < replays.size(); ++i)
    Check(CheckAllJobsComplete(in_.sets[i % in_.sets.size()], replays[i]));
  Check(CheckAllJobsComplete(in_.recorded, backend::FromSimResult(recorded)));
  Check(CheckSlotOccupancy(record, kSlots, kSlots));
  if (!cfg_.faults) Check(CheckMapBusyTime(in_.recorded, record));
  for (const auto& profile : in_.pool) {
    strace::WorkloadTrace solo(1);
    solo[0].profile = profile;
    core::SimConfig c;
    c.map_slots = kSlots;
    c.reduce_slots = kSlots;
    auto fifo = backend::MakePolicy("fifo", kSlots, kSlots);
    const core::SimResult r = core::Replay(solo, *fifo, c);
    Check(r.jobs.size() != 1
              ? std::string("solo replay lost its job")
              : CheckSoloMapStage(profile, kSlots,
                                  r.jobs[0].map_stage_end - r.jobs[0].arrival));
  }
  Check(CheckFoldedCompletions(recorded, record));
  Check(CheckReserialized(parsed, jsonl));
  Check(CheckKilledNeverComplete(parsed));
  Check(CheckMumakLowerBound(in_.rumen, mumak_result));
  // Figure 5(a) accuracy: the log's jobs at their logged submit times,
  // FIFO, under the same fault plan as the testbed.
  auto fifo = backend::MakePolicy("fifo", kSlots, kSlots);
  const backend::RunResult accuracy = backend::FromSimResult(
      core::SimulatorEngine(EngineConfig(), *fifo).Run(in_.accuracy));
  Check(CheckAllJobsComplete(in_.accuracy, accuracy));
  replay_error_pct_ = ReplayErrorPct(in_.log, accuracy);
  Check(CheckReplayError(replay_error_pct_, cfg_.error_bound_pct));
}

void Bench::CheckRepeated(const Prepared& again,
                          const backend::RunResult& testbed_result,
                          const mumak::MumakResult& mumak_result,
                          const std::vector<backend::RunResult>& replays,
                          const core::SimResult& recorded,
                          const std::string& jsonl) {
  Span span(tracer_, "check.repeated");
  Check(again.plan == in_.plan ? std::string()
                               : std::string("repeated fault plan differs"));
  for (std::size_t i = 0; i < in_.sets.size(); ++i)
    Check(CheckSameTrace(in_.sets[i], again.sets[i]));
  Check(CheckSameTrace(in_.recorded, again.recorded));
  Check(CheckSameTrace(in_.accuracy, again.accuracy));
  Check(CheckSameOutcomes(ref_.testbed, testbed_result));
  Check(CheckSameOutcomes(ref_.mumak, backend::FromMumakResult(mumak_result)));
  for (std::size_t i = 0; i < replays.size(); ++i)
    Check(CheckSameOutcomes(ref_.replays[i], replays[i]));
  Check(CheckSameOutcomes(ref_.recorded, backend::FromSimResult(recorded)));
  Check(ref_.jsonl == jsonl ? std::string()
                            : std::string("recorded log differs between "
                                          "repeated replays"));
}

RunReport Bench::Run() {
  if (opt_.traced) {
    prof::Reset();
    prof::Arm();
  }
  Setup();
  std::vector<Values> rounds;
  {
    Values warm;
    RunRound(warm, /*first=*/true);
  }
  // Every run attempts whole rounds of the same operations: the warm-up
  // round and its checks, then timed rounds. A round that would end past
  // --seconds (judged by the longest round so far) is not started, so a
  // run stays within its time.
  const double start = WallNow();
  double longest_round = 0.0;
  while (static_cast<int>(rounds.size()) < kMinTimedRounds ||
         WallNow() - start + longest_round <= opt_.seconds) {
    const double round_start = WallNow();
    rounds.emplace_back();
    RunRound(rounds.back(), /*first=*/false);
    longest_round = std::max(longest_round, WallNow() - round_start);
  }
  prof::Disarm();

  // Per-layer values: the median over the timed rounds. Stage times
  // behind the end-to-end rates: each piece of a stage (one testbed or
  // Mumak run, one replay, one analysis step) at its fastest round, summed
  // over the stage's pieces. Every round does the same deterministic work,
  // so time above a piece's fastest round is interference from the rest
  // of the host. That interference comes and goes within tenths of a
  // second, so short pieces each catch a quiet moment somewhere in the
  // run, where a whole round, or a whole stage, rarely falls in one.
  Values med, fastest;
  for (const auto& [key, unused] : rounds.front()) {
    std::vector<double> xs;
    for (const auto& r : rounds) xs.push_back(r.at(key));
    med[key] = Median(xs);
    if (key.rfind("e2e.", 0) == 0)
      fastest[key.substr(0, key.find('/'))] +=
          *std::min_element(xs.begin(), xs.end());
  }

  RunReport report;
  report.attempted = attempted_;
  report.failed = failed_;
  report.failures = failures_;
  auto put = [&](const std::string& name, double value, const char* unit) {
    report.metrics[name] = Metric{value, unit};
  };
  if (!opt_.traced) {
    put("setup_s", setup_s_, "s");
    put("testbed_tasks_per_s", in_.testbed_tasks / fastest["e2e.testbed"],
        "tasks/s");
    put("mumak_tasks_per_s", in_.mumak_tasks / fastest["e2e.mumak"], "tasks/s");
    for (const char* p : kPolicies) {
      put(std::string("replay_") + p + "_tasks_per_s",
          in_.set_tasks / fastest[std::string("e2e.replay_") + p],
          "tasks/s");
    }
    put("recorded_replay_tasks_per_s",
        in_.recorded_tasks / fastest["e2e.recorded"], "tasks/s");
    put("analyze_tasks_per_s", in_.recorded_tasks / fastest["e2e.analyze"],
        "tasks/s");
    put("replay_error_pct", replay_error_pct_, "%");
    put("peak_rss_mb", peak_rss_mb_, "MB");
    return report;
  }

  // Traced run: the per-layer metrics.
  for (const auto& [key, value] : log_counts_) med[key] = value;
  const auto per_event = [&](const std::string& s, const std::string& n) {
    return med[n] > 0.0 ? 1e9 * med[s] / med[n] : 0.0;
  };
  for (const char* key :
       {"cluster.run_s", "cluster.log_write_s", "cluster.log_read_s",
        "trace.build_profiles_s", "trace.db_save_s", "trace.db_load_s",
        "trace.make_workload_s", "mumak.run_s", "mumak.rumen_s",
        "core.solo_completions_s", "backend.adapt_s", "obs.record_overhead_s",
        "obs.serialize_s", "analysis.parse_s", "analysis.fold_s",
        "analysis.report_s", "analysis.availability_s"})
    put(key, med[key], "s");
  for (const char* key :
       {"cluster.events", "cluster.attempts", "cluster.log_bytes",
        "mumak.events", "core.ready_set_max", "simcore.queue_depth_max",
        "obs.records", "obs.bytes", "fault.actions", "fault.killed_attempts",
        "fault.reexecuted_tasks"})
    put(key, med[key], "count");
  put("cluster.ns_per_event", per_event("cluster.run_s", "cluster.events"),
      "ns/event");
  put("mumak.ns_per_event", per_event("mumak.run_s", "mumak.events"),
      "ns/event");
  put("cluster.useful_attempt_ratio", med["cluster.useful_attempt_ratio"],
      "ratio");
  put("core.useful_attempt_ratio", med["core.useful_attempt_ratio"], "ratio");
  put("obs.bytes_per_record",
      med["obs.records"] > 0.0 ? med["obs.bytes"] / med["obs.records"] : 0.0,
      "bytes/record");
  const double replays = std::max(1.0, med["simcore.replays"]);
  for (const char* key : {"simcore.heap_pushes", "simcore.heap_pops",
                          "simcore.allocations"})
    put(key, med[key] / replays, "count");
  for (const char* p : kPolicies) {
    const std::string c = std::string("core.") + p;
    const std::string s = std::string("sched.") + p;
    put(c + ".replay_s", med[c + ".replay_s"], "s");
    put(c + ".events", med[c + ".events"], "count");
    put(c + ".ns_per_event", per_event(c + ".replay_s", c + ".events"),
        "ns/event");
    const double calls = med[s + ".calls"];
    put(s + ".decide_s", med[s + ".decide_s"], "s");
    put(s + ".lifecycle_s", med[s + ".lifecycle_s"], "s");
    put(s + ".calls", calls, "count");
    put(s + ".found_ratio", calls > 0.0 ? med[s + ".found"] / calls : 0.0,
        "ratio");
    put(s + ".queue_len_mean",
        calls > 0.0 ? med[s + ".queue_len_sum"] / calls : 0.0, "jobs");
  }
  for (const char* layer : kLayers) {
    const std::string key = std::string(layer) + ".self_s";
    put(key, med[key], "s");
  }
  report.spans_jsonl = tracer_.ToJsonl();
  return report;
}

}  // namespace

RunReport RunWorkload(const RunOptions& options) {
  Bench bench(options);
  return bench.Run();
}

}  // namespace perfbench
