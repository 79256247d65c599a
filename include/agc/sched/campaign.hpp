#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "agc/faultlab/channel.hpp"
#include "agc/faultlab/zoo.hpp"
#include "agc/graph/spec.hpp"
#include "agc/runtime/faults.hpp"
#include "agc/runtime/run_options.hpp"
#include "agc/runtime/run_report.hpp"
#include "agc/selfstab/stabilization.hpp"

/// \file campaign.hpp
/// The campaign scheduler: batched multi-run execution of simulation fleets.
///
/// A Campaign is a declarative list of jobs — (algorithm, GraphSpec, seed,
/// RunOptions overrides, optional fault plan) — with optional dependencies
/// between them.  run_campaign() executes the list on a two-level scheduler:
/// worker threads steal whole jobs from a shared ready set (lowest eligible
/// job id first) while each job's round engine runs on its worker's own
/// sharded executor (`threads_per_job`).  Identical GraphSpecs are built
/// once and shared immutably across jobs (the Engine copies its graph), and
/// a memory budget gates admission so a fleet of large graphs cannot pile
/// into RAM at once.
///
/// Determinism contract (docs/SCHED.md): every job's outcome is a pure
/// function of its JobSpec — never of scheduling — and the CampaignReport is
/// folded in job-id order after all jobs complete.  The default JSONL
/// rendering excludes wall-clock fields, so a campaign's aggregate output is
/// bit-identical for 1, 2 or 8 workers and any completion order; pass
/// include_timing to trade that for wall times.
///
/// Fault integration: a JobSpec may carry a declarative FaultSpec (seeded
/// channel + periodic RAM/topology adversary, or a recorded plan to replay).
/// Such jobs run under the faultlab stabilization harness; when the watchdog
/// reports a violation the scheduler retries the job up to `max_attempts`
/// times with a per-attempt derived seed — the nightly fuzz campaigns are
/// exactly this loop.

namespace agc::obs {
class EventSink;
}  // namespace agc::obs

namespace agc::faultlab {
struct FaultPlan;
}  // namespace agc::faultlab

namespace agc::sched {

/// Declarative fault configuration for one job.  Value-type (unlike the live
/// hook pointers in RunOptions) so a job can be re-run for retries and
/// replayed anywhere.  Seeds are rotated per attempt via attempt_seed().
struct FaultSpec {
  /// Wire faults (faultlab::ChannelAdversary); all-zero rates = clean wire.
  /// The seed field is ignored: both fault streams derive from the job seed
  /// (see attempt_seed), so sweeping JobSpec::seed re-rolls the faults.
  faultlab::ChannelFaultConfig channel;
  /// RAM/topology faults (runtime::PeriodicAdversary); default Schedule with
  /// no primitives configured = no adversary.
  runtime::PeriodicAdversary::Schedule periodic;
  /// Production-shaped adversaries (faultlab::zoo): regional outages,
  /// flapping links, Byzantine neighbors, adaptive targeting, churn traces.
  /// All-disabled by default; stream seeds derive from the job seed.
  faultlab::ZooSpec zoo;
  /// Replay a recorded fault plan instead of injecting fresh faults; the
  /// channel/periodic arms are ignored when set.
  std::string plan_path;
  /// Record the injected faults and, when the job's final attempt still
  /// fails, save the plan here, unshrunk — the artifact the nightly fuzz
  /// campaign uploads; it replays as this job (run_stabilization_job).
  std::string plan_out;
  /// Stabilization-harness knobs (see faultlab::StabilizationSpec).
  std::size_t recovery_budget = 100'000;
  std::size_t confirm_rounds = 8;

  [[nodiscard]] bool any() const noexcept {
    return !plan_path.empty() || channel.total_per_million() > 0 ||
           periodic.corrupt + periodic.clones + periodic.edge_adds +
                   periodic.edge_removes >
               0 ||
           zoo.any();
  }
};

/// One cell of a campaign grid.  The scheduler owns the executor and the
/// fault/sink hook pointers: whatever `opts` carries in those fields is
/// replaced (executor) or ignored (adversary/channel/sink — use `faults`).
struct JobSpec {
  std::string algorithm;       ///< registry name; see runners()
  graph::GraphSpec graph;      ///< also the cache key (content_hash)
  std::uint64_t seed = 1;      ///< fault-seed base, rotated per retry attempt
  std::string tag;             ///< freeform label copied into the result row
  runtime::RunOptions opts;    ///< model / congest_bits / max_rounds overrides
  std::uint64_t id_space_factor = 1;
  FaultSpec faults;
  std::vector<std::size_t> deps;  ///< job ids that must complete first
};

/// Per-job outcome: the unified RunReport core plus campaign bookkeeping.
/// Everything except `wall_ns` (inherited) is a deterministic function of
/// the JobSpec.
struct JobResult : runtime::RunReport {
  std::size_t job = 0;
  std::string algorithm;
  std::string graph;  ///< canonical GraphSpec spelling
  std::string tag;
  std::uint64_t seed = 1;
  bool ok = false;           ///< the runner's success predicate
  std::size_t palette = 0;   ///< colors used (0 where meaningless)
  /// Runner-specific extras in a fixed, runner-declared order
  /// (e.g. recovery_rounds, adjusted, mis_size).
  std::vector<std::pair<std::string, double>> values;
  std::string error;         ///< exception / watchdog violation text
  bool watchdog = false;     ///< true when `error` is a watchdog violation
  bool cache_hit = false;    ///< graph shared from an earlier job
  std::size_t attempts = 1;  ///< 1 + retries taken
};

/// The declarative job list.  Plain text file format (one job per line,
/// whitespace-separated key=value tokens, `#` comments):
///
///   algo=ag graph=regular:n=1500,d=8,seed=1242 seed=1 tag=d8
///
/// `algo` and `graph` are required.  Every other key is one entry of the
/// key table in src/sched/campaign.cpp (its name, its value kind and the
/// JobSpec field it sets); docs/SCHED.md lists them.  Integers must fit their
/// field, probabilities are finite decimals in [0,1] stored to the nearest
/// per-million, and deps is a comma list of earlier 0-based job indexes.
class Campaign {
 public:
  /// Append one job; returns its id (= index, = execution priority).
  std::size_t add(JobSpec job);

  /// Expand the cross product algorithms x graphs x seeds, cloning
  /// `base` (its algorithm/graph/seed fields are overwritten) — jobs are
  /// appended in axis order: algorithm-major, then graph, then seed.
  void add_grid(const std::vector<std::string>& algorithms,
                const std::vector<graph::GraphSpec>& graphs,
                const std::vector<std::uint64_t>& seeds,
                const JobSpec& base = {});

  /// `job` will not start before `dep` completed.  Both must already exist.
  void depend(std::size_t job, std::size_t dep);

  [[nodiscard]] std::size_t size() const noexcept { return jobs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return jobs_.empty(); }
  [[nodiscard]] const JobSpec& job(std::size_t id) const { return jobs_.at(id); }
  [[nodiscard]] const std::vector<JobSpec>& jobs() const noexcept { return jobs_; }

  /// Parse the file format above; throws std::invalid_argument, naming the
  /// line, on an unknown key or algorithm, a bad value, graph spec or dep.
  [[nodiscard]] static Campaign parse(std::istream& in);
  [[nodiscard]] static Campaign parse_file(const std::string& path);  ///< throws

  /// Render back to the file format: a key is written when its value reads
  /// differently from a default JobSpec's.  parse() reads every job back.
  [[nodiscard]] std::string format() const;

 private:
  std::vector<JobSpec> jobs_;
};

/// The keys `agccli campaign grid` takes as `--key VALUE` flags: every table
/// key but seed (the --seeds axis), plan-out (from --plan-out-dir) and deps
/// (a job index means nothing across a grid).
[[nodiscard]] std::span<const std::string_view> grid_keys();

/// Set one table key of `job` from its file spelling, read as Campaign::parse
/// reads it.  Throws std::invalid_argument naming the key on an unknown key
/// or a bad value.
void set_job_key(JobSpec& job, std::string_view key, std::string_view value);

struct ScheduleOptions {
  /// Across-job worker threads (level 1 of the scheduler).  1 = run inline.
  std::size_t threads = 1;
  /// Executor threads per job (level 2, within-run sharding).  1 = sequential
  /// round engine; results are bit-identical either way (docs/EXEC.md).
  std::size_t threads_per_job = 1;
  /// Backpressure: a job is admitted only while the estimated_bytes() of
  /// running jobs stays within this budget (a lone job always admits, so a
  /// tiny budget degrades to serial execution instead of deadlocking).
  /// 0 = unlimited.
  std::size_t memory_budget_bytes = 0;
  /// Retry budget per job for watchdog violations (fault jobs only); each
  /// attempt re-derives its fault seeds via attempt_seed().
  std::size_t max_attempts = 1;
  /// Campaign-level sink: receives RunStart, one StageEnd per job (in job-id
  /// order, emitted at fold time on the driving thread), and RunEnd.
  obs::EventSink* sink = nullptr;
  /// Include wall-clock fields in to_jsonl()/sink events.  Off by default —
  /// timing is the one thing scheduling may change.
  bool include_timing = false;
};

/// The folded campaign outcome.  `jobs` is in job-id order regardless of
/// completion order; every field except wall_ns/peak_bytes_in_flight is
/// deterministic (thread-count- and scheduling-independent).
struct CampaignReport {
  std::vector<JobResult> jobs;
  std::size_t ok_count = 0;
  std::size_t cache_hits = 0;    ///< jobs served a previously-built graph
  std::size_t cache_misses = 0;  ///< distinct GraphSpecs built
  std::size_t retries = 0;       ///< sum of (attempts - 1)
  runtime::Metrics totals;       ///< job-id-order fold of per-job metrics
  std::uint64_t wall_ns = 0;               ///< timing: excluded from JSONL
  std::size_t peak_bytes_in_flight = 0;    ///< scheduling: excluded from JSONL

  [[nodiscard]] bool all_ok() const noexcept { return ok_count == jobs.size(); }

  /// One JSON object per job (job-id order) plus a trailing aggregate line.
  /// Bit-identical across thread counts unless include_timing is set.
  [[nodiscard]] std::string to_jsonl(bool include_timing = false) const;
};

/// Execute the campaign.  Throws std::invalid_argument on unknown algorithm
/// names or dependency cycles (validated before any job starts); per-job
/// runtime failures land in JobResult::error instead of propagating.
[[nodiscard]] CampaignReport run_campaign(const Campaign& campaign,
                                          const ScheduleOptions& opts = {});

// --- Algorithm registry (src/sched/registry.cpp) ---------------------------

/// What a registry runner sees: the cached graph, the job's spec, and the
/// RunOptions to thread through (executor preset by the scheduler; the fault
/// hooks are wired by the runner from spec.faults using attempt_seed()).
struct RunnerContext {
  graph::GraphView g;
  const JobSpec& spec;
  runtime::RunOptions opts;
  std::size_t attempt = 1;  ///< 1-based retry attempt
};

/// Runners fill ok/palette/values and the RunReport core; the scheduler owns
/// job/graph/tag/cache_hit/attempts.
using RunnerFn = JobResult (*)(const RunnerContext&);

struct Runner {
  const char* name;     ///< registry key; static lifetime (used as event label)
  const char* summary;  ///< one line for `campaign ls`
  RunnerFn fn;
  /// Whether this runner executes FaultSpecs (the ss-* stabilization
  /// runners).  Campaigns reject fault jobs on other runners up front.
  bool faults = false;
};

/// All built-in runners: gps, kw, ag, exact, odelta, mis, matching,
/// ss-color, ss-color-exact.
[[nodiscard]] std::span<const Runner> runners();

/// Lookup by name; null when unknown.
[[nodiscard]] const Runner* find_runner(std::string_view name);

/// What run_stabilization_job ran: the ss runner's result row and the
/// harness outcome behind it (default for a fault-free job).
struct StabilizationRun {
  JobResult result;
  selfstab::StabilizationOutcome outcome;
};

/// The one fault run: the ss-* job `ctx.spec` (the task follows from its
/// algorithm name; anything else throws std::invalid_argument).  Sizes the
/// engine from the job's keys — degree bound from adv-dmax when the periodic
/// adversary clones or adds edges, vertex and ID bounds from churn growth —
/// installs the task's program and legality check, and runs
/// faultlab::run_stabilization under either the job's own fault hooks
/// (channel, periodic and zoo keys, seeded from attempt_seed()) or, when
/// `replay` is set, that plan's events.  `recorder` receives every fault the
/// job's hooks inject (it is unused under `replay`).  A job with no fault key
/// and no `replay` runs fault-free to its first stable round.  The ss runners,
/// `agccli selfstab` and `agc-faultplan shrink` all run through here, so a
/// plan replays as the job that recorded it whenever the runner and keys
/// match.  The `plan` and `plan-out` keys are the runner's business, not this
/// function's.
[[nodiscard]] StabilizationRun run_stabilization_job(
    const RunnerContext& ctx, const faultlab::FaultPlan* replay = nullptr,
    runtime::FaultEventSink* recorder = nullptr);

/// Deterministic per-attempt fault seed: attempt 1 returns `base` unchanged;
/// later attempts mix the attempt index in (splitmix64 finalizer), so a
/// retried job faces fresh-but-reproducible faults.  The ss runners use
/// attempt_seed(spec.seed, attempt) for the RAM/topology stream and
/// attempt_seed(spec.seed ^ kChannelStream, attempt) for the wire stream.
[[nodiscard]] std::uint64_t attempt_seed(std::uint64_t base,
                                         std::size_t attempt) noexcept;

}  // namespace agc::sched
