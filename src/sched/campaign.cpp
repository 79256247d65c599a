#include "agc/sched/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>

#include "agc/exec/executor.hpp"
#include "agc/exec/thread_pool.hpp"
#include "agc/obs/event_sink.hpp"

namespace agc::sched {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("campaign: " + what);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint64_t attempt_seed(std::uint64_t base, std::size_t attempt) noexcept {
  if (attempt <= 1) return base;
  // splitmix64 finalizer over (base, attempt) — a fresh but reproducible
  // stream per retry.
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * attempt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- Campaign building ------------------------------------------------------

std::size_t Campaign::add(JobSpec job) {
  jobs_.push_back(std::move(job));
  return jobs_.size() - 1;
}

void Campaign::add_grid(const std::vector<std::string>& algorithms,
                        const std::vector<graph::GraphSpec>& graphs,
                        const std::vector<std::uint64_t>& seeds,
                        const JobSpec& base) {
  for (const auto& algo : algorithms) {
    for (const auto& g : graphs) {
      for (const auto seed : seeds) {
        JobSpec job = base;
        job.algorithm = algo;
        job.graph = g;
        job.seed = seed;
        job.deps.clear();
        jobs_.push_back(std::move(job));
      }
    }
  }
}

void Campaign::depend(std::size_t job, std::size_t dep) {
  if (job >= jobs_.size() || dep >= jobs_.size()) bad("depend(): no such job");
  if (job == dep) bad("a job cannot depend on itself");
  jobs_[job].deps.push_back(dep);
}

// --- Job keys ---------------------------------------------------------------

namespace {

[[noreturn]] void invalid(const std::string& what) {
  throw std::invalid_argument(what);
}

enum class Kind : std::uint8_t { Int, Prob, Real, Text, Model, Target, Deps };

/// How each kind is spelled, in Kind order, as a bad value's error says it.
constexpr const char* kExpected[] = {
    "an unsigned integer that fits its field", "a probability in [0,1]",
    "a positive number", "a value without blanks", "local, congest or setlocal",
    "degree or recent", "a comma list of earlier job indexes"};

/// The job keys besides algo and graph, in format() order: each key's name,
/// the kind of value it takes and the JobSpec field it sets.  parse(),
/// format(), grid_keys() and set_job_key() all walk this one list.
template <class Job, class F>
void visit_keys(Job& job, F&& f) {
  auto& ch = job.faults.channel;
  auto& adv = job.faults.periodic;
  auto& zoo = job.faults.zoo;
  f("seed", Kind::Int, job.seed);
  f("tag", Kind::Text, job.tag);
  f("model", Kind::Model, job.opts.model);
  f("congest", Kind::Int, job.opts.congest_bits);
  f("max-rounds", Kind::Int, job.opts.max_rounds);
  f("idspace", Kind::Int, job.id_space_factor);
  f("deps", Kind::Deps, job.deps);
  f("chan-drop", Kind::Prob, ch.drop_per_million);
  f("chan-corrupt", Kind::Prob, ch.corrupt_per_million);
  f("chan-dup", Kind::Prob, ch.duplicate_per_million);
  f("chan-delay", Kind::Prob, ch.delay_per_million);
  f("chan-first", Kind::Int, ch.first_round);
  f("chan-last", Kind::Int, ch.last_round);
  f("adv-period", Kind::Int, adv.period);
  f("adv-last", Kind::Int, adv.last_round);
  f("adv-corrupt", Kind::Int, adv.corrupt);
  f("adv-range", Kind::Int, adv.value_range);
  f("adv-clones", Kind::Int, adv.clones);
  f("adv-eadds", Kind::Int, adv.edge_adds);
  f("adv-eremoves", Kind::Int, adv.edge_removes);
  f("adv-dmax", Kind::Int, adv.dmax);
  f("out-lo", Kind::Int, zoo.outage.lo);
  f("out-hi", Kind::Int, zoo.outage.hi);
  f("out-first", Kind::Int, zoo.outage.first_round);
  f("out-last", Kind::Int, zoo.outage.last_round);
  f("flap-down", Kind::Prob, zoo.flap.down_per_million);
  f("flap-up", Kind::Prob, zoo.flap.up_per_million);
  f("flap-first", Kind::Int, zoo.flap.first_round);
  f("flap-last", Kind::Int, zoo.flap.last_round);
  f("byz-liars", Kind::Prob, zoo.byz.liars_per_million);
  f("byz-rate", Kind::Prob, zoo.byz.lie_per_million);
  f("byz-first", Kind::Int, zoo.byz.first_round);
  f("byz-last", Kind::Int, zoo.byz.last_round);
  f("adapt-period", Kind::Int, zoo.adapt.period);
  f("adapt-count", Kind::Int, zoo.adapt.count);
  f("adapt-last", Kind::Int, zoo.adapt.last_round);
  f("adapt-target", Kind::Target, zoo.adapt.target);
  f("churn-events", Kind::Int, zoo.churn.events);
  f("churn-alpha", Kind::Real, zoo.churn.alpha);
  f("churn-attach", Kind::Int, zoo.churn.attach);
  f("churn-resets", Kind::Prob, zoo.churn.resets_per_million);
  f("churn-first", Kind::Int, zoo.churn.first_round);
  f("churn-last", Kind::Int, zoo.churn.last_round);
  f("churn-dmax", Kind::Int, zoo.churn.dmax);
  f("churn-grow", Kind::Int, zoo.churn.grow);
  f("plan", Kind::Text, job.faults.plan_path);
  f("plan-out", Kind::Text, job.faults.plan_out);
  f("budget", Kind::Int, job.faults.recovery_budget);
  f("confirm", Kind::Int, job.faults.confirm_rounds);
}

/// The spellings of a named kind, indexed by enum value.  BIT has none: no
/// campaign runner takes it.
std::span<const std::string_view> names(runtime::Model) {
  static constexpr std::string_view kNames[] = {"local", "congest", "", "setlocal"};
  return kNames;
}
std::span<const std::string_view> names(faultlab::AdaptiveConfig::Target) {
  static constexpr std::string_view kNames[] = {"degree", "recent"};
  return kNames;
}

/// Read `text` into `field` as a value of `kind`; false, leaving `field`
/// alone, when it is not one.
template <class T>
bool read(Kind kind, std::string_view text, T& field) {
  if constexpr (std::is_same_v<T, std::string>) {
    if (text.find_first_of(" \t\n\v\f\r") != std::string_view::npos) return false;
    field = text;
  } else if constexpr (std::is_same_v<T, double>) {
    const auto v = graph::parse_f64(text);
    if (!v || *v <= 0.0) return false;
    field = *v;
  } else if constexpr (std::is_enum_v<T>) {
    const auto known = names(field);
    const auto it = std::find(known.begin(), known.end(), text);
    if (text.empty() || it == known.end()) return false;
    field = static_cast<T>(it - known.begin());
  } else if constexpr (std::is_integral_v<T>) {
    const auto v = kind == Kind::Prob
                       ? std::optional<std::uint64_t>(faultlab::parse_per_million(text))
                       : graph::parse_u64(text);
    if (!v || *v > std::numeric_limits<T>::max()) return false;
    field = static_cast<T>(*v);
  } else {  // deps
    T deps;
    std::istringstream list{std::string(text)};
    for (std::string d; std::getline(list, d, ',');) {
      const auto v = graph::parse_u64(d);
      if (!v) return false;
      deps.push_back(*v);
    }
    if (!text.empty() && text.back() == ',') return false;
    field = std::move(deps);
  }
  return true;
}

template <class T>
std::string render(Kind kind, const T& field) {
  if constexpr (std::is_same_v<T, std::string>) {
    return field;
  } else if constexpr (std::is_same_v<T, double>) {
    return graph::format_f64(field);
  } else if constexpr (std::is_enum_v<T>) {
    return std::string(names(field)[static_cast<std::size_t>(field)]);
  } else if constexpr (std::is_integral_v<T>) {
    return kind == Kind::Prob ? graph::format_f64(field / 1'000'000.0)
                              : std::to_string(field);
  } else {  // deps
    std::string out;
    for (const std::size_t d : field) {
      out += (out.empty() ? "" : ",") + std::to_string(d);
    }
    return out;
  }
}

}  // namespace

std::span<const std::string_view> grid_keys() {
  static const std::vector<std::string_view> keys = [] {
    std::vector<std::string_view> out;
    JobSpec job;
    visit_keys(job, [&](std::string_view name, Kind kind, const auto& field) {
      const void* at = &field;
      if (at != &job.seed && at != &job.faults.plan_out && kind != Kind::Deps) {
        out.push_back(name);
      }
    });
    return out;
  }();
  return keys;
}

void set_job_key(JobSpec& job, std::string_view key, std::string_view value) {
  bool known = false;
  visit_keys(job, [&](std::string_view name, Kind kind, auto& field) {
    if (name != key) return;
    known = true;
    if (!read(kind, value, field)) {
      invalid(std::string(key) + " needs " + kExpected[static_cast<int>(kind)] +
              ", got '" + std::string(value) + "'");
    }
  });
  if (!known) invalid("unknown key '" + std::string(key) + "'");
}

// --- File format ------------------------------------------------------------

Campaign Campaign::parse(std::istream& in) {
  Campaign c;
  std::string line;
  for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
    try {
      std::istringstream toks(line);
      std::string tok;
      JobSpec job;
      bool blank = true;
      while (toks >> tok && tok[0] != '#') {
        blank = false;
        const auto eq = tok.find('=');
        if (eq == std::string::npos) invalid("expected key=value, got '" + tok + "'");
        const std::string key = tok.substr(0, eq), value = tok.substr(eq + 1);
        if (key == "algo") {
          job.algorithm = value;
        } else if (key == "graph") {
          job.graph = graph::GraphSpec::parse(value);
        } else {
          set_job_key(job, key, value);
        }
      }
      if (blank) continue;
      if (job.algorithm.empty() || job.graph.kind().empty()) {
        invalid("algo= and graph= are required");
      }
      for (const std::size_t dep : job.deps) {
        if (dep >= c.size()) invalid("deps may only reference earlier lines");
      }
      const Runner* runner = find_runner(job.algorithm);
      if (runner == nullptr) invalid("unknown algorithm '" + job.algorithm + "'");
      if (job.faults.any() && !runner->faults) {
        invalid("algorithm '" + job.algorithm + "' does not run fault specs");
      }
      c.jobs_.push_back(std::move(job));
    } catch (const std::invalid_argument& e) {
      bad("line " + std::to_string(lineno) + ": " + e.what());
    }
  }
  return c;
}

Campaign Campaign::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("campaign: cannot open " + path);
  return parse(in);
}

std::string Campaign::format() const {
  // A key is written when its value reads differently from a default job's.
  static const std::vector<std::string> defaults = [] {
    std::vector<std::string> out;
    const JobSpec job;
    visit_keys(job, [&](std::string_view, Kind kind, const auto& field) {
      out.push_back(render(kind, field));
    });
    return out;
  }();
  std::string out;
  for (const auto& job : jobs_) {
    out += "algo=" + job.algorithm;
    out += " graph=" + job.graph.to_string();
    std::size_t i = 0;
    visit_keys(job, [&](std::string_view name, Kind kind, const auto& field) {
      const std::string value = render(kind, field);
      if (value == defaults[i++]) return;
      out += ' ';
      out += name;
      out += '=';
      out += value;
    });
    out += '\n';
  }
  return out;
}

// --- JSONL rendering --------------------------------------------------------

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  obs::json_escape(s, out);
  out += '"';
}

/// Integral doubles render without a fraction so counts stay grep-able.
std::string fmt_value(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 9.0e15) {
    return std::to_string(static_cast<long long>(v));
  }
  return graph::format_f64(v);
}

}  // namespace

std::string CampaignReport::to_jsonl(bool include_timing) const {
  std::string out;
  std::uint64_t fault_total = 0;
  for (const auto& r : jobs) {
    fault_total += r.fault_events;
    out += "{\"job\":" + std::to_string(r.job);
    out += ",\"algorithm\":";
    append_json_string(out, r.algorithm);
    out += ",\"graph\":";
    append_json_string(out, r.graph);
    out += ",\"tag\":";
    append_json_string(out, r.tag);
    out += ",\"seed\":" + std::to_string(r.seed);
    out += std::string(",\"ok\":") + (r.ok ? "true" : "false");
    out += std::string(",\"converged\":") + (r.converged ? "true" : "false");
    out += ",\"rounds\":" + std::to_string(r.rounds);
    out += ",\"palette\":" + std::to_string(r.palette);
    out += ",\"messages\":" + std::to_string(r.metrics.messages);
    out += ",\"total_bits\":" + std::to_string(r.metrics.total_bits);
    out += ",\"max_edge_bits\":" + std::to_string(r.metrics.max_edge_bits);
    out += ",\"fault_events\":" + std::to_string(r.fault_events);
    out += ",\"attempts\":" + std::to_string(r.attempts);
    out += std::string(",\"cache_hit\":") + (r.cache_hit ? "true" : "false");
    out += std::string(",\"watchdog\":") + (r.watchdog ? "true" : "false");
    out += ",\"error\":";
    append_json_string(out, r.error);
    out += ",\"values\":{";
    for (std::size_t i = 0; i < r.values.size(); ++i) {
      if (i > 0) out += ',';
      append_json_string(out, r.values[i].first);
      out += ':' + fmt_value(r.values[i].second);
    }
    out += '}';
    if (include_timing) out += ",\"wall_ns\":" + std::to_string(r.wall_ns);
    out += "}\n";
  }
  out += "{\"campaign\":{\"jobs\":" + std::to_string(jobs.size());
  out += ",\"ok\":" + std::to_string(ok_count);
  out += ",\"rounds\":" + std::to_string(totals.rounds);
  out += ",\"messages\":" + std::to_string(totals.messages);
  out += ",\"total_bits\":" + std::to_string(totals.total_bits);
  out += ",\"max_edge_bits\":" + std::to_string(totals.max_edge_bits);
  out += ",\"fault_events\":" + std::to_string(fault_total);
  out += ",\"cache_hits\":" + std::to_string(cache_hits);
  out += ",\"cache_misses\":" + std::to_string(cache_misses);
  out += ",\"retries\":" + std::to_string(retries);
  if (include_timing) out += ",\"wall_ns\":" + std::to_string(wall_ns);
  out += "}}\n";
  return out;
}

// --- Execution --------------------------------------------------------------

namespace {

/// One distinct GraphSpec's shared immutable graph, built at most once by
/// whichever job needs it first (std::call_once handles racing workers; a
/// throwing build is retried by the next job, per call_once semantics).
/// Stored as the frozen CSR: runners read through GraphView, so the cache
/// never needs adjacency vectors, and the admission estimate in
/// GraphSpec::estimated_bytes models exactly this layout (docs/SCALE.md).
struct CacheEntry {
  std::once_flag once;
  graph::FrozenGraph g;
};

JobResult execute_job(std::size_t id, const JobSpec& spec,
                      graph::GraphView g, bool cache_hit,
                      const std::shared_ptr<runtime::RoundExecutor>& executor,
                      std::size_t max_attempts) {
  const Runner* runner = find_runner(spec.algorithm);
  JobResult r;
  const auto start = now_ns();
  for (std::size_t attempt = 1;; ++attempt) {
    RunnerContext ctx{g, spec, spec.opts, attempt};
    // The scheduler owns these hooks: within-run sharding comes from the
    // worker's executor, faults from spec.faults, aggregation from the fold.
    ctx.opts.executor = executor;
    ctx.opts.adversary = nullptr;
    ctx.opts.channel = nullptr;
    ctx.opts.sink = nullptr;
    try {
      r = runner->fn(ctx);
    } catch (const std::exception& e) {
      r = JobResult{};
      r.ok = false;
      r.error = e.what();
    }
    r.attempts = attempt;
    // Retry only what retrying can change: a watchdog violation under
    // re-rolled fault seeds.
    if (r.ok || !r.watchdog || attempt >= max_attempts) break;
  }
  r.job = id;
  r.algorithm = spec.algorithm;
  r.graph = spec.graph.to_string();
  r.tag = spec.tag;
  r.seed = spec.seed;
  r.cache_hit = cache_hit;
  r.wall_ns = now_ns() - start;
  return r;
}

}  // namespace

CampaignReport run_campaign(const Campaign& campaign,
                            const ScheduleOptions& sopts) {
  const auto wall_start = now_ns();
  const auto& jobs = campaign.jobs();
  const std::size_t n = jobs.size();

  // Validate up front so nothing runs on a malformed campaign.
  std::vector<std::size_t> indegree(n, 0);
  std::vector<std::vector<std::size_t>> dependents(n);
  for (std::size_t j = 0; j < n; ++j) {
    const Runner* runner = find_runner(jobs[j].algorithm);
    if (runner == nullptr) bad("unknown algorithm '" + jobs[j].algorithm + "'");
    if (jobs[j].faults.any() && !runner->faults) {
      bad("algorithm '" + jobs[j].algorithm + "' does not run fault specs");
    }
    for (const auto dep : jobs[j].deps) {
      if (dep >= n) bad("job " + std::to_string(j) + " depends on missing job");
      if (dep == j) bad("job " + std::to_string(j) + " depends on itself");
      ++indegree[j];
      dependents[dep].push_back(j);
    }
  }
  {
    auto indeg = indegree;
    std::vector<std::size_t> queue;
    for (std::size_t j = 0; j < n; ++j) {
      if (indeg[j] == 0) queue.push_back(j);
    }
    std::size_t seen = 0;
    while (seen < queue.size()) {
      const auto j = queue[seen++];
      for (const auto d : dependents[j]) {
        if (--indeg[d] == 0) queue.push_back(d);
      }
    }
    if (seen != n) bad("dependency cycle");
  }

  // The graph cache: one entry per distinct content hash, plus deterministic
  // hit accounting — a job is a hit iff an earlier job wants the same graph,
  // independent of which worker actually built it.
  std::unordered_map<std::uint64_t, CacheEntry> cache;
  std::unordered_map<std::uint64_t, std::size_t> first_with;
  std::vector<std::size_t> bytes(n, 0);
  for (std::size_t j = 0; j < n; ++j) {
    const auto h = jobs[j].graph.content_hash();
    cache.try_emplace(h);
    first_with.try_emplace(h, j);
    bytes[j] = jobs[j].graph.estimated_bytes();
  }

  CampaignReport report;
  report.jobs.resize(n);
  report.cache_misses = cache.size();
  report.cache_hits = n - cache.size();

  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    std::set<std::size_t> ready;
    std::size_t started = 0;
    std::size_t bytes_in_flight = 0;
    std::size_t peak_bytes = 0;
  } shared;
  for (std::size_t j = 0; j < n; ++j) {
    if (indegree[j] == 0) shared.ready.insert(j);
  }

  const std::size_t budget = sopts.memory_budget_bytes;
  auto worker_body = [&](std::size_t /*worker*/) {
    // Level 2 of the scheduler: each worker owns one sharded executor and
    // reuses it across every job it steals.
    const auto executor = exec::make_executor(
        sopts.threads_per_job == 0 ? 1 : sopts.threads_per_job);
    std::unique_lock<std::mutex> lock(shared.mu);
    while (true) {
      // Lowest eligible job id first: admission is by id, so the serial
      // order is also the 1-worker order.
      auto eligible = shared.ready.end();
      for (auto it = shared.ready.begin(); it != shared.ready.end(); ++it) {
        if (budget == 0 || shared.bytes_in_flight == 0 ||
            shared.bytes_in_flight + bytes[*it] <= budget) {
          eligible = it;
          break;
        }
      }
      if (eligible == shared.ready.end()) {
        if (shared.started == n) return;  // nothing left for this worker
        shared.cv.wait(lock);
        continue;
      }
      const std::size_t j = *eligible;
      shared.ready.erase(eligible);
      ++shared.started;
      shared.bytes_in_flight += bytes[j];
      shared.peak_bytes = std::max(shared.peak_bytes, shared.bytes_in_flight);
      lock.unlock();

      auto& entry = cache.at(jobs[j].graph.content_hash());
      JobResult result;
      try {
        std::call_once(entry.once, [&] { entry.g = jobs[j].graph.build_frozen(); });
        result = execute_job(j, jobs[j], entry.g,
                             first_with.at(jobs[j].graph.content_hash()) != j,
                             executor, std::max<std::size_t>(1, sopts.max_attempts));
      } catch (const std::exception& e) {
        result.job = j;
        result.algorithm = jobs[j].algorithm;
        result.graph = jobs[j].graph.to_string();
        result.tag = jobs[j].tag;
        result.seed = jobs[j].seed;
        result.error = e.what();
      }

      lock.lock();
      report.jobs[j] = std::move(result);
      shared.bytes_in_flight -= bytes[j];
      for (const auto d : dependents[j]) {
        if (--indegree[d] == 0) shared.ready.insert(d);
      }
      shared.cv.notify_all();
    }
  };

  const std::size_t workers =
      std::max<std::size_t>(1, std::min(sopts.threads, std::max<std::size_t>(n, 1)));
  if (workers <= 1) {
    worker_body(0);
  } else {
    exec::ThreadPool pool(workers);
    pool.run(workers, worker_body);
  }

  // Deterministic fold: job-id order, whatever order the jobs finished in.
  for (const auto& r : report.jobs) {
    if (r.ok) ++report.ok_count;
    report.retries += r.attempts - 1;
    report.totals.merge(r.metrics);
  }
  report.peak_bytes_in_flight = shared.peak_bytes;
  report.wall_ns = now_ns() - wall_start;

  if (sopts.sink != nullptr) {
    sopts.sink->emit(obs::Event{obs::EventKind::RunStart, 0, "campaign", n, 0});
    for (const auto& r : report.jobs) {
      // The runner's static name keeps the Event::label lifetime contract.
      const Runner* runner = find_runner(r.algorithm);
      sopts.sink->emit(obs::Event{
          obs::EventKind::StageEnd, r.rounds,
          runner != nullptr ? runner->name : "job", r.job,
          sopts.include_timing ? r.wall_ns : 0});
    }
    sopts.sink->emit(obs::Event{obs::EventKind::RunEnd, report.totals.rounds,
                                "campaign", report.ok_count,
                                sopts.include_timing ? report.wall_ns : 0});
  }
  return report;
}

}  // namespace agc::sched
