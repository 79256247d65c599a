#include "agc/sched/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "agc/exec/executor.hpp"
#include "agc/exec/thread_pool.hpp"
#include "agc/obs/event_sink.hpp"

namespace agc::sched {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("campaign: " + what);
}

std::uint64_t parse_u64(const std::string& key, const std::string& text) {
  const auto v = graph::parse_u64(text);
  if (!v) bad("bad integer for " + key);
  return *v;
}

std::uint32_t parse_ppm(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double p = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
    bad(key + " must be a probability in [0,1]");
  }
  return static_cast<std::uint32_t>(p * 1'000'000.0);
}

double parse_double(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || v <= 0.0) {
    bad(key + " must be a positive number");
  }
  return v;
}

/// Shortest %.*g spelling that round-trips (same scheme as GraphSpec).
std::string fmt_double(double v) {
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

const char* model_name(runtime::Model m) {
  switch (m) {
    case runtime::Model::LOCAL: return "local";
    case runtime::Model::CONGEST: return "congest";
    default: return "setlocal";
  }
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

// --- File format ------------------------------------------------------------

Campaign Campaign::parse(std::istream& in) {
  Campaign c;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream toks(line);
    std::string tok;
    JobSpec job;
    bool saw_algo = false, saw_graph = false, comment = false;
    while (toks >> tok && !comment) {
      if (tok[0] == '#') {
        comment = true;
        break;
      }
      const auto eq = tok.find('=');
      if (eq == std::string::npos) {
        bad("line " + std::to_string(lineno) + ": expected key=value, got '" +
            tok + "'");
      }
      const std::string key = tok.substr(0, eq);
      const std::string val = tok.substr(eq + 1);
      if (key == "algo") {
        job.algorithm = val;
        saw_algo = true;
      } else if (key == "graph") {
        job.graph = graph::GraphSpec::parse(val);
        saw_graph = true;
      } else if (key == "seed") {
        job.seed = parse_u64(key, val);
      } else if (key == "tag") {
        job.tag = val;
      } else if (key == "model") {
        if (val == "local") {
          job.opts.model = runtime::Model::LOCAL;
        } else if (val == "congest") {
          job.opts.model = runtime::Model::CONGEST;
        } else if (val == "setlocal") {
          job.opts.model = runtime::Model::SET_LOCAL;
        } else {
          bad("unknown model '" + val + "'");
        }
      } else if (key == "congest") {
        job.opts.congest_bits = static_cast<std::uint32_t>(parse_u64(key, val));
      } else if (key == "max-rounds") {
        job.opts.max_rounds = parse_u64(key, val);
      } else if (key == "idspace") {
        job.id_space_factor = parse_u64(key, val);
      } else if (key == "deps") {
        std::istringstream ds(val);
        std::string d;
        while (std::getline(ds, d, ',')) {
          const auto dep = parse_u64(key, d);
          if (dep >= c.size()) {
            bad("line " + std::to_string(lineno) +
                ": deps may only reference earlier lines");
          }
          job.deps.push_back(dep);
        }
      } else if (key == "chan-drop") {
        job.faults.channel.drop_per_million = parse_ppm(key, val);
      } else if (key == "chan-corrupt") {
        job.faults.channel.corrupt_per_million = parse_ppm(key, val);
      } else if (key == "chan-dup") {
        job.faults.channel.duplicate_per_million = parse_ppm(key, val);
      } else if (key == "chan-delay") {
        job.faults.channel.delay_per_million = parse_ppm(key, val);
      } else if (key == "chan-first") {
        job.faults.channel.first_round = parse_u64(key, val);
      } else if (key == "chan-last") {
        job.faults.channel.last_round = parse_u64(key, val);
      } else if (key == "adv-period") {
        job.faults.periodic.period = parse_u64(key, val);
      } else if (key == "adv-last") {
        job.faults.periodic.last_round = parse_u64(key, val);
      } else if (key == "adv-corrupt") {
        job.faults.periodic.corrupt = parse_u64(key, val);
      } else if (key == "adv-range") {
        job.faults.periodic.value_range = parse_u64(key, val);
      } else if (key == "adv-clones") {
        job.faults.periodic.clones = parse_u64(key, val);
      } else if (key == "adv-eadds") {
        job.faults.periodic.edge_adds = parse_u64(key, val);
      } else if (key == "adv-eremoves") {
        job.faults.periodic.edge_removes = parse_u64(key, val);
      } else if (key == "adv-dmax") {
        job.faults.periodic.dmax = parse_u64(key, val);
      } else if (key == "out-lo") {
        job.faults.zoo.outage.lo = static_cast<graph::Vertex>(parse_u64(key, val));
      } else if (key == "out-hi") {
        job.faults.zoo.outage.hi = static_cast<graph::Vertex>(parse_u64(key, val));
      } else if (key == "out-first") {
        job.faults.zoo.outage.first_round = parse_u64(key, val);
      } else if (key == "out-last") {
        job.faults.zoo.outage.last_round = parse_u64(key, val);
      } else if (key == "flap-down") {
        job.faults.zoo.flap.down_per_million = parse_ppm(key, val);
      } else if (key == "flap-up") {
        job.faults.zoo.flap.up_per_million = parse_ppm(key, val);
      } else if (key == "flap-first") {
        job.faults.zoo.flap.first_round = parse_u64(key, val);
      } else if (key == "flap-last") {
        job.faults.zoo.flap.last_round = parse_u64(key, val);
      } else if (key == "byz-liars") {
        job.faults.zoo.byz.liars_per_million = parse_ppm(key, val);
      } else if (key == "byz-rate") {
        job.faults.zoo.byz.lie_per_million = parse_ppm(key, val);
      } else if (key == "byz-first") {
        job.faults.zoo.byz.first_round = parse_u64(key, val);
      } else if (key == "byz-last") {
        job.faults.zoo.byz.last_round = parse_u64(key, val);
      } else if (key == "adapt-period") {
        job.faults.zoo.adapt.period = parse_u64(key, val);
      } else if (key == "adapt-count") {
        job.faults.zoo.adapt.count = parse_u64(key, val);
      } else if (key == "adapt-last") {
        job.faults.zoo.adapt.last_round = parse_u64(key, val);
      } else if (key == "adapt-target") {
        if (val == "degree") {
          job.faults.zoo.adapt.target =
              faultlab::AdaptiveConfig::Target::HighestDegree;
        } else if (val == "recent") {
          job.faults.zoo.adapt.target =
              faultlab::AdaptiveConfig::Target::RecentlyRecolored;
        } else {
          bad("adapt-target must be 'degree' or 'recent'");
        }
      } else if (key == "churn-events") {
        job.faults.zoo.churn.events = parse_u64(key, val);
      } else if (key == "churn-alpha") {
        job.faults.zoo.churn.alpha = parse_double(key, val);
      } else if (key == "churn-attach") {
        job.faults.zoo.churn.attach = parse_u64(key, val);
      } else if (key == "churn-resets") {
        job.faults.zoo.churn.resets_per_million = parse_ppm(key, val);
      } else if (key == "churn-first") {
        job.faults.zoo.churn.first_round = parse_u64(key, val);
      } else if (key == "churn-last") {
        job.faults.zoo.churn.last_round = parse_u64(key, val);
      } else if (key == "churn-dmax") {
        job.faults.zoo.churn.dmax = parse_u64(key, val);
      } else if (key == "churn-grow") {
        job.faults.zoo.churn.grow = parse_u64(key, val);
      } else if (key == "plan") {
        job.faults.plan_path = val;
      } else if (key == "plan-out") {
        job.faults.plan_out = val;
      } else if (key == "budget") {
        job.faults.recovery_budget = parse_u64(key, val);
      } else if (key == "confirm") {
        job.faults.confirm_rounds = parse_u64(key, val);
      } else {
        bad("line " + std::to_string(lineno) + ": unknown key '" + key + "'");
      }
    }
    if (!saw_algo && !saw_graph) continue;  // blank / comment-only line
    if (!saw_algo || !saw_graph) {
      bad("line " + std::to_string(lineno) + ": algo= and graph= are required");
    }
    const Runner* runner = find_runner(job.algorithm);
    if (runner == nullptr) bad("unknown algorithm '" + job.algorithm + "'");
    if (job.faults.any() && !runner->faults) {
      bad("algorithm '" + job.algorithm + "' does not run fault specs");
    }
    c.jobs_.push_back(std::move(job));
  }
  return c;
}

Campaign Campaign::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("campaign: cannot open " + path);
  return parse(in);
}

std::string Campaign::format() const {
  const JobSpec dflt;
  std::string out;
  for (const auto& job : jobs_) {
    out += "algo=" + job.algorithm;
    out += " graph=" + job.graph.to_string();
    auto u64 = [&](const char* key, std::uint64_t v, std::uint64_t d) {
      if (v != d) out += std::string(" ") + key + "=" + std::to_string(v);
    };
    auto prob = [&](const char* key, std::uint32_t ppm) {
      if (ppm != 0) {
        out += std::string(" ") + key + "=" + fmt_double(ppm / 1'000'000.0);
      }
    };
    u64("seed", job.seed, dflt.seed);
    if (!job.tag.empty()) out += " tag=" + job.tag;
    if (job.opts.model != dflt.opts.model) {
      out += std::string(" model=") + model_name(job.opts.model);
    }
    u64("congest", job.opts.congest_bits, dflt.opts.congest_bits);
    u64("max-rounds", job.opts.max_rounds, dflt.opts.max_rounds);
    u64("idspace", job.id_space_factor, dflt.id_space_factor);
    if (!job.deps.empty()) {
      out += " deps=";
      for (std::size_t i = 0; i < job.deps.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(job.deps[i]);
      }
    }
    prob("chan-drop", job.faults.channel.drop_per_million);
    prob("chan-corrupt", job.faults.channel.corrupt_per_million);
    prob("chan-dup", job.faults.channel.duplicate_per_million);
    prob("chan-delay", job.faults.channel.delay_per_million);
    u64("chan-first", job.faults.channel.first_round, dflt.faults.channel.first_round);
    u64("chan-last", job.faults.channel.last_round, dflt.faults.channel.last_round);
    u64("adv-period", job.faults.periodic.period, dflt.faults.periodic.period);
    u64("adv-last", job.faults.periodic.last_round, dflt.faults.periodic.last_round);
    u64("adv-corrupt", job.faults.periodic.corrupt, 0);
    u64("adv-range", job.faults.periodic.value_range, 0);
    u64("adv-clones", job.faults.periodic.clones, 0);
    u64("adv-eadds", job.faults.periodic.edge_adds, 0);
    u64("adv-eremoves", job.faults.periodic.edge_removes, 0);
    u64("adv-dmax", job.faults.periodic.dmax, 0);
    // Zoo families render only when they differ from the all-disabled
    // default, keeping clean-wire lines byte-stable.
    auto prob_dflt = [&](const char* key, std::uint32_t ppm, std::uint32_t d) {
      if (ppm != d) {
        out += std::string(" ") + key + "=" + fmt_double(ppm / 1'000'000.0);
      }
    };
    const faultlab::ZooSpec zdflt;
    const faultlab::ZooSpec& zoo = job.faults.zoo;
    u64("out-lo", zoo.outage.lo, zdflt.outage.lo);
    u64("out-hi", zoo.outage.hi, zdflt.outage.hi);
    u64("out-first", zoo.outage.first_round, zdflt.outage.first_round);
    u64("out-last", zoo.outage.last_round, zdflt.outage.last_round);
    prob_dflt("flap-down", zoo.flap.down_per_million, zdflt.flap.down_per_million);
    prob_dflt("flap-up", zoo.flap.up_per_million, zdflt.flap.up_per_million);
    u64("flap-first", zoo.flap.first_round, zdflt.flap.first_round);
    u64("flap-last", zoo.flap.last_round, zdflt.flap.last_round);
    prob_dflt("byz-liars", zoo.byz.liars_per_million, zdflt.byz.liars_per_million);
    prob_dflt("byz-rate", zoo.byz.lie_per_million, zdflt.byz.lie_per_million);
    u64("byz-first", zoo.byz.first_round, zdflt.byz.first_round);
    u64("byz-last", zoo.byz.last_round, zdflt.byz.last_round);
    u64("adapt-period", zoo.adapt.period, zdflt.adapt.period);
    u64("adapt-count", zoo.adapt.count, zdflt.adapt.count);
    u64("adapt-last", zoo.adapt.last_round, zdflt.adapt.last_round);
    if (zoo.adapt.target != zdflt.adapt.target) out += " adapt-target=recent";
    u64("churn-events", zoo.churn.events, zdflt.churn.events);
    if (zoo.churn.alpha != zdflt.churn.alpha) {
      out += " churn-alpha=" + fmt_double(zoo.churn.alpha);
    }
    u64("churn-attach", zoo.churn.attach, zdflt.churn.attach);
    prob_dflt("churn-resets", zoo.churn.resets_per_million,
              zdflt.churn.resets_per_million);
    u64("churn-first", zoo.churn.first_round, zdflt.churn.first_round);
    u64("churn-last", zoo.churn.last_round, zdflt.churn.last_round);
    u64("churn-dmax", zoo.churn.dmax, zdflt.churn.dmax);
    u64("churn-grow", zoo.churn.grow, zdflt.churn.grow);
    if (!job.faults.plan_path.empty()) out += " plan=" + job.faults.plan_path;
    if (!job.faults.plan_out.empty()) out += " plan-out=" + job.faults.plan_out;
    u64("budget", job.faults.recovery_budget, dflt.faults.recovery_budget);
    u64("confirm", job.faults.confirm_rounds, dflt.faults.confirm_rounds);
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
  return fmt_double(v);
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
