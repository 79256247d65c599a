// The campaign scheduler (src/sched): GraphSpec canonicalization and content
// hashing, campaign parse/format round-trips, two-level scheduling with the
// graph cache and memory backpressure, watchdog retries, and the determinism
// contract — aggregate JSONL bit-identical across 1/2/8 workers — and the
// one fault path, whose recorded plans replay event for event (this binary
// also runs under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "agc/exec/executor.hpp"
#include "agc/faultlab/plan.hpp"
#include "agc/graph/checks.hpp"
#include "agc/graph/generators.hpp"
#include "agc/graph/spec.hpp"
#include "agc/obs/event_sink.hpp"
#include "agc/sched/campaign.hpp"

namespace {

using namespace agc;
using graph::GraphSpec;
using sched::Campaign;
using sched::CampaignReport;
using sched::JobSpec;
using sched::ScheduleOptions;

// ---------------------------------------------------------------------------
// GraphSpec
// ---------------------------------------------------------------------------

TEST(GraphSpec, CanonicalizesPositionalAndNamedForms) {
  const auto positional = GraphSpec::parse("regular:1500,8,1242");
  const auto named = GraphSpec::parse("regular:seed=1242,n=1500,d=8");
  EXPECT_EQ(positional.to_string(), "regular:n=1500,d=8,seed=1242");
  EXPECT_EQ(positional.to_string(), named.to_string());
  EXPECT_EQ(positional.content_hash(), named.content_hash());
  EXPECT_TRUE(positional == named);
}

TEST(GraphSpec, RoundTripsThroughToString) {
  for (const char* s :
       {"gnp:n=1000,p=0.01,seed=7", "cycle:n=64", "grid:rows=8,cols=10",
        "geometric:n=200,radius=0.125,seed=3", "hypercube:d=5",
        "bounded:n=600,dmax=10,m=2200,seed=42"}) {
    const auto spec = GraphSpec::parse(s);
    EXPECT_EQ(spec.to_string(), s);
    const auto reparsed = GraphSpec::parse(spec.to_string());
    EXPECT_EQ(reparsed.content_hash(), spec.content_hash());
  }
}

TEST(GraphSpec, BuildMatchesDirectGenerators) {
  const auto g1 = GraphSpec::parse("regular:n=300,d=6,seed=9").build();
  const auto g2 = graph::random_regular(300, 6, 9);
  ASSERT_EQ(g1.n(), g2.n());
  ASSERT_EQ(g1.m(), g2.m());
  for (graph::Vertex v = 0; v < g1.n(); ++v) {
    const auto a = g1.neighbors(v);
    const auto b = g2.neighbors(v);
    ASSERT_EQ(std::vector(a.begin(), a.end()), std::vector(b.begin(), b.end()));
  }
}

TEST(GraphSpec, DistinctSpecsHashDifferently) {
  EXPECT_NE(GraphSpec::parse("cycle:64").content_hash(),
            GraphSpec::parse("cycle:65").content_hash());
  EXPECT_NE(GraphSpec::parse("cycle:64").content_hash(),
            GraphSpec::parse("path:64").content_hash());
}

TEST(GraphSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(GraphSpec::parse("nosuchkind:5"), std::invalid_argument);
  EXPECT_THROW(GraphSpec::parse("regular:n=10"), std::invalid_argument);
  EXPECT_THROW(GraphSpec::parse("cycle:n=10,extra=1"), std::invalid_argument);
  EXPECT_THROW(GraphSpec::parse("cycle:n=10,n=11"), std::invalid_argument);
  EXPECT_THROW(GraphSpec::parse("cycle"), std::invalid_argument);
  // A sign, an overflow, a regular graph no pairing builds, and a hypercube
  // past 32-bit vertex ids: each used to parse, then fail in the build.
  for (const char* bad :
       {"path:-3", "path:+3", "path: 3", "cycle:18446744073709551616",
        "gnp:n=-1,p=0.1,seed=1", "regular:5,3,1", "regular:3,5,1", "regular:4,4,1",
        "regular:0,0,1", "hypercube:32", "hypercube:64"}) {
    EXPECT_THROW(GraphSpec::parse(bad), std::invalid_argument) << bad;
  }
  EXPECT_NO_THROW(GraphSpec::parse("cycle:18446744073709551615"));
  EXPECT_NO_THROW(GraphSpec::parse("regular:6,3,1"));
  EXPECT_NO_THROW(GraphSpec::parse("hypercube:31"));
  // Reals: strtod took NaN (gnp:100,nan,1 built 4951 edges on 100 vertices),
  // infinities, hex, a blank, a `+` and trailing text; the generators took
  // a p outside [0,1] (gnp:100,2,1 built K_100), a negative radius and a
  // power law whose gamma <= 1 builds no edge.
  for (const char* bad :
       {"gnp:100,nan,1", "gnp:100,inf,1", "gnp:100,-inf,1", "gnp:100,0x1p-3,1",
        "gnp:100, 0.5,1", "gnp:100,+0.5,1", "gnp:100,0.3x,1", "gnp:100,,1",
        "gnp:100,2,1", "gnp:100,-0.1,1", "geometric:100,-1,1",
        "geometric:100,nan,1", "powerlaw:1000,1,8,1", "powerlaw:1000,0.5,8,1",
        "powerlaw:1000,2.5,-1,1", "powerlaw:1000,2.5,nan,1"}) {
    EXPECT_THROW(GraphSpec::parse(bad), std::invalid_argument) << bad;
  }
  EXPECT_NO_THROW(GraphSpec::parse("gnp:100,0,1"));
  EXPECT_NO_THROW(GraphSpec::parse("gnp:100,1,1"));
  EXPECT_NO_THROW(GraphSpec::parse("geometric:100,0,1"));
  // -0 is 0: it must not be a second spelling (and cache key) of one graph.
  EXPECT_EQ(GraphSpec::parse("gnp:100,-0,1").to_string(), "gnp:n=100,p=0,seed=1");
}

TEST(GraphSpec, EstimatedBytesScalesWithSize) {
  const auto small = GraphSpec::parse("cycle:64").estimated_bytes();
  const auto big = GraphSpec::parse("cycle:100000").estimated_bytes();
  EXPECT_GT(small, 0u);
  EXPECT_GT(big, 100 * small);
}

// ---------------------------------------------------------------------------
// Campaign file format
// ---------------------------------------------------------------------------

TEST(CampaignFormat, ParsesJobsWithDefaultsAndComments) {
  std::istringstream in(
      "# a comment\n"
      "algo=ag graph=cycle:64\n"
      "\n"
      "algo=exact graph=gnp:100,0.06,2 seed=5 tag=cell-b max-rounds=500\n");
  const auto c = Campaign::parse(in);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.job(0).algorithm, "ag");
  EXPECT_EQ(c.job(0).graph.to_string(), "cycle:n=64");
  EXPECT_EQ(c.job(0).seed, 1u);
  EXPECT_EQ(c.job(1).tag, "cell-b");
  EXPECT_EQ(c.job(1).seed, 5u);
  EXPECT_EQ(c.job(1).opts.max_rounds, 500u);
}

TEST(CampaignFormat, FormatParseRoundTrip) {
  Campaign c;
  c.add_grid({"ag", "kw"}, {GraphSpec::parse("cycle:64"),
                            GraphSpec::parse("regular:100,6,3")},
             {1, 2});
  JobSpec faulty;
  faulty.algorithm = "ss-color";
  faulty.graph = GraphSpec::parse("regular:100,6,3");
  faulty.seed = 9;
  faulty.faults.channel.drop_per_million = 20'000;
  faulty.faults.channel.last_round = 24;
  faulty.faults.periodic = {.period = 6, .last_round = 24, .corrupt = 2};
  faulty.faults.recovery_budget = 4000;
  c.add(faulty);

  std::istringstream in(c.format());
  const auto back = Campaign::parse(in);
  EXPECT_EQ(back.format(), c.format());
  ASSERT_EQ(back.size(), c.size());
  EXPECT_EQ(back.job(8).faults.channel.drop_per_million, 20'000u);
  EXPECT_EQ(back.job(8).faults.periodic.corrupt, 2u);
  EXPECT_EQ(back.job(8).faults.recovery_budget, 4000u);
}

TEST(CampaignFormat, RejectsUnknownRunnerAndBadDeps) {
  std::istringstream bad_algo("algo=nosuch graph=cycle:64\n");
  EXPECT_THROW(Campaign::parse(bad_algo), std::invalid_argument);
  std::istringstream fwd_dep("algo=ag graph=cycle:64 deps=1\n");
  EXPECT_THROW(Campaign::parse(fwd_dep), std::invalid_argument);
}

TEST(CampaignFormat, RejectsSignedAndOverflowingIntegers) {
  // strtoull would read these as 2^64 - 3 and as a saturated 2^64 - 1.
  for (const char* line : {"algo=ag graph=cycle:64 seed=-3\n",
                           "algo=ag graph=cycle:64 seed=18446744073709551616\n"}) {
    std::istringstream in(line);
    EXPECT_THROW(Campaign::parse(in), std::invalid_argument) << line;
  }
  std::istringstream max("algo=ag graph=cycle:64 seed=18446744073709551615\n");
  EXPECT_EQ(Campaign::parse(max).job(0).seed, ~std::uint64_t{0});
}

// Every job key with a non-default value, spelled canonically.  Written out
// here rather than taken from the key table, so a key the table drops or
// renders differently shows.
const std::vector<std::pair<std::string, std::string>>& every_key() {
  static const std::vector<std::pair<std::string, std::string>> keys = {
      {"seed", "7"},           {"tag", "cell"},           {"model", "local"},
      {"congest", "4294967295"}, {"max-rounds", "500"},   {"idspace", "4"},
      {"deps", "0"},           {"chan-drop", "0.05"},     {"chan-corrupt", "0.000249"},
      {"chan-dup", "1e-06"},   {"chan-delay", "1"},       {"chan-first", "2"},
      {"chan-last", "40"},     {"adv-period", "4"},       {"adv-last", "30"},
      {"adv-corrupt", "3"},    {"adv-range", "1000"},     {"adv-clones", "2"},
      {"adv-eadds", "1"},      {"adv-eremoves", "1"},     {"adv-dmax", "16"},
      {"out-lo", "10"},        {"out-hi", "4294967295"},  {"out-first", "2"},
      {"out-last", "24"},      {"flap-down", "0.08"},     {"flap-up", "0.35"},
      {"flap-first", "2"},     {"flap-last", "32"},       {"byz-liars", "0.08"},
      {"byz-rate", "0.5"},     {"byz-first", "2"},        {"byz-last", "24"},
      {"adapt-period", "3"},   {"adapt-count", "3"},      {"adapt-last", "24"},
      {"adapt-target", "recent"}, {"churn-events", "8"},  {"churn-alpha", "2.25"},
      {"churn-attach", "3"},   {"churn-resets", "0.4"},   {"churn-first", "2"},
      {"churn-last", "48"},    {"churn-dmax", "10"},      {"churn-grow", "24"},
      {"plan", "p.jsonl"},     {"plan-out", "out.jsonl"}, {"budget", "8000"},
      {"confirm", "5"}};
  return keys;
}

TEST(CampaignFormat, EveryKeyRoundTrips) {
  // Each key alone on a job: format() writes exactly that key with the
  // value it was given, and format -> parse -> format is unchanged.  The
  // first line gives deps a target.
  const std::string first = "algo=ss-color graph=cycle:n=16\n";
  for (const auto& [key, value] : every_key()) {
    const std::string text = first + "algo=ss-color graph=cycle:n=16 " + key + "=" +
                             value + "\n";
    std::istringstream in(text);
    const auto c = Campaign::parse(in);
    EXPECT_EQ(c.format(), text) << key;
    std::istringstream again(c.format());
    EXPECT_EQ(Campaign::parse(again).format(), text) << key;
    // set_job_key, the grid's path, sets the same field.
    Campaign set;
    set.add(c.job(0));
    JobSpec job = c.job(0);
    sched::set_job_key(job, key, value);
    set.add(job);
    EXPECT_EQ(set.format(), text) << key;
  }
  // The grid takes every key but seed, deps and plan-out.
  const auto grid = sched::grid_keys();
  EXPECT_EQ(grid.size() + 3, every_key().size());
  for (const auto key : grid) {
    EXPECT_TRUE(std::any_of(every_key().begin(), every_key().end(),
                            [&](const auto& kv) { return kv.first == key; }))
        << key;
  }

  // Every per-million value, through all nine probability keys at once:
  // parse(format()) must give back the value format() wrote.
  using Ppm = std::uint32_t& (*)(JobSpec&);
  const Ppm fields[] = {
      [](JobSpec& j) -> std::uint32_t& { return j.faults.channel.drop_per_million; },
      [](JobSpec& j) -> std::uint32_t& { return j.faults.channel.corrupt_per_million; },
      [](JobSpec& j) -> std::uint32_t& { return j.faults.channel.duplicate_per_million; },
      [](JobSpec& j) -> std::uint32_t& { return j.faults.channel.delay_per_million; },
      [](JobSpec& j) -> std::uint32_t& { return j.faults.zoo.flap.down_per_million; },
      [](JobSpec& j) -> std::uint32_t& { return j.faults.zoo.flap.up_per_million; },
      [](JobSpec& j) -> std::uint32_t& { return j.faults.zoo.byz.liars_per_million; },
      [](JobSpec& j) -> std::uint32_t& { return j.faults.zoo.byz.lie_per_million; },
      [](JobSpec& j) -> std::uint32_t& { return j.faults.zoo.churn.resets_per_million; }};
  constexpr std::uint32_t kTop = 1'000'000;
  constexpr std::uint32_t kJobs = 8'000;
  std::size_t wrong = 0;
  for (std::uint32_t next = 0; next <= kTop;) {
    Campaign c;
    for (std::uint32_t j = 0; j < kJobs && next <= kTop; ++j) {
      JobSpec job;
      job.algorithm = "ss-color";
      job.graph = GraphSpec::parse("cycle:16");
      for (const Ppm field : fields) field(job) = std::min(next++, kTop);
      c.add(std::move(job));
    }
    std::istringstream in(c.format());
    auto back = Campaign::parse(in);
    ASSERT_EQ(back.size(), c.size());
    for (std::size_t j = 0; j < c.size(); ++j) {
      JobSpec want = c.job(j);
      JobSpec got = back.job(j);
      for (const Ppm field : fields) {
        if (field(got) != field(want) && ++wrong <= 5) {
          ADD_FAILURE() << field(want) << " per million read back as " << field(got);
        }
      }
    }
  }
  EXPECT_EQ(wrong, 0u);
}

TEST(CampaignFormat, RejectsNonFiniteAndMalformedReals) {
  // strtod read nan (a job that then ran with no wire fault), inf, hex and
  // the leading "0.3" of "0.3x".
  const std::pair<const char*, const char*> bad[] = {
      {"chan-drop", "nan"},   {"chan-drop", "inf"},    {"chan-drop", "0.3x"},
      {"chan-drop", " 0.5"},  {"chan-drop", "0x1p-3"}, {"chan-drop", "-0.1"},
      {"chan-drop", "1.5"},   {"chan-drop", "+0.5"},   {"chan-drop", ""},
      {"churn-alpha", "nan"}, {"churn-alpha", "inf"},  {"churn-alpha", "0"},
      {"churn-alpha", "-1"},  {"byz-rate", "NaN"},     {"churn-resets", "1e400"}};
  for (const auto& [key, value] : bad) {
    JobSpec job;
    EXPECT_THROW(sched::set_job_key(job, key, value), std::invalid_argument)
        << key << "=" << value;
    if (std::string_view(value).find(' ') != std::string_view::npos) continue;
    std::istringstream in(std::string("algo=ss-color graph=cycle:16 ") + key + "=" +
                          value + "\n");
    EXPECT_THROW(Campaign::parse(in), std::invalid_argument) << key << "=" << value;
  }
  std::istringstream ok("algo=ss-color graph=cycle:16 chan-drop=1 churn-alpha=1e-3\n");
  const auto c = Campaign::parse(ok);
  EXPECT_EQ(c.job(0).faults.channel.drop_per_million, 1'000'000u);
  EXPECT_EQ(c.job(0).faults.zoo.churn.alpha, 0.001);
}

TEST(CampaignFormat, RejectsIntegersPastTheirField) {
  // 32-bit fields wrapped: congest=4294967296 read back as congest=0.
  for (const char* line : {"algo=ag graph=cycle:64 congest=4294967296\n",
                           "algo=ss-color graph=cycle:64 out-lo=4294967296\n",
                           "algo=ss-color graph=cycle:64 out-hi=4294967296\n"}) {
    std::istringstream in(line);
    EXPECT_THROW(Campaign::parse(in), std::invalid_argument) << line;
  }
  std::istringstream max("algo=ag graph=cycle:64 congest=4294967295\n");
  EXPECT_EQ(Campaign::parse(max).job(0).opts.congest_bits, 4294967295u);
}

TEST(CampaignFormat, AddGridOrdersAlgorithmMajor) {
  Campaign c;
  c.add_grid({"ag", "exact"}, {GraphSpec::parse("cycle:8")}, {1, 2});
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c.job(0).algorithm, "ag");
  EXPECT_EQ(c.job(1).algorithm, "ag");
  EXPECT_EQ(c.job(1).seed, 2u);
  EXPECT_EQ(c.job(2).algorithm, "exact");
}

// ---------------------------------------------------------------------------
// Scheduling: determinism, cache, backpressure, deps, retries
// ---------------------------------------------------------------------------

Campaign small_campaign() {
  Campaign c;
  c.add_grid({"ag", "exact", "gps"},
             {GraphSpec::parse("cycle:64"), GraphSpec::parse("gnp:100,0.06,2"),
              GraphSpec::parse("regular:100,6,3")},
             {1, 2});
  return c;
}

TEST(Scheduler, AggregatesBitIdenticalAcross128Threads) {
  const auto c = small_campaign();
  std::string jsonl[3];
  std::size_t i = 0;
  for (const std::size_t threads : {1, 2, 8}) {
    ScheduleOptions so;
    so.threads = threads;
    jsonl[i++] = sched::run_campaign(c, so).to_jsonl();
  }
  EXPECT_EQ(jsonl[0], jsonl[1]);
  EXPECT_EQ(jsonl[0], jsonl[2]);
  EXPECT_NE(jsonl[0].find("\"campaign\""), std::string::npos);
}

TEST(Scheduler, CacheAccountingIsExact) {
  const auto c = small_campaign();  // 18 jobs over 3 distinct graphs
  ScheduleOptions so;
  so.threads = 4;
  const auto report = sched::run_campaign(c, so);
  EXPECT_EQ(report.cache_misses, 3u);
  EXPECT_EQ(report.cache_hits, c.size() - 3);
  // Exactly the first job touching each distinct spec is a miss, regardless
  // of execution order.
  std::size_t misses = 0;
  for (const auto& job : report.jobs) misses += job.cache_hit ? 0 : 1;
  EXPECT_EQ(misses, 3u);
  EXPECT_FALSE(report.jobs[0].cache_hit);
}

TEST(Scheduler, TinyMemoryBudgetStillCompletes) {
  const auto c = small_campaign();
  ScheduleOptions so;
  so.threads = 8;
  so.memory_budget_bytes = 1;  // admits one job at a time: degrade, not deadlock
  const auto report = sched::run_campaign(c, so);
  EXPECT_TRUE(report.all_ok());
  EXPECT_GT(report.peak_bytes_in_flight, 0u);
  // With admission gated at one in-flight graph, the peak never exceeds the
  // largest single estimate.
  std::size_t largest = 0;
  for (std::size_t j = 0; j < c.size(); ++j) {
    largest = std::max(largest, c.job(j).graph.estimated_bytes());
  }
  EXPECT_LE(report.peak_bytes_in_flight, largest);

  ScheduleOptions unlimited;
  unlimited.threads = 8;
  const auto free_report = sched::run_campaign(c, unlimited);
  EXPECT_EQ(free_report.to_jsonl(), report.to_jsonl());
}

TEST(Scheduler, DependenciesRunBeforeDependents) {
  Campaign c;
  JobSpec a;
  a.algorithm = "ag";
  a.graph = GraphSpec::parse("cycle:64");
  c.add(a);
  JobSpec b = a;
  b.algorithm = "exact";
  b.deps = {0};
  c.add(b);
  ScheduleOptions so;
  so.threads = 2;
  const auto report = sched::run_campaign(c, so);
  EXPECT_TRUE(report.all_ok());

  Campaign cyclic;
  JobSpec self = a;
  cyclic.add(self);
  EXPECT_THROW(cyclic.depend(0, 0), std::invalid_argument);
}

TEST(Scheduler, WatchdogRetriesWithRerolledSeeds) {
  // An impossible recovery budget forces the watchdog on every attempt: the
  // scheduler must exhaust max_attempts and report the violation.
  Campaign c;
  JobSpec job;
  job.algorithm = "ss-color";
  job.graph = GraphSpec::parse("regular:100,6,3");
  job.seed = 5;
  job.faults.periodic = {.period = 1, .last_round = 1'000'000, .corrupt = 4};
  job.faults.recovery_budget = 3;
  job.opts.max_rounds = 50;
  c.add(job);
  ScheduleOptions so;
  so.max_attempts = 3;
  const auto report = sched::run_campaign(c, so);
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.jobs[0].attempts, 3u);
  EXPECT_EQ(report.retries, 2u);
  EXPECT_TRUE(report.jobs[0].watchdog);
  EXPECT_FALSE(report.jobs[0].error.empty());
}

TEST(Scheduler, AttemptSeedIsStableAndDistinct) {
  EXPECT_EQ(sched::attempt_seed(42, 0), 42u);
  EXPECT_EQ(sched::attempt_seed(42, 1), 42u);
  EXPECT_NE(sched::attempt_seed(42, 2), 42u);
  EXPECT_NE(sched::attempt_seed(42, 2), sched::attempt_seed(42, 3));
  EXPECT_EQ(sched::attempt_seed(42, 2), sched::attempt_seed(42, 2));
}

TEST(Scheduler, FaultCampaignDeterministicAcrossThreads) {
  Campaign c;
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    JobSpec job;
    job.algorithm = "ss-color";
    job.graph = GraphSpec::parse("regular:100,6,3");
    job.seed = seed;
    job.faults.channel.drop_per_million = 20'000;
    job.faults.channel.first_round = 1;
    job.faults.channel.last_round = 24;
    job.faults.recovery_budget = 4000;
    c.add(std::move(job));
  }
  ScheduleOptions so1, so8;
  so1.threads = 1;
  so8.threads = 8;
  const auto r1 = sched::run_campaign(c, so1);
  const auto r8 = sched::run_campaign(c, so8);
  EXPECT_EQ(r1.to_jsonl(), r8.to_jsonl());
  EXPECT_TRUE(r1.all_ok());
  // Different job seeds draw different fault streams.
  EXPECT_NE(r1.jobs[0].fault_events, 0u);
}

// ---------------------------------------------------------------------------
// The one fault path: sched::run_stabilization_job records and replays
// ---------------------------------------------------------------------------

/// Per ss runner and executor thread count: a job mixing wire noise, the
/// periodic RAM/topology adversary and one zoo family records its plan
/// through run_stabilization_job, and the plan replayed through the same
/// function with the same keys applies every event and reruns the job.
class StabilizationJobReplay
    : public ::testing::TestWithParam<std::tuple<const char*, std::size_t>> {};

TEST_P(StabilizationJobReplay, RecordedPlanReplaysEventForEvent) {
  const auto [algo, threads] = GetParam();
  JobSpec job;
  job.algorithm = algo;
  job.seed = 11;
  job.faults.channel.drop_per_million = 30'000;
  job.faults.channel.corrupt_per_million = 20'000;
  job.faults.channel.duplicate_per_million = 10'000;
  job.faults.channel.delay_per_million = 10'000;
  job.faults.channel.first_round = 1;
  job.faults.channel.last_round = 24;
  job.faults.periodic = {.period = 4, .last_round = 24, .corrupt = 2, .clones = 1,
                         .edge_adds = 1, .edge_removes = 1, .dmax = 10};
  job.faults.zoo.flap.down_per_million = 80'000;
  job.faults.zoo.flap.first_round = 2;
  job.faults.zoo.flap.last_round = 20;
  const auto rg = GraphSpec::parse("regular:120,6,3").resolve(graph::Mutability::ReadOnly);
  sched::RunnerContext ctx{rg.view(), job, job.opts};
  ctx.opts.executor = exec::make_executor(threads);

  faultlab::FaultPlanRecorder recorder;
  const auto live = sched::run_stabilization_job(ctx, nullptr, &recorder);
  const faultlab::FaultPlan plan = recorder.take();
  ASSERT_TRUE(live.outcome.recovered) << live.result.error;
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(live.outcome.fault_events, plan.size());
  EXPECT_GT(live.outcome.illegal_rounds, 0u);

  const auto replay = sched::run_stabilization_job(ctx, &plan);
  EXPECT_EQ(replay.outcome.fault_events, plan.size());
  EXPECT_TRUE(replay.outcome.recovered);
  EXPECT_EQ(replay.outcome.recovery_rounds, live.outcome.recovery_rounds);
  EXPECT_EQ(replay.outcome.adjusted, live.outcome.adjusted);
  EXPECT_EQ(replay.outcome.last_fault_round, live.outcome.last_fault_round);
  EXPECT_EQ(replay.outcome.illegal_rounds, live.outcome.illegal_rounds);
  EXPECT_EQ(replay.outcome.metrics.messages, live.outcome.metrics.messages);
  EXPECT_EQ(replay.outcome.metrics.total_bits, live.outcome.metrics.total_bits);
  EXPECT_EQ(replay.result.values, live.result.values);
}

INSTANTIATE_TEST_SUITE_P(
    EverySsRunner, StabilizationJobReplay,
    ::testing::Combine(::testing::Values("ss-color", "ss-color-exact", "ss-mis",
                                         "ss-line"),
                       ::testing::Values(std::size_t{1}, std::size_t{4})));

TEST(StabilizationJob, FaultFreeJobRunsToItsFirstStableRound) {
  JobSpec job;
  job.algorithm = "ss-color";
  const auto rg = GraphSpec::parse("cycle:32").resolve(graph::Mutability::ReadOnly);
  const sched::RunnerContext ctx{rg.view(), job, job.opts};
  const auto run = sched::run_stabilization_job(ctx);
  EXPECT_TRUE(run.result.ok);
  ASSERT_FALSE(run.result.values.empty());
  EXPECT_EQ(run.result.values.front().first, "rounds_to_stable");
  EXPECT_EQ(run.outcome.fault_events, 0u);
  job.algorithm = "ag";  // ctx.spec refers to `job`
  EXPECT_THROW((void)sched::run_stabilization_job(ctx), std::invalid_argument);
}

TEST(Scheduler, SinkReceivesJobIdOrderedEvents) {
  const auto c = small_campaign();
  obs::RingSink ring(64);
  ScheduleOptions so;
  so.threads = 4;
  so.sink = &ring;
  const auto report = sched::run_campaign(c, so);
  ASSERT_TRUE(report.all_ok());
  // RunStart + one StageEnd per job + RunEnd, emitted after completion in
  // job-id order regardless of which worker finished first.
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), c.size() + 2);
  EXPECT_EQ(events.front().kind, obs::EventKind::RunStart);
  EXPECT_EQ(events.back().kind, obs::EventKind::RunEnd);
  for (std::size_t j = 0; j < c.size(); ++j) {
    EXPECT_EQ(events[j + 1].kind, obs::EventKind::StageEnd);
    EXPECT_EQ(events[j + 1].round, report.jobs[j].rounds);
  }
}

TEST(Scheduler, TimingExcludedFromJsonlByDefault) {
  Campaign c;
  JobSpec job;
  job.algorithm = "ag";
  job.graph = GraphSpec::parse("cycle:64");
  c.add(job);
  ScheduleOptions so;
  const auto report = sched::run_campaign(c, so);
  EXPECT_EQ(report.to_jsonl().find("wall_ns"), std::string::npos);
  EXPECT_NE(report.to_jsonl(true).find("wall_ns"), std::string::npos);
}

}  // namespace
