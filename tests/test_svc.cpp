// Coloring-as-a-service (src/svc): epoch batching, determinism across
// executor thread counts, legality under sustained churn, adjustment
// locality versus a full-recolor oracle, workload reproducibility, and the
// agcd wire protocol.
#include <gtest/gtest.h>

#include <queue>
#include <set>
#include <string>
#include <vector>

#include "agc/exec/executor.hpp"
#include "agc/graph/checks.hpp"
#include "agc/obs/event_sink.hpp"
#include "agc/svc/service.hpp"
#include "agc/svc/wire.hpp"
#include "agc/svc/workload.hpp"

namespace {

using namespace agc;
using svc::Op;
using svc::OpKind;
using svc::OpResult;
using svc::OpStatus;

svc::ServiceConfig small_config(std::size_t threads = 1) {
  svc::ServiceConfig cfg;
  cfg.spec = graph::GraphSpec::parse("regular:200,6,9");
  cfg.epoch_batch = 32;
  if (threads > 1) cfg.run.executor = exec::make_executor(threads);
  return cfg;
}

/// The deterministic projection of a result stream: everything but the
/// wall-clock latency.
std::string fingerprint(const std::vector<OpResult>& results) {
  std::string out;
  for (const OpResult& r : results) {
    out += std::to_string(r.op_id) + ':' + svc::to_string(r.kind) + ':' +
           std::to_string(static_cast<int>(r.status)) + ':' +
           std::to_string(r.value) + ':' + std::to_string(r.epoch) + ':' +
           std::to_string(r.latency_rounds) + '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Epoch batching basics
// ---------------------------------------------------------------------------

TEST(ServiceBasics, BootsSettledAndAnswersQueries) {
  svc::Service service(small_config());
  EXPECT_EQ(service.stats().legality_violations, 0u);
  EXPECT_TRUE(graph::is_proper_coloring(service.graph(), service.colors()));
  service.submit(Op{OpKind::QueryColor, 5, 0});
  const auto results = service.pump();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, OpStatus::Ok);
  EXPECT_LT(results[0].value, service.coloring_config().final_palette());
  // Query-only epochs never step the engine.
  EXPECT_EQ(results[0].latency_rounds, 0u);
}

TEST(ServiceBasics, EpochBatchSplitsQueue) {
  auto cfg = small_config();
  cfg.epoch_batch = 4;
  svc::Service service(cfg);
  for (int i = 0; i < 10; ++i) service.submit(Op{OpKind::QueryColor, 0, 0});
  EXPECT_EQ(service.pump().size(), 4u);
  EXPECT_EQ(service.pending(), 6u);
  EXPECT_EQ(service.drain().size(), 6u);
  EXPECT_EQ(service.stats().epochs, 3u);
  EXPECT_EQ(service.pump().size(), 0u);  // empty queue: no epoch
  EXPECT_EQ(service.stats().epochs, 3u);
}

TEST(ServiceBasics, MutationsValidateLikeDocumented) {
  svc::Service service(small_config());
  const auto dmax = service.config().delta_bound;
  std::vector<std::uint64_t> ids;
  ids.push_back(service.submit(Op{OpKind::AddEdge, 7, 7}));     // self-loop
  ids.push_back(service.submit(Op{OpKind::AddEdge, 0, 100000}));  // unknown
  ids.push_back(service.submit(Op{OpKind::RemoveVertex, 3, 0}));
  ids.push_back(service.submit(Op{OpKind::QueryColor, 3, 0}));  // now retired
  ids.push_back(service.submit(Op{OpKind::AddVertex, 0, 0}));
  const auto results = service.drain();
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results[0].status, OpStatus::Rejected);
  EXPECT_EQ(results[1].status, OpStatus::Rejected);
  EXPECT_EQ(results[2].status, OpStatus::Ok);
  // Query liveness is sequential within the epoch: submitted after the
  // remove_vertex, so it must see the retirement.
  EXPECT_EQ(results[3].status, OpStatus::Rejected);
  EXPECT_EQ(results[4].status, OpStatus::Ok);
  EXPECT_EQ(results[4].value, 200u);  // appended at the old n
  EXPECT_FALSE(service.live(3));
  EXPECT_TRUE(service.live(200));
  EXPECT_EQ(service.live_vertices(), 200u);  // -1 retired, +1 added
  (void)dmax;
}

// ---------------------------------------------------------------------------
// Determinism: identical op stream, executor threads 1 / 2 / 8
// ---------------------------------------------------------------------------

TEST(ServiceDeterminism, ResultStreamIdenticalAcrossThreads) {
  const svc::WorkloadSpec ws{.seed = 77, .ops = 3000, .clients = 48};
  std::string base_fp;
  std::string base_stats;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    svc::Service service(small_config(threads));
    svc::Workload gen(service, ws);
    std::vector<OpResult> all;
    std::uint64_t submitted = 0;
    while (submitted < ws.ops) {
      for (std::size_t i = 0; i < ws.clients && submitted < ws.ops; ++i) {
        service.submit(gen.next());
        ++submitted;
      }
      const auto part = service.drain();
      all.insert(all.end(), part.begin(), part.end());
    }
    const std::string fp = fingerprint(all);
    const std::string stats =
        service.stats().to_json(/*include_timing=*/false);
    if (threads == 1) {
      base_fp = fp;
      base_stats = stats;
      EXPECT_EQ(service.stats().rejected, 0u) << "eager mirror drift";
    } else {
      EXPECT_EQ(fp, base_fp) << "threads=" << threads;
      EXPECT_EQ(stats, base_stats) << "threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Legality after every epoch under 10k-mutation churn
// ---------------------------------------------------------------------------

TEST(ServiceChurn, LegalAfterEveryEpochAcross10kMutations) {
  auto cfg = small_config();
  cfg.spec = graph::GraphSpec::parse("gnp:400,0.02,13");
  cfg.epoch_batch = 64;
  svc::Service service(cfg);
  // Mutation-heavy mix so 10k mutations happen within ~12k ops.
  svc::WorkloadSpec ws;
  ws.seed = 5;
  ws.ops = 1;  // unused: we drive the loop manually below
  ws.add_edge_ppm = 450'000;
  ws.remove_edge_ppm = 350'000;
  ws.add_vertex_ppm = 30'000;
  ws.remove_vertex_ppm = 50'000;
  svc::Workload gen(service, ws);

  std::uint64_t mutations = 0;
  while (mutations < 10'000) {
    for (std::size_t i = 0; i < cfg.epoch_batch; ++i) service.submit(gen.next());
    for (const OpResult& r : service.drain()) {
      ASSERT_NE(r.status, OpStatus::Rejected)
          << svc::to_string(r.kind) << " op " << r.op_id;
      if (r.kind != OpKind::QueryColor) ++mutations;
    }
    // The published invariant: after every pump the coloring is proper and
    // inside the final palette.
    const auto colors = service.colors();
    ASSERT_TRUE(graph::is_proper_coloring(service.graph(), colors));
    const auto palette = service.coloring_config().final_palette();
    for (const graph::Color c : colors) ASSERT_LT(c, palette);
    ASSERT_EQ(service.stats().legality_violations, 0u);
  }
  EXPECT_GE(service.stats().mutations, 10'000u);
}

// ---------------------------------------------------------------------------
// Adjustment locality versus the full-recolor oracle
// ---------------------------------------------------------------------------

TEST(ServiceLocality, EpochAdjustmentStaysNearTouchedVertices) {
  svc::Service service(small_config());
  const auto before = service.colors();

  // One epoch of 6 edge insertions between far-apart vertices, picked to be
  // absent from the seeded graph and within the degree cap.
  std::vector<std::pair<graph::Vertex, graph::Vertex>> adds;
  const auto dmax = service.config().delta_bound;
  for (graph::Vertex u = 0; adds.size() < 6 && u < 60; u += 10) {
    for (graph::Vertex v = u + 100; v < u + 110; ++v) {
      const auto& g = service.graph();
      if (!g.has_edge(u, v) && g.degree(u) < dmax && g.degree(v) < dmax) {
        adds.emplace_back(u, v);
        break;
      }
    }
  }
  ASSERT_EQ(adds.size(), 6u);
  std::set<graph::Vertex> touched;
  for (const auto& [u, v] : adds) {
    service.submit(Op{OpKind::AddEdge, u, v});
    touched.insert(u);
    touched.insert(v);
  }
  for (const OpResult& r : service.drain()) {
    ASSERT_EQ(r.status, OpStatus::Ok);
  }
  const auto after = service.colors();
  ASSERT_TRUE(graph::is_proper_coloring(service.graph(), after));

  // BFS distance-<=1 ball around the touched vertices (the paper's
  // adjustment radius; see ss_coloring.hpp).
  std::set<graph::Vertex> ball(touched);
  for (const graph::Vertex t : touched) {
    for (const graph::Vertex w : service.graph().neighbors(t)) ball.insert(w);
  }
  std::size_t changed = 0;
  for (graph::Vertex v = 0; v < before.size(); ++v) {
    if (before[v] == after[v]) continue;
    ++changed;
    EXPECT_TRUE(ball.count(v) != 0)
        << "vertex " << v << " changed color outside the adjustment ball";
  }
  EXPECT_LE(changed, touched.size());

  // Full-recolor oracle: recoloring from scratch recomputes every vertex
  // (they all restart from their reset colors), so its adjustment set is the
  // whole graph.  The incremental epoch must beat that by a wide margin.
  const std::size_t oracle_changed = service.graph().n();
  EXPECT_LT(changed * 4, oracle_changed);
}

// ---------------------------------------------------------------------------
// Workload seed reproducibility
// ---------------------------------------------------------------------------

TEST(WorkloadSeed, SameSeedSameStreamDifferentSeedDiverges) {
  svc::Service probe(small_config());
  svc::WorkloadSpec ws{.seed = 21, .ops = 500, .clients = 16};

  auto stream = [&](std::uint64_t seed) {
    svc::Workload gen(probe, svc::WorkloadSpec{.seed = seed, .ops = 500});
    std::string out;
    for (int i = 0; i < 500; ++i) {
      const Op op = gen.next();
      out += std::to_string(static_cast<int>(op.kind)) + ',' +
             std::to_string(op.u) + ',' + std::to_string(op.v) + ';';
    }
    return out;
  };
  EXPECT_EQ(stream(21), stream(21));
  EXPECT_NE(stream(21), stream(22));

  // End-to-end: two services driven by the same seed agree on the full
  // deterministic aggregate.
  svc::Service a(small_config());
  svc::Service b(small_config());
  const auto ra = svc::run_workload(a, ws);
  const auto rb = svc::run_workload(b, ws);
  EXPECT_EQ(ra.rejected, 0u);
  EXPECT_EQ(rb.rejected, 0u);
  EXPECT_EQ(a.stats().to_json(false), b.stats().to_json(false));
}

// ---------------------------------------------------------------------------
// Epoch observability
// ---------------------------------------------------------------------------

TEST(ServiceObs, EveryEpochEmitsStagePairAndPhaseTimings) {
  auto cfg = small_config();
  obs::RingSink ring(4096);
  cfg.run.sink = &ring;
  cfg.run.collect_phase_times = true;
  svc::Service service(cfg);
  for (int i = 0; i < 40; ++i) {
    service.submit(Op{i % 2 == 0 ? OpKind::AddEdge : OpKind::QueryColor,
                      static_cast<graph::Vertex>(i), static_cast<graph::Vertex>(100 + i)});
  }
  (void)service.drain();
  std::size_t starts = 0, ends = 0;
  for (const auto& ev : ring.snapshot()) {
    if (ev.label != nullptr && std::string(ev.label) == "svc.epoch") {
      starts += ev.kind == obs::EventKind::StageStart;
      ends += ev.kind == obs::EventKind::StageEnd;
    }
  }
  EXPECT_EQ(starts, service.stats().epochs);
  EXPECT_EQ(ends, service.stats().epochs);
  // collect_phase_times folded the phase timers of the boot settle and of
  // every epoch's repair into report().
  const runtime::RunReport rep = service.report();
  EXPECT_GT(rep.rounds, 0u);
  EXPECT_GT(rep.phases.phase_calls(obs::Phase::Send), 0u);
  EXPECT_GT(rep.phases.phase_calls(obs::Phase::Receive), 0u);
  EXPECT_GT(rep.phases.total_ns(), 0u);
}

TEST(ServiceObs, PhaseTimingsStayOffByDefault) {
  svc::Service service(small_config());
  for (int i = 0; i < 10; ++i) {
    service.submit(Op{OpKind::AddEdge, static_cast<graph::Vertex>(i),
                      static_cast<graph::Vertex>(100 + i)});
  }
  (void)service.drain();
  EXPECT_GT(service.report().rounds, 0u);
  EXPECT_TRUE(service.report().phases.empty());
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(Wire, FramesRoundTripAndSplitAcrossReads) {
  const std::string frame = svc::encode_frame("query 7");
  ASSERT_EQ(frame.size(), 4u + 7u + 0u + 0u);  // 4-byte prefix + payload
  std::string buffer;
  std::string payload;
  // Feed the frame one byte at a time: decode only fires on completion.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    buffer += frame[i];
    const bool complete = i + 1 == frame.size();
    EXPECT_EQ(svc::decode_frame(buffer, payload), complete);
  }
  EXPECT_EQ(payload, "query 7");
  EXPECT_TRUE(buffer.empty());
}

TEST(Wire, GarbageFrameMidSessionKeepsServing) {
  // A hostile client declares a frame far above the cap, sends part of its
  // garbage payload, then resumes speaking the protocol.  The daemon's
  // bounded reader must report the bad frame once, discard the declared
  // bytes without buffering them, and pick the session back up.
  svc::Service service(small_config());
  svc::FrameReader reader;
  std::string payload;

  reader.feed(svc::encode_frame("add_edge 0 100"));
  ASSERT_EQ(reader.next(payload), svc::FrameStatus::Ok);
  EXPECT_EQ(svc::handle_command(service, payload), "queued 0");

  const std::uint32_t huge = svc::kMaxFramePayload + 1234;
  std::string garbage;
  for (int i = 0; i < 4; ++i) {
    garbage.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  }
  garbage.append(512, '\x7f');
  reader.feed(garbage);
  EXPECT_EQ(reader.next(payload), svc::FrameStatus::TooLarge);
  // Never more than a read chunk in memory, no matter the declared length.
  EXPECT_LT(reader.buffered(), 4096u);

  // The rest of the garbage streams in, split across reads, then a valid
  // command; the reader resynchronizes exactly at the frame boundary.
  std::string rest(huge - 512, '\x7f');
  rest += svc::encode_frame("pump");
  const std::size_t half = rest.size() / 2;
  reader.feed(std::string_view(rest).substr(0, half));
  EXPECT_EQ(reader.next(payload), svc::FrameStatus::Incomplete);
  reader.feed(std::string_view(rest).substr(half));
  ASSERT_EQ(reader.next(payload), svc::FrameStatus::Ok);
  EXPECT_EQ(payload, "pump");
  EXPECT_EQ(svc::handle_command(service, payload), "pumped 1");
  EXPECT_EQ(reader.next(payload), svc::FrameStatus::Incomplete);

  // Session still healthy end to end.
  const std::string q = svc::handle_command(service, "query 0");
  EXPECT_EQ(q.rfind("ok ", 0), 0u);
}

TEST(Wire, CommandsDriveTheService) {
  svc::Service service(small_config());
  EXPECT_EQ(svc::handle_command(service, "add_edge 0 100"), "queued 0");
  EXPECT_EQ(svc::handle_command(service, "pump"), "pumped 1");
  const std::string q = svc::handle_command(service, "query 0");
  EXPECT_EQ(q.rfind("ok ", 0), 0u);
  EXPECT_EQ(svc::handle_command(service, "remove_vertex 5"), "queued 2");
  EXPECT_EQ(svc::handle_command(service, "query 5"), "rej");
  EXPECT_EQ(svc::handle_command(service, "bogus"), "err unknown command");
  EXPECT_EQ(svc::handle_command(service, "add_edge x y"), "err bad vertex");
  EXPECT_TRUE(svc::is_quit("quit"));
  EXPECT_FALSE(svc::is_quit("quitx"));
  const std::string stats = svc::handle_command(service, "stats");
  EXPECT_EQ(stats.front(), '{');
  EXPECT_NE(stats.find("\"legality_violations\":0"), std::string::npos);
}

}  // namespace
