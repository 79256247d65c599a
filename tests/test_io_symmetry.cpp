// Graph I/O round-trips + static symmetry-breaking corollaries (MIS wave,
// maximal matching, line-graph edge coloring).
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "agc/coloring/symmetry.hpp"
#include "agc/exec/executor.hpp"
#include "agc/faultlab/channel.hpp"
#include "agc/graph/generators.hpp"
#include "agc/graph/io.hpp"
#include "agc/graph/spec.hpp"
#include "agc/obs/event_sink.hpp"

namespace {

using namespace agc;

TEST(GraphIo, DimacsRoundTrip) {
  const auto g = graph::random_gnp(60, 0.1, 4);
  std::stringstream ss;
  graph::write_edge_list(ss, g);
  const auto back = graph::read_edge_list(ss);
  EXPECT_EQ(back.n(), g.n());
  EXPECT_EQ(graph::edge_list(back), graph::edge_list(g));
}

TEST(GraphIo, BareEdgeListZeroBased) {
  std::stringstream ss("0 1\n1 2\n# comment\n2 3\n");
  const auto g = graph::read_edge_list(ss);
  EXPECT_EQ(g.n(), 4u);
  EXPECT_EQ(g.m(), 3u);
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(GraphIo, DimacsHeaderAndComments) {
  std::stringstream ss("c hello\np edge 5 2\ne 1 2\ne 4 5\n");
  const auto g = graph::read_edge_list(ss);
  EXPECT_EQ(g.n(), 5u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 4));
}

TEST(GraphIo, RejectsMalformed) {
  std::stringstream loop("e 3 3\np edge 5 1\n");
  EXPECT_THROW(graph::read_edge_list(loop), std::runtime_error);
  std::stringstream range("p edge 3 1\ne 1 9\n");
  EXPECT_THROW(graph::read_edge_list(range), std::runtime_error);
  std::stringstream zero("p edge 3 1\ne 0 1\n");
  EXPECT_THROW(graph::read_edge_list(zero), std::runtime_error);
}

TEST(GraphIo, DotAndCsvShapes) {
  const auto g = graph::cycle(4);
  std::vector<graph::Color> colors = {0, 1, 0, 1};
  std::stringstream dot;
  graph::write_dot(dot, g, colors);
  EXPECT_NE(dot.str().find("v0 -- v1"), std::string::npos);
  EXPECT_NE(dot.str().find("fillcolor"), std::string::npos);
  std::stringstream csv;
  graph::write_coloring_csv(csv, colors);
  EXPECT_EQ(csv.str().substr(0, 13), "vertex,color\n");
}

TEST(MisWave, DecidesInPaletteRounds) {
  const auto g = graph::random_regular(300, 8, 15);
  const auto colored = coloring::color_delta_plus_one(g);
  ASSERT_TRUE(colored.proper);
  const auto rep = coloring::mis_from_coloring(g, colored.colors);
  EXPECT_TRUE(rep.valid);
  EXPECT_LE(rep.rounds_mis, colored.palette + 2);
}

TEST(MisWave, EndToEndFamilies) {
  for (const auto& g :
       {graph::path(30), graph::cycle(31), graph::star(20), graph::complete(12),
        graph::grid(6, 7), graph::random_gnp(120, 0.08, 3)}) {
    const auto rep = coloring::maximal_independent_set(g);
    EXPECT_TRUE(rep.valid);
  }
}

TEST(MisWave, StarPicksEitherCenterOrAllLeaves) {
  const auto rep = coloring::maximal_independent_set(graph::star(12));
  ASSERT_TRUE(rep.valid);
  std::size_t size = 0;
  for (bool b : rep.in_mis) size += b;
  EXPECT_TRUE(size == 1 || size == 11);
}

TEST(MisWave, TrajectoryIsPinned) {
  // Pinned from the engine program that ran the wave before it became an
  // IterativeRule: membership (FNV-1a digest), wave rounds and the wave's
  // transport metrics, from the AG pipeline's coloring, at every thread count.
  struct Pin {
    const char* name;
    graph::Graph g;
    const char* expect;
  };
  const Pin pins[] = {
      {"path(30)", graph::path(30),
       "in_mis=821cc68867bef662 valid=1 rounds_mis=3 metrics=3/174/696/12"},
      {"grid(6, 7)", graph::grid(6, 7),
       "in_mis=1cc44174712f42ad valid=1 rounds_mis=4 metrics=4/568/2840/20"},
      {"random_regular(300, 8, 15)", graph::random_regular(300, 8, 15),
       "in_mis=64dbccd0989e26e2 valid=1 rounds_mis=4 metrics=4/9592/57552/24"},
      {"gnp:n=3000,p=0.004,seed=7",
       graph::GraphSpec::parse("gnp:n=3000,p=0.004,seed=7").build(),
       "in_mis=04120763332930a2 valid=1 rounds_mis=7 metrics=7/249270/1744890/49"},
  };
  for (const Pin& pin : pins) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      coloring::PipelineOptions po;
      po.run().executor = exec::make_executor(threads);
      const auto colored = coloring::color_delta_plus_one(pin.g, po);
      const auto rep = coloring::mis_from_coloring(pin.g, colored.colors, po.iter);
      std::uint64_t h = 1469598103934665603ULL;
      for (const bool b : rep.in_mis) h = (h ^ (b ? 1u : 0u)) * 1099511628211ULL;
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "in_mis=%016llx valid=%d rounds_mis=%zu metrics=%zu/%llu/%llu/%llu",
                    static_cast<unsigned long long>(h), rep.valid ? 1 : 0,
                    rep.rounds_mis, rep.metrics.rounds,
                    static_cast<unsigned long long>(rep.metrics.messages),
                    static_cast<unsigned long long>(rep.metrics.total_bits),
                    static_cast<unsigned long long>(rep.metrics.max_edge_bits));
      EXPECT_EQ(std::string(buf), pin.expect) << pin.name << " threads=" << threads;
    }
  }
}

TEST(MisWave, HonoursTheChannelHook) {
  // The wave steps through the same hooked rounds as every other runner, so
  // a wire attacker passed in the options faults it and the run reports it.
  const auto g = graph::random_regular(300, 8, 15);
  const auto colored = coloring::color_delta_plus_one(g);
  faultlab::ChannelFaultConfig cfg;
  cfg.seed = 3;
  cfg.drop_per_million = 50'000;
  cfg.duplicate_per_million = 50'000;
  faultlab::ChannelAdversary chan(cfg);
  obs::RingSink ring(std::size_t{1} << 12);
  runtime::IterativeOptions io;
  io.channel = &chan;
  io.sink = &ring;
  const auto rep = coloring::mis_from_coloring(g, colored.colors, io);
  EXPECT_GT(rep.fault_events, 0u);
  EXPECT_EQ(rep.fault_events, chan.events());
  std::size_t fault_events = 0;
  for (const obs::Event& ev : ring.snapshot()) {
    fault_events += ev.kind == obs::EventKind::Fault;
  }
  EXPECT_GT(fault_events, 0u);
}

TEST(MaximalMatching, ValidOnFamilies) {
  for (const auto& g : {graph::path(21), graph::complete(9),
                        graph::random_gnp(90, 0.07, 8), graph::grid(5, 8)}) {
    const auto rep = coloring::maximal_matching(g);
    EXPECT_TRUE(rep.valid);
  }
}

TEST(LineGraphEdgeColoring, TwoDeltaMinusOne) {
  const auto g = graph::random_regular(80, 6, 44);
  const auto rep = coloring::edge_coloring_via_line_graph(g);
  EXPECT_TRUE(rep.proper);
  // Palette = Delta(L(G)) + 1 = 2*Delta - 1.
  EXPECT_LE(rep.palette, 2 * g.max_degree() - 1);
}

}  // namespace
