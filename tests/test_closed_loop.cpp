// Tests for the closed-loop (finite client population) hybrid system.
#include <gtest/gtest.h>

#include <sstream>

#include "catalog/catalog.hpp"
#include "catalog/length_model.hpp"
#include "core/closed_loop.hpp"
#include "engine_golden.hpp"

namespace pushpull::core {
namespace {

catalog::Catalog test_catalog() {
  return catalog::Catalog(50, 0.6, catalog::LengthModel::paper_default(), 7);
}

ClosedLoopConfig base_config() {
  ClosedLoopConfig config;
  config.num_clients = 40;
  config.think_rate = 0.05;
  config.cutoff = 15;
  config.alpha = 0.25;
  config.horizon = 8000.0;
  return config;
}

TEST(ClosedLoop, RejectsBadConfig) {
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  ClosedLoopConfig config = base_config();
  config.num_clients = 0;
  EXPECT_THROW(ClosedLoopServer(cat, pop, config), std::invalid_argument);
  config = base_config();
  config.think_rate = 0.0;
  EXPECT_THROW(ClosedLoopServer(cat, pop, config), std::invalid_argument);
  config = base_config();
  config.cutoff = 1000;
  EXPECT_THROW(ClosedLoopServer(cat, pop, config), std::invalid_argument);
  config = base_config();
  config.horizon = 0.0;
  EXPECT_THROW(ClosedLoopServer(cat, pop, config), std::invalid_argument);
  config = base_config();
  config.warmup_fraction = 1.0;
  EXPECT_THROW(ClosedLoopServer(cat, pop, config), std::invalid_argument);
}

TEST(ClosedLoop, RunsAndServes) {
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  ClosedLoopServer server(cat, pop, base_config());
  const ClosedLoopResult r = server.run();
  EXPECT_GT(r.overall().served, 0u);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_GT(r.push_transmissions, 0u);
}

TEST(ClosedLoop, OutstandingBoundedByPopulation) {
  // A closed loop can never have more outstanding requests than clients.
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  ClosedLoopServer server(cat, pop, base_config());
  const ClosedLoopResult r = server.run();
  const auto overall = r.overall();
  EXPECT_LE(overall.arrived - overall.served, 40u);
}

TEST(ClosedLoop, ThroughputSaturatesWithPopulation) {
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  double prev_throughput = 0.0;
  double saturated = 0.0;
  for (std::size_t clients : {std::size_t{5}, std::size_t{40},
                              std::size_t{200}}) {
    ClosedLoopConfig config = base_config();
    config.num_clients = clients;
    ClosedLoopServer server(cat, pop, config);
    const ClosedLoopResult r = server.run();
    EXPECT_GE(r.throughput, prev_throughput * 0.9)
        << clients << " clients";  // throughput never collapses
    prev_throughput = r.throughput;
    saturated = r.throughput;
  }
  // 200 clients cannot push more deliveries than the channel can carry:
  // at mean item length 2, even perfect batching bounds deliveries well
  // below clients × think rate (= 10 per unit).
  EXPECT_LT(saturated, 10.0);
  EXPECT_GT(saturated, 0.2);
}

TEST(ClosedLoop, DelayGrowsWithPopulation) {
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  ClosedLoopConfig small = base_config();
  small.num_clients = 5;
  ClosedLoopConfig large = base_config();
  large.num_clients = 300;
  ClosedLoopServer a(cat, pop, small);
  ClosedLoopServer b(cat, pop, large);
  EXPECT_LT(a.run().overall().wait.mean(), b.run().overall().wait.mean());
}

TEST(ClosedLoop, DeterministicForSeed) {
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  ClosedLoopServer server(cat, pop, base_config());
  const ClosedLoopResult a = server.run();
  const ClosedLoopResult b = server.run();
  EXPECT_DOUBLE_EQ(a.overall().wait.mean(), b.overall().wait.mean());
  EXPECT_EQ(a.pull_transmissions, b.pull_transmissions);
}

TEST(ClosedLoop, ClassAssignmentFollowsShares) {
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  ClosedLoopConfig config = base_config();
  config.num_clients = 300;
  config.alpha = 0.0;
  ClosedLoopServer server(cat, pop, config);
  const ClosedLoopResult r = server.run();
  // Lowest class has the largest population share, hence the most arrivals.
  EXPECT_GT(r.per_class[2].arrived, r.per_class[0].arrived);
  // And the premium class keeps its delay edge.
  EXPECT_LE(r.mean_wait(0), r.mean_wait(2) * 1.10);
}

TEST(ClosedLoop, PurePullIdlesGracefully) {
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  ClosedLoopConfig config = base_config();
  config.cutoff = 0;
  config.num_clients = 10;
  ClosedLoopServer server(cat, pop, config);
  const ClosedLoopResult r = server.run();
  EXPECT_GT(r.overall().served, 0u);
  EXPECT_EQ(r.push_transmissions, 0u);
}

// One closed-loop run per line, every field in hexfloat, over clients
// {5, 40, 300} x cutoff {0, 15}.
std::string render_closed_loop_matrix() {
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  std::ostringstream out;
  for (const std::size_t clients :
       {std::size_t{5}, std::size_t{40}, std::size_t{300}}) {
    for (const std::size_t cutoff : {std::size_t{0}, std::size_t{15}}) {
      ClosedLoopConfig config = base_config();
      config.num_clients = clients;
      config.cutoff = cutoff;
      ClosedLoopServer server(cat, pop, config);
      const ClosedLoopResult r = server.run();
      out << "clients=" << clients << " cutoff=" << cutoff
          << " end=" << testing_util::hex(r.end_time)
          << " push_tx=" << r.push_transmissions
          << " pull_tx=" << r.pull_transmissions
          << " throughput=" << testing_util::hex(r.throughput) << "\n"
          << testing_util::render_per_class(r.per_class);
    }
  }
  return out.str();
}

TEST(ClosedLoop, MatrixMatchesTheEngineGolden) {
  testing_util::expect_matches_engine_golden(render_closed_loop_matrix(),
                                             "closed_loop.txt");
}

}  // namespace
}  // namespace pushpull::core
