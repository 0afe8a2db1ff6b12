// Tests for the fleet tier: arrival-process determinism, node admission and
// service accounting, balancer selection and tie-breaking, the fleet-level
// conservation invariant, jobs=1 vs jobs=N bit-identity, the grid-fidelity
// goldens, and the docs-sync pin between docs/FLEET.md and the fleet
// knob/counter vocabulary.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fleet/fleet.hpp"
#include "obs/names.hpp"
#include "obs/observer.hpp"

namespace coolpim::fleet {
namespace {

std::vector<Arrival> drain(ArrivalProcess& p) {
  std::vector<Arrival> out;
  while (auto a = p.next()) out.push_back(*a);
  return out;
}

TEST(PoissonArrivalsTest, SameSeedSameStream) {
  PoissonArrivals a{2000.0, 50.0, 4, {}, 42};
  PoissonArrivals b{2000.0, 50.0, 4, {}, 42};
  const auto sa = drain(a);
  const auto sb = drain(b);
  ASSERT_FALSE(sa.empty());
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].time_ms, sb[i].time_ms);
    EXPECT_EQ(sa[i].profile, sb[i].profile);
  }
}

TEST(PoissonArrivalsTest, DifferentSeedDifferentStream) {
  PoissonArrivals a{2000.0, 50.0, 4, {}, 42};
  PoissonArrivals b{2000.0, 50.0, 4, {}, 43};
  const auto sa = drain(a);
  const auto sb = drain(b);
  ASSERT_FALSE(sa.empty());
  bool any_diff = sa.size() != sb.size();
  for (std::size_t i = 0; !any_diff && i < sa.size(); ++i) {
    any_diff = sa[i].time_ms != sb[i].time_ms || sa[i].profile != sb[i].profile;
  }
  EXPECT_TRUE(any_diff);
}

TEST(PoissonArrivalsTest, MonotoneWithinHorizonAndRoughlyAtRate) {
  PoissonArrivals p{4000.0, 200.0, 3, {}, 7};
  const auto s = drain(p);
  ASSERT_FALSE(s.empty());
  double prev = 0.0;
  for (const auto& a : s) {
    EXPECT_GE(a.time_ms, prev);
    EXPECT_LT(a.time_ms, 200.0);
    EXPECT_LT(a.profile, 3u);
    prev = a.time_ms;
  }
  // E[count] = 4 req/ms * 200 ms = 800; a 4-sigma band is +-113.
  EXPECT_GT(s.size(), 650u);
  EXPECT_LT(s.size(), 950u);
}

TEST(PoissonArrivalsTest, ZeroWeightClassNeverDrawn) {
  PoissonArrivals p{4000.0, 100.0, 3, {1.0, 0.0, 1.0}, 11};
  for (const auto& a : drain(p)) EXPECT_NE(a.profile, 1u);
}

TEST(TraceArrivalsTest, LoadsCsvAndResolvesWorkloadNames) {
  const std::string path = ::testing::TempDir() + "fleet_trace.csv";
  {
    std::ofstream out{path};
    out << "time_ms,workload\n0.5,bfs-q\n1.5,pagerank-q\n1.5,degree-q\n";
  }
  const auto profiles = synthetic_profiles();
  const auto schedule = load_trace(path, profiles);
  ASSERT_EQ(schedule.size(), 3u);
  EXPECT_EQ(schedule[0].time_ms, 0.5);
  EXPECT_EQ(profiles[schedule[0].profile].workload, "bfs-q");
  EXPECT_EQ(profiles[schedule[1].profile].workload, "pagerank-q");
  EXPECT_EQ(profiles[schedule[2].profile].workload, "degree-q");
  std::remove(path.c_str());
}

TEST(TraceArrivalsTest, UnknownWorkloadThrows) {
  const std::string path = ::testing::TempDir() + "fleet_trace_bad.csv";
  {
    std::ofstream out{path};
    out << "0.5,no-such-workload\n";
  }
  EXPECT_THROW((void)load_trace(path, synthetic_profiles()), ConfigError);
  std::remove(path.c_str());
}

TEST(TraceArrivalsTest, NonMonotoneScheduleThrows) {
  EXPECT_THROW(TraceArrivals({{2.0, 0}, {1.0, 0}}), ConfigError);
}

TEST(NodeTest, ServesQueuedRequestsAndHeatsUp) {
  NodeConfig cfg;
  cfg.service_jitter = 0.0;  // exact service times for the arithmetic below
  const auto profiles = synthetic_profiles();
  Node node{0, cfg, profiles, 1};
  // Three bfs-q requests (2 ms each) into a 10 ms epoch: all served.
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(node.enqueue(Request{i, 1, 0.0, 0}));
  }
  node.step(0.0, 10.0);
  const NodeSummary s = node.summary();
  EXPECT_EQ(s.served, 3u);
  EXPECT_DOUBLE_EQ(s.busy_ms, 6.0);
  EXPECT_EQ(node.backlog(), 0u);
  EXPECT_GT(node.temp_c(), cfg.ambient_c);       // heated by the busy time
  EXPECT_LT(node.temp_c(), cfg.ambient_c + 50);  // bounded by the profile heat
  ASSERT_EQ(node.latencies().size(), 3u);
  EXPECT_DOUBLE_EQ(node.latencies()[0].latency_ms, 2.0);
  EXPECT_DOUBLE_EQ(node.latencies()[1].latency_ms, 4.0);
  EXPECT_DOUBLE_EQ(node.latencies()[2].latency_ms, 6.0);
}

TEST(NodeTest, PartialServiceCarriesOverEpochs) {
  NodeConfig cfg;
  cfg.service_jitter = 0.0;
  const auto profiles = synthetic_profiles();
  Node node{0, cfg, profiles, 1};
  ASSERT_TRUE(node.enqueue(Request{0, 3, 0.0, 0}));  // sssp-q: 4 ms
  node.step(0.0, 1.0);
  EXPECT_EQ(node.summary().served, 0u);
  EXPECT_EQ(node.backlog(), 1u);  // still in service
  node.step(1.0, 1.0);
  node.step(2.0, 1.0);
  node.step(3.0, 1.0);
  EXPECT_EQ(node.summary().served, 1u);
  ASSERT_EQ(node.latencies().size(), 1u);
  EXPECT_DOUBLE_EQ(node.latencies()[0].latency_ms, 4.0);
}

TEST(NodeTest, QueueCapacityBoundsAdmission) {
  NodeConfig cfg;
  cfg.queue_capacity = 2;
  const auto profiles = synthetic_profiles();
  Node node{0, cfg, profiles, 1};
  EXPECT_TRUE(node.enqueue(Request{0, 0, 0.0, 0}));
  EXPECT_TRUE(node.enqueue(Request{1, 0, 0.0, 0}));
  EXPECT_FALSE(node.enqueue(Request{2, 0, 0.0, 0}));  // full
  EXPECT_FALSE(node.view().admitting);
}

TEST(NodeTest, DeratesAndWarnsWhenHot) {
  NodeConfig cfg;
  cfg.service_jitter = 0.0;
  cfg.ambient_c = 84.0;  // one epoch of load crosses the 85 C threshold
  cfg.tau_ms = 1.0;      // fast thermal response for a short test
  const auto profiles = synthetic_profiles();
  Node node{0, cfg, profiles, 1};
  for (std::uint64_t i = 0; i < 20; ++i) {
    (void)node.enqueue(Request{i, 0, 0.0, 0});  // pagerank-q: 50 C steady rise
  }
  NodeSummary cold = node.summary();
  EXPECT_EQ(cold.warnings, 0u);
  for (int e = 0; e < 10; ++e) node.step(e * 5.0, 5.0);
  const NodeSummary s = node.summary();
  EXPECT_GT(s.warnings, 0u);          // hot epochs tallied
  EXPECT_GT(s.peak_c, 85.0);          // crossed the derate threshold
  EXPECT_GT(node.view().warning_rate, 0.0);
  // Derated service: 10 epochs x 5 ms at derate 0.5 serves at most
  // 50 ms / (3 ms / 0.5) + 1-in-flight ~ 9 of the 20 requests.
  EXPECT_LT(s.served, 12u);
}

std::vector<NodeView> uniform_views(std::size_t n) {
  std::vector<NodeView> views(n);
  for (std::size_t i = 0; i < n; ++i) {
    views[i].index = i;
    views[i].queue_len = 3;
    views[i].queue_capacity = 16;
    views[i].temp_c = 50.0;
    views[i].admitting = true;
  }
  return views;
}

TEST(BalancerTest, RoundRobinRotatesAndSkipsNonAdmitting) {
  auto views = uniform_views(3);
  auto rr = make_balancer("round-robin", {});
  const Request req{};
  EXPECT_EQ(rr->pick(views, req), 0u);
  EXPECT_EQ(rr->pick(views, req), 1u);
  EXPECT_EQ(rr->pick(views, req), 2u);
  EXPECT_EQ(rr->pick(views, req), 0u);
  views[1].admitting = false;
  EXPECT_EQ(rr->pick(views, req), 2u);  // cursor at 1: skips to 2
  for (auto& v : views) v.admitting = false;
  EXPECT_EQ(rr->pick(views, req), kDefer);
}

TEST(BalancerTest, JoinShortestQueueBreaksTiesTowardLowestIndex) {
  auto views = uniform_views(4);
  auto jsq = make_balancer("join-shortest-queue", {});
  const Request req{};
  EXPECT_EQ(jsq->pick(views, req), 0u);  // all equal: lowest index
  views[2].queue_len = 1;
  EXPECT_EQ(jsq->pick(views, req), 2u);
  views[0].queue_len = 1;
  EXPECT_EQ(jsq->pick(views, req), 0u);  // tie at 1: back to lowest index
}

TEST(BalancerTest, ThermalAwarePenalizesHotAndWarnedNodes) {
  auto views = uniform_views(3);
  BalancerConfig cfg;  // ref 80 C, 4 slots/degC, 8 slots/(warning/epoch)
  auto ta = make_balancer("thermal-aware", cfg);
  const Request req{};
  EXPECT_EQ(ta->pick(views, req), 0u);  // all equal: lowest index
  views[0].temp_c = 88.0;               // +32 slots: worst node despite tie
  EXPECT_EQ(ta->pick(views, req), 1u);
  views[1].warning_rate = 0.5;          // +4 slots
  views[1].queue_len = 2;               // still 6 < node 2's 3 slots? no: 2+4=6 > 3
  EXPECT_EQ(ta->pick(views, req), 2u);
  views[2].admitting = false;
  EXPECT_EQ(ta->pick(views, req), 1u);  // best admitting node wins
}

TEST(BalancerTest, RegistryVocabulary) {
  EXPECT_TRUE(balancer_known("round-robin"));
  EXPECT_TRUE(balancer_known("join-shortest-queue"));
  EXPECT_TRUE(balancer_known("thermal-aware"));
  EXPECT_FALSE(balancer_known("coin-flip"));
  EXPECT_THROW((void)make_balancer("coin-flip", {}), ConfigError);
  for (const char* name : {"round-robin", "join-shortest-queue", "thermal-aware"}) {
    EXPECT_NE(balancer_names().find(name), std::string::npos);
    EXPECT_EQ(make_balancer(name, {})->name(), name);
  }
}

FleetConfig small_fleet() {
  FleetConfig cfg;
  cfg.nodes = 3;
  cfg.arrival_rate_per_s = 2000.0;
  cfg.duration_ms = 120.0;
  cfg.seed = 99;
  return cfg;
}

TEST(FleetTest, ConservationInvariant) {
  for (const char* balancer : {"round-robin", "join-shortest-queue", "thermal-aware"}) {
    FleetConfig cfg = small_fleet();
    cfg.balancer = balancer;
    const FleetResult r = run_fleet(cfg);
    EXPECT_GT(r.arrived, 0u) << balancer;
    EXPECT_GT(r.served, 0u) << balancer;
    EXPECT_EQ(r.arrived, r.served + r.shed + r.in_flight)
        << balancer << ": arrived must equal served + shed + in-flight";
    EXPECT_LE(r.p50_latency_ms, r.p99_latency_ms) << balancer;
    EXPECT_LE(r.p99_latency_ms, r.max_latency_ms) << balancer;
    EXPECT_GE(r.p50_latency_ms, 0.0) << balancer;
    ASSERT_EQ(r.nodes.size(), cfg.nodes) << balancer;
  }
}

TEST(FleetTest, OverloadShedsThroughAdmissionControl) {
  FleetConfig cfg = small_fleet();
  cfg.node.queue_capacity = 2;
  cfg.arrival_rate_per_s = 20000.0;  // far past 3 nodes' service capacity
  cfg.max_defer_epochs = 2;
  const FleetResult r = run_fleet(cfg);
  EXPECT_GT(r.shed, 0u);
  EXPECT_GT(r.deferrals, 0u);
  EXPECT_EQ(r.arrived, r.served + r.shed + r.in_flight);
}

TEST(FleetTest, JobsOneAndEightAreBitIdentical) {
  FleetConfig cfg = small_fleet();
  cfg.nodes = 5;
  cfg.jobs = 1;
  const FleetResult one = run_fleet(cfg);
  cfg.jobs = 8;
  const FleetResult eight = run_fleet(cfg);
  EXPECT_EQ(one.node_summary_csv(), eight.node_summary_csv());
  EXPECT_EQ(one.arrived, eight.arrived);
  EXPECT_EQ(one.served, eight.served);
  EXPECT_EQ(one.shed, eight.shed);
  EXPECT_EQ(one.deferrals, eight.deferrals);
  EXPECT_EQ(one.p50_latency_ms, eight.p50_latency_ms);
  EXPECT_EQ(one.p99_latency_ms, eight.p99_latency_ms);
  EXPECT_EQ(one.max_node_peak_c, eight.max_node_peak_c);
}

/// Grid-fidelity fleet: 2 dies runs the explicit kernel, 16 or more the ADI
/// kernel (GridThermalConfig::adi()).
FleetConfig grid_fleet(std::size_t dram_dies = 2) {
  FleetConfig cfg = small_fleet();
  cfg.thermal = ThermalFidelity::kGrid;
  cfg.grid.dram_dies = dram_dies;
  // Smallest grid that still resolves the HBM floorplan's 8x4 vaults.
  cfg.grid.grid_nx = 8;
  cfg.grid.grid_ny = 4;
  cfg.duration_ms = 60.0;
  return cfg;
}

TEST(FleetTest, GridFidelityServesAndHeatsAboveAmbient) {
  const FleetConfig cfg = grid_fleet();
  const FleetResult r = run_fleet(cfg);
  EXPECT_GT(r.arrived, 0u);
  EXPECT_GT(r.served, 0u);
  EXPECT_EQ(r.arrived, r.served + r.shed + r.in_flight);
  // Loaded nodes must heat above their idle ambient through the stack grid.
  EXPECT_GT(r.max_node_peak_c, cfg.node.ambient_c);
  for (const NodeSummary& n : r.nodes) EXPECT_GE(n.final_c, cfg.node.ambient_c - 1e-9);
}

std::string read_golden(const std::string& name) {
  std::ifstream in{std::string{COOLPIM_GOLDEN_DIR} + "/" + name};
  EXPECT_TRUE(in.is_open()) << "tests/golden/" << name << " missing";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(FleetTest, GridFidelityMatchesGoldens) {
  // Full-precision node summaries for both kernels, byte for byte: any
  // change to what grid fidelity computes shows up here.
  for (const std::size_t dies : {std::size_t{2}, std::size_t{16}}) {
    const std::string name = "fleet_grid_" + std::to_string(dies) + "die.csv";
    EXPECT_EQ(run_fleet(grid_fleet(dies)).node_summary_csv(), read_golden(name)) << name;
  }
}

TEST(FleetTest, GridFidelityBitIdenticalAcrossJobsAndKernels) {
  for (const std::size_t dies : {std::size_t{2}, std::size_t{16}}) {
    FleetConfig cfg = grid_fleet(dies);
    cfg.nodes = 5;
    cfg.rack_ambient_spread_c = 4.0;
    cfg.jobs = 1;
    const FleetResult one = run_fleet(cfg);
    cfg.jobs = 8;
    const FleetResult eight = run_fleet(cfg);
    EXPECT_EQ(one.node_summary_csv(), eight.node_summary_csv()) << dies << " dies";
    EXPECT_EQ(one.arrived, eight.arrived) << dies << " dies";
    EXPECT_EQ(one.max_node_peak_c, eight.max_node_peak_c) << dies << " dies";
  }
}

TEST(FleetTest, GridFidelityRackGradientOrdersIdleNodeTemps) {
  FleetConfig cfg = grid_fleet();
  cfg.nodes = 4;
  cfg.rack_ambient_spread_c = 6.0;
  cfg.arrival_rate_per_s = 1.0;  // essentially idle: ambient dominates
  const FleetResult r = run_fleet(cfg);
  for (std::size_t i = 1; i < r.nodes.size(); ++i) {
    EXPECT_GE(r.nodes[i].final_c, r.nodes[i - 1].final_c - 1e-9)
        << "rack gradient must order idle lane temperatures";
  }
}

TEST(FleetTest, GridFidelityKeyGatedOnMode) {
  const FleetConfig base = small_fleet();
  // Under kRc the grid sub-config must be inert: pre-existing keys depend
  // only on the fields that existed before grid fidelity did.
  FleetConfig rc_tweaked = base;
  rc_tweaked.grid.watts_per_c *= 2.0;
  rc_tweaked.grid.dram_dies = 16;
  EXPECT_EQ(fleet_key(base), fleet_key(rc_tweaked));
  // Turning the mode on -- and then any grid field -- changes the key.
  FleetConfig grid_on = base;
  grid_on.thermal = ThermalFidelity::kGrid;
  EXPECT_NE(fleet_key(base), fleet_key(grid_on));
  FleetConfig grid_tweaked = grid_on;
  grid_tweaked.grid.grid_nx = 6;
  EXPECT_NE(fleet_key(grid_on), fleet_key(grid_tweaked));
}

TEST(FleetTest, GridFidelityValidation) {
  {
    FleetConfig cfg = grid_fleet();
    cfg.grid.watts_per_c = 0.0;
    EXPECT_THROW((void)run_fleet(cfg), ConfigError);
  }
  {
    FleetConfig cfg = grid_fleet();
    cfg.grid.dram_dies = 0;
    EXPECT_THROW((void)run_fleet(cfg), ConfigError);
  }
  {
    FleetConfig cfg = grid_fleet();
    cfg.grid.heat_capacity_scale = -1.0;
    EXPECT_THROW((void)run_fleet(cfg), ConfigError);
  }
  {
    // The same bad fields are ignored under kRc -- the mode gates them.
    FleetConfig cfg = grid_fleet();
    cfg.thermal = ThermalFidelity::kRc;
    cfg.grid.watts_per_c = 0.0;
    EXPECT_NO_THROW((void)run_fleet(cfg));
  }
}

TEST(FleetTest, GridFidelityObserverCountsOneStepPerNodeEpoch) {
  FleetConfig cfg = grid_fleet();
  obs::RunObserver observer;
  cfg.observer = &observer;
  const FleetResult r = run_fleet(cfg);
  EXPECT_GT(r.served, 0u);
  const auto epochs = static_cast<std::uint64_t>(cfg.duration_ms / cfg.epoch_ms);
  EXPECT_EQ(observer.counters.counter_value(obs::names::kThermalSteps), cfg.nodes * epochs);
}

TEST(FleetTest, ObserverDoesNotPerturbResults) {
  FleetConfig cfg = small_fleet();
  const std::string bare = run_fleet(cfg).node_summary_csv();
  obs::RunObserver observer;
  cfg.observer = &observer;
  cfg.counter_mark_every = 10;
  const FleetResult observed = run_fleet(cfg);
  EXPECT_EQ(bare, observed.node_summary_csv());
  // And the counters agree with the result totals.
  const auto& c = observer.counters;
  EXPECT_EQ(c.counter_value(obs::names::kFleetRequestsArrived), observed.arrived);
  EXPECT_EQ(c.counter_value(obs::names::kFleetRequestsServed), observed.served);
  EXPECT_EQ(c.counter_value(obs::names::kFleetRequestsShed), observed.shed);
  EXPECT_EQ(c.counter_value(obs::names::kFleetRequestsDeferred), observed.deferrals);
  EXPECT_EQ(c.counter_value(obs::names::kFleetNodeWarnings), observed.total_warnings);
  EXPECT_FALSE(observer.counters.marks().empty());
}

TEST(FleetTest, KeyExcludesJobsAndObserverIncludesSeedAndBalancer) {
  FleetConfig a = small_fleet();
  FleetConfig b = a;
  b.jobs = 8;
  b.counter_mark_every = 5;
  obs::RunObserver observer;
  b.observer = &observer;
  EXPECT_EQ(fleet_key(a), fleet_key(b));
  b = a;
  b.seed = 100;
  EXPECT_NE(fleet_key(a), fleet_key(b));
  b = a;
  b.balancer = "round-robin";
  EXPECT_NE(fleet_key(a), fleet_key(b));
  b = a;
  b.rack_ambient_spread_c = 5.0;
  EXPECT_NE(fleet_key(a), fleet_key(b));
}

TEST(FleetTest, ValidationRejectsBadConfigs) {
  {
    FleetConfig cfg = small_fleet();
    cfg.balancer = "coin-flip";
    EXPECT_THROW((void)run_fleet(cfg), ConfigError);
  }
  {
    FleetConfig cfg = small_fleet();
    cfg.profiles.clear();
    EXPECT_THROW((void)run_fleet(cfg), ConfigError);
  }
  {
    FleetConfig cfg = small_fleet();
    cfg.epoch_ms = cfg.duration_ms * 2;
    EXPECT_THROW((void)run_fleet(cfg), ConfigError);
  }
  {
    FleetConfig cfg = small_fleet();
    cfg.mix = {1.0};  // wrong arity vs 4 profiles
    EXPECT_THROW((void)run_fleet(cfg), ConfigError);
  }
}

TEST(FleetTest, RackGradientMakesThermalAwareAvoidTheHotEnd) {
  FleetConfig cfg = small_fleet();
  cfg.nodes = 4;
  cfg.rack_ambient_spread_c = 28.0;  // hot-end node idles at 63 C
  cfg.duration_ms = 300.0;
  // ~0.625 utilization per node under even placement: enough to push the
  // hot-end node past the 80 C routing reference, far from saturating the
  // cool nodes -- the regime where placement, not capacity, decides temps.
  cfg.arrival_rate_per_s = 1000.0;
  cfg.balancer = "round-robin";
  const FleetResult rr = run_fleet(cfg);
  cfg.balancer = "thermal-aware";
  const FleetResult ta = run_fleet(cfg);
  // Thermal-aware sends the hot-end node less work than oblivious placement.
  EXPECT_LT(ta.nodes.back().served, rr.nodes.back().served);
  EXPECT_LE(ta.max_node_peak_c, rr.max_node_peak_c);
}

// ---- Docs sync: docs/FLEET.md vs the fleet knob/counter vocabulary ----------

std::string read_fleet_doc() {
  std::ifstream doc{std::string{COOLPIM_DOCS_DIR} + "/FLEET.md"};
  EXPECT_TRUE(doc.is_open()) << "docs/FLEET.md missing";
  std::ostringstream ss;
  ss << doc.rdbuf();
  return ss.str();
}

TEST(FleetDocsSyncTest, KnobTableCoversTheFleetRunConfigVocabulary) {
  const std::string doc = read_fleet_doc();
  for (const char* token :
       {"--fleet-nodes", "--arrival-rate", "--balancer", "COOLPIM_FLEET_NODES",
        "COOLPIM_ARRIVAL_RATE", "COOLPIM_BALANCER", "--duration-ms", "--rack-spread-c",
        "--queue-cap", "--synthetic", "--arrival-trace", "--mark-every"}) {
    EXPECT_NE(doc.find("`" + std::string{token} + "`"), std::string::npos)
        << token << " not documented in docs/FLEET.md";
  }
}

TEST(FleetDocsSyncTest, EveryRegisteredBalancerIsDocumented) {
  const std::string doc = read_fleet_doc();
  for (const char* name : {"round-robin", "join-shortest-queue", "thermal-aware"}) {
    EXPECT_NE(doc.find("`" + std::string{name} + "`"), std::string::npos)
        << "balancer " << name << " not documented in docs/FLEET.md";
  }
}

TEST(FleetDocsSyncTest, EveryFleetCounterAndGaugeIsDocumented) {
  const std::string doc = read_fleet_doc();
  for (const auto name : obs::names::kAllCounters) {
    if (name.substr(0, 6) != "fleet/") continue;
    EXPECT_NE(doc.find("`" + std::string{name} + "`"), std::string::npos)
        << name << " not documented in docs/FLEET.md";
  }
  for (const auto name : obs::names::kAllGauges) {
    if (name.substr(0, 6) != "fleet/") continue;
    EXPECT_NE(doc.find("`" + std::string{name} + "`"), std::string::npos)
        << name << " not documented in docs/FLEET.md";
  }
}

}  // namespace
}  // namespace coolpim::fleet
