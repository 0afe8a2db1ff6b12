// Graph analytics with the instrumented GraphBIG-style workload library.
//
//   $ ./graph_analytics [rmat-scale] [seed]
//
// Runs the full analytics suite functionally on an LDBC-like graph and
// reports the per-workload instruction mix the GPU/PIM models consume --
// useful when adding a new workload to the suite.  The answers themselves
// are checked against independent oracles by test_workloads and
// test_extensions.
#include <array>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "graph/generator.hpp"
#include "graph/workloads.hpp"
#include "sys/run_config.hpp"

using namespace coolpim;
using namespace coolpim::graph;

int main(int argc, char** argv) {
  // COOLPIM_* environment over the example's defaults; positional args win.
  sys::RunConfig rc;
  rc.scale = 16;
  rc = sys::RunConfig::from_env(rc);
  const unsigned scale = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : rc.scale;
  const std::uint64_t seed =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : rc.graph_seed;

  const CsrGraph g = make_ldbc_like(scale, seed);
  const VertexId hub = g.max_degree_vertex();
  std::cout << "LDBC-like graph: " << g.num_vertices() << " vertices, " << g.num_edges()
            << " edges, max degree " << g.max_degree() << " (hub vertex " << hub << ")\n";

  // The BFS and SSSP variants each share one traversal from the hub.
  constexpr std::array kBfs{BfsVariant::kTopologyAtomic, BfsVariant::kDataWarpCentric,
                            BfsVariant::kTopologyThreadCentric,
                            BfsVariant::kTopologyWarpCentric};
  constexpr std::array kSssp{SsspVariant::kDataThreadCentric, SsspVariant::kDataWarpCentric,
                             SsspVariant::kTopologyWarpCentric};
  std::vector<WorkloadProfile> profiles{run_degree_centrality(g), run_kcore(g),
                                        run_pagerank(g)};
  for (auto& p : run_bfs(g, hub, kBfs)) profiles.push_back(std::move(p));
  for (auto& p : run_sssp(g, hub, kSssp)) profiles.push_back(std::move(p));

  Table t{"Workload suite: instruction mix"};
  t.header({"Workload", "Kernels", "Edges visited", "Atomics (PIM-able)", "PIM intensity",
            "Divergence"});
  for (const auto& p : profiles) {
    t.row({p.name, std::to_string(p.iterations.size()), std::to_string(p.total_edges()),
           std::to_string(p.total_atomics()), Table::num(p.pim_intensity(), 3),
           Table::num(p.divergence_ratio(), 2)});
  }
  t.print(std::cout);
  return 0;
}
