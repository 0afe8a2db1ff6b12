// Golden regression test for the full scenario matrix: every workload under
// every scenario at scale 16, compared field-by-field against a checked-in
// CSV.  Any drift beyond 1e-9 (relative) in speedups, bandwidth consumption,
// or temperatures fails the test -- catching accidental model changes that
// the unit tests' coarse bounds would let through.  The matrix is pinned
// twice: on the default epoch-throughput backend (matrix_scale16.csv) and
// on the instruction-level pim-vault backend (matrix_pim_vault_scale16.csv),
// whose rows depend on every CRF execution the PIM replay performs.
//
// To regenerate after an *intentional* model change:
//   COOLPIM_GOLDEN_REGEN=1 ./build/tests/test_golden_matrix
// then review the diff of tests/golden/*.csv and commit it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "hmc/backend.hpp"
#include "runner/experiment.hpp"

namespace coolpim {
namespace {

constexpr unsigned kScale = 16;
constexpr unsigned kSeed = 1;  // matches bench::workloads()
constexpr double kRelTol = 1e-9;

struct GoldenRow {
  std::string workload;
  std::string scenario;
  std::int64_t exec_time_ps{0};
  double speedup{0.0};
  double norm_consumption{0.0};
  double peak_dram_temp_c{0.0};
  std::int64_t thermal_warnings{0};
};

std::vector<GoldenRow> compute_matrix(const sys::SystemConfig& base) {
  const sys::WorkloadSet set{kScale, kSeed};
  const std::vector<sys::Scenario> scenarios{std::begin(sys::kAllScenarios),
                                             std::end(sys::kAllScenarios)};
  const auto matrix = runner::run_matrix(set, sys::workload_names(), scenarios, base);

  std::vector<GoldenRow> rows;
  for (const auto& wl : matrix) {
    const auto& baseline = wl.runs.at(sys::Scenario::kNonOffloading);
    for (const auto s : scenarios) {
      const auto& r = wl.runs.at(s);
      GoldenRow row;
      row.workload = wl.workload;
      row.scenario = to_string(s);
      row.exec_time_ps = r.exec_time.as_ps();
      row.speedup = baseline.exec_time / r.exec_time;
      row.norm_consumption = r.consumption_bytes() / baseline.consumption_bytes();
      row.peak_dram_temp_c = r.peak_dram_temp.value();
      row.thermal_warnings = static_cast<std::int64_t>(r.thermal_warnings);
      rows.push_back(row);
    }
  }
  return rows;
}

void write_csv(const std::vector<GoldenRow>& rows, std::ostream& out) {
  out << "workload,scenario,exec_time_ps,speedup,norm_consumption,"
         "peak_dram_temp_c,thermal_warnings\n";
  out << std::setprecision(17);
  for (const auto& r : rows) {
    out << r.workload << ',' << r.scenario << ',' << r.exec_time_ps << ','
        << r.speedup << ',' << r.norm_consumption << ',' << r.peak_dram_temp_c
        << ',' << r.thermal_warnings << '\n';
  }
}

std::vector<GoldenRow> read_csv(std::istream& in) {
  std::vector<GoldenRow> rows;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls{line};
    GoldenRow r;
    std::string field;
    std::getline(ls, r.workload, ',');
    std::getline(ls, r.scenario, ',');
    std::getline(ls, field, ',');
    r.exec_time_ps = std::stoll(field);
    std::getline(ls, field, ',');
    r.speedup = std::stod(field);
    std::getline(ls, field, ',');
    r.norm_consumption = std::stod(field);
    std::getline(ls, field, ',');
    r.peak_dram_temp_c = std::stod(field);
    std::getline(ls, field, ',');
    r.thermal_warnings = std::stoll(field);
    rows.push_back(r);
  }
  return rows;
}

void expect_close(double expected, double actual, const char* what) {
  const double tol = kRelTol * std::max({1.0, std::fabs(expected), std::fabs(actual)});
  EXPECT_NEAR(actual, expected, tol) << what << " drifted beyond 1e-9 relative";
}

void expect_matches_golden(const std::vector<GoldenRow>& rows, const std::string& path) {
  if (std::getenv("COOLPIM_GOLDEN_REGEN")) {
    std::ofstream out{path};
    ASSERT_TRUE(out) << "cannot write " << path;
    write_csv(rows, out);
    GTEST_SKIP() << "regenerated " << path << " -- review and commit the diff";
  }

  std::ifstream in{path};
  ASSERT_TRUE(in) << "missing golden file " << path
                  << "; run with COOLPIM_GOLDEN_REGEN=1 to create it";
  const auto golden = read_csv(in);
  ASSERT_EQ(rows.size(), golden.size()) << "matrix shape changed";

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& g = golden[i];
    const auto& r = rows[i];
    SCOPED_TRACE(g.workload + " / " + g.scenario);
    EXPECT_EQ(r.workload, g.workload);
    EXPECT_EQ(r.scenario, g.scenario);
    EXPECT_EQ(r.exec_time_ps, g.exec_time_ps);
    expect_close(g.speedup, r.speedup, "speedup");
    expect_close(g.norm_consumption, r.norm_consumption, "bandwidth consumption");
    expect_close(g.peak_dram_temp_c, r.peak_dram_temp_c, "peak DRAM temperature");
    EXPECT_EQ(r.thermal_warnings, g.thermal_warnings);
  }
}

TEST(GoldenMatrix, Scale16MatchesCheckedInResults) {
  expect_matches_golden(compute_matrix({}), COOLPIM_GOLDEN_DIR "/matrix_scale16.csv");
}

TEST(GoldenMatrix, PimVaultScale16MatchesCheckedInResults) {
  sys::SystemConfig base;
  base.backend = hmc::BackendKind::kPimVault;
  expect_matches_golden(compute_matrix(base),
                        COOLPIM_GOLDEN_DIR "/matrix_pim_vault_scale16.csv");
}

}  // namespace
}  // namespace coolpim
