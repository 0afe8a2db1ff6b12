// Tests for sys::RunConfig: the unified COOLPIM_* / --flag run configuration
// with precedence CLI > environment > default, argv stripping, validation,
// and the SystemConfig / WorkloadSet hand-offs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sys/run_config.hpp"
#include "sys/system.hpp"

namespace coolpim::sys {
namespace {

/// Mutable argv for from_args tests; keeps the strings alive.
struct Args {
  explicit Args(std::vector<std::string> words) : strings{std::move(words)} {
    strings.insert(strings.begin(), "prog");
    for (auto& s : strings) argv.push_back(s.data());
    argv.push_back(nullptr);
    argc = static_cast<int>(strings.size());
  }
  std::vector<std::string> strings;
  std::vector<char*> argv;
  int argc{0};

  [[nodiscard]] std::vector<std::string> remaining() const {
    std::vector<std::string> out;
    for (int i = 1; i < argc; ++i) out.emplace_back(argv[i]);
    return out;
  }
};

/// Scoped environment variable; unset on destruction.
struct ScopedEnv {
  ScopedEnv(const char* name, const char* value) : name_{name} {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  const char* name_;
};

TEST(RunConfigTest, Defaults) {
  RunConfig rc;
  EXPECT_EQ(rc.jobs, 0u);
  EXPECT_EQ(rc.scale, 18u);
  EXPECT_EQ(rc.graph_seed, 1u);
  EXPECT_TRUE(rc.trace_path.empty());
  EXPECT_FALSE(rc.fault.enabled());
  rc.validate();
}

TEST(RunConfigTest, FromEnvOverlaysOntoBase) {
  ScopedEnv scale{"COOLPIM_SCALE", "12"};
  ScopedEnv jobs{"COOLPIM_JOBS", "3"};
  ScopedEnv drop{"COOLPIM_FAULT_DROP", "0.25"};
  RunConfig base;
  base.graph_seed = 7;  // not in the environment: survives the overlay
  const RunConfig rc = RunConfig::from_env(base);
  EXPECT_EQ(rc.scale, 12u);
  EXPECT_EQ(rc.jobs, 3u);
  EXPECT_EQ(rc.graph_seed, 7u);
  EXPECT_DOUBLE_EQ(rc.fault.warning_drop_rate, 0.25);
  EXPECT_TRUE(rc.fault.enabled());
}

TEST(RunConfigTest, FromArgsConsumesOnlyRecognizedFlags) {
  Args args{{"--workload", "dc", "--scale", "10", "--fault-noise-c", "0.5",
             "--timeline"}};
  const RunConfig rc = RunConfig::from_args(&args.argc, args.argv.data());
  EXPECT_EQ(rc.scale, 10u);
  EXPECT_DOUBLE_EQ(rc.fault.sensor_noise_sigma_c, 0.5);
  // App-specific flags pass through in order; argv stays null-terminated.
  EXPECT_EQ(args.remaining(),
            (std::vector<std::string>{"--workload", "dc", "--timeline"}));
  EXPECT_EQ(args.argv[args.argc], nullptr);
}

TEST(RunConfigTest, FlagEqualsValueForm) {
  Args args{{"--scale=9", "--fault-drop=0.75", "--trace=/tmp/t.json"}};
  const RunConfig rc = RunConfig::from_args(&args.argc, args.argv.data());
  EXPECT_EQ(rc.scale, 9u);
  EXPECT_DOUBLE_EQ(rc.fault.warning_drop_rate, 0.75);
  EXPECT_EQ(rc.trace_path, "/tmp/t.json");
  EXPECT_TRUE(args.remaining().empty());
}

TEST(RunConfigTest, CliWinsOverEnvironment) {
  ScopedEnv scale{"COOLPIM_SCALE", "12"};
  ScopedEnv seed{"COOLPIM_GRAPH_SEED", "5"};
  Args args{{"--scale", "16"}};
  const RunConfig rc = RunConfig::resolve(&args.argc, args.argv.data());
  EXPECT_EQ(rc.scale, 16u);     // CLI over env
  EXPECT_EQ(rc.graph_seed, 5u);  // env over default
}

TEST(RunConfigTest, MalformedValuesThrow) {
  {
    Args args{{"--scale", "abc"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    Args args{{"--fault-drop", "not-a-rate"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    Args args{{"--fault-watchdog", "maybe"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    Args args{{"--jobs", "-1"}};  // strtoull alone would wrap it to 2^64 - 1
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    Args args{{"--arrival-rate", "inf"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    Args args{{"--jobs"}};  // missing value
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
}

TEST(RunConfigTest, ValidationRejectsOutOfRange) {
  {
    Args args{{"--scale", "30"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    Args args{{"--fault-drop", "1.5"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  ScopedEnv scale{"COOLPIM_SCALE", "4"};
  EXPECT_THROW((void)RunConfig::from_env(), ConfigError);
}

TEST(RunConfigTest, BoolKnobs) {
  Args args{{"--fault-watchdog", "off", "--fault-enable", "1"}};
  const RunConfig rc = RunConfig::from_args(&args.argc, args.argv.data());
  EXPECT_FALSE(rc.fault.watchdog.enabled);
  EXPECT_TRUE(rc.fault.force_enable);
  EXPECT_TRUE(rc.fault.enabled());  // force_enable alone turns the layer on
}

TEST(RunConfigTest, ApplyToCopiesOnlyTheFaultEnvironment) {
  RunConfig rc;
  rc.scale = 10;  // not a SystemConfig field: must not leak anywhere
  rc.fault.warning_drop_rate = 0.5;
  SystemConfig cfg;
  const SystemConfig before = cfg;
  rc.apply_to(cfg);
  EXPECT_DOUBLE_EQ(cfg.fault.warning_drop_rate, 0.5);
  // Nothing but the fault environment is RunConfig's to set.
  EXPECT_EQ(cfg.scenario, before.scenario);
  EXPECT_EQ(cfg.epoch, before.epoch);
  EXPECT_EQ(cfg.warm_start, before.warm_start);
  EXPECT_EQ(cfg.run_seed, before.run_seed);
}

TEST(RunConfigTest, ApplyToIsNoOpWhenFaultFree) {
  RunConfig rc;
  SystemConfig cfg;
  const SystemConfig before = cfg;
  rc.apply_to(cfg);
  EXPECT_EQ(cfg.fault, before.fault);
  EXPECT_FALSE(cfg.fault.enabled());
}

TEST(RunConfigTest, BuildOptionsCarryJobsAndCacheDir) {
  RunConfig rc;
  rc.jobs = 4;
  rc.profile_cache_dir = "/tmp/cache";
  const auto opt = rc.build_options();
  EXPECT_EQ(opt.jobs, 4u);
  EXPECT_EQ(opt.cache_dir, "/tmp/cache");
}

TEST(RunConfigTest, FlagsHelpMentionsEveryFlag) {
  const std::string help = RunConfig::flags_help();
  for (const char* flag :
       {"--jobs", "--scale", "--graph-seed", "--trace", "--counters",
        "--profile-cache", "--policy", "--policy-table", "--fleet-nodes",
        "--arrival-rate", "--balancer", "--fault-drop", "--fault-corrupt",
        "--fault-spurious", "--fault-delay-us", "--fault-noise-c", "--fault-quant-c",
        "--fault-stuck", "--fault-outage", "--fault-watchdog", "--fault-enable",
        "--hmc-backend"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << flag << " missing from help";
  }
}

TEST(RunConfigTest, FleetKnobDefaults) {
  const RunConfig rc;
  EXPECT_EQ(rc.fleet_nodes, 8u);
  EXPECT_DOUBLE_EQ(rc.arrival_rate, 4000.0);
  EXPECT_EQ(rc.balancer, "thermal-aware");
}

TEST(RunConfigTest, FleetKnobsResolveFromCliAndEnvironment) {
  ScopedEnv nodes{"COOLPIM_FLEET_NODES", "16"};
  ScopedEnv balancer{"COOLPIM_BALANCER", "round-robin"};
  Args args{{"--arrival-rate", "2500.5", "--balancer", "join-shortest-queue"}};
  const RunConfig rc = RunConfig::resolve(&args.argc, args.argv.data());
  EXPECT_EQ(rc.fleet_nodes, 16u);                    // env over default
  EXPECT_DOUBLE_EQ(rc.arrival_rate, 2500.5);         // CLI over default
  EXPECT_EQ(rc.balancer, "join-shortest-queue");     // CLI over env
  EXPECT_TRUE(args.remaining().empty());
}

TEST(RunConfigTest, FleetKnobValidation) {
  {
    Args args{{"--fleet-nodes", "0"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    Args args{{"--fleet-nodes", "5000"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    Args args{{"--arrival-rate", "0"}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  {
    Args args{{"--balancer", ""}};
    EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
  }
  // The balancer *vocabulary* is validated by the fleet layer, not sys::
  // (layering: sys must not link fleet) -- any non-empty name passes here.
  Args args{{"--balancer", "not-yet-registered"}};
  const RunConfig rc = RunConfig::from_args(&args.argc, args.argv.data());
  EXPECT_EQ(rc.balancer, "not-yet-registered");
}

TEST(RunConfigTest, HmcBackendDefaultsToTheEpochTier) {
  const RunConfig rc;
  EXPECT_TRUE(rc.hmc_backend.empty());
  SystemConfig cfg;
  rc.apply_to(cfg);
  EXPECT_EQ(cfg.backend, hmc::BackendKind::kEpochThroughput);
}

TEST(RunConfigTest, HmcBackendResolvesFromCliAndEnvironment) {
  ScopedEnv env{"COOLPIM_HMC_BACKEND", "pim-vault"};
  {
    // Environment over default.
    const RunConfig rc = RunConfig::from_env();
    EXPECT_EQ(rc.hmc_backend, "pim-vault");
    SystemConfig cfg;
    rc.apply_to(cfg);
    EXPECT_EQ(cfg.backend, hmc::BackendKind::kPimVault);
  }
  // CLI over environment; both flag forms work.
  Args args{{"--hmc-backend", "epoch-throughput"}};
  const RunConfig rc = RunConfig::resolve(&args.argc, args.argv.data());
  EXPECT_EQ(rc.hmc_backend, "epoch-throughput");
  SystemConfig cfg;
  cfg.backend = hmc::BackendKind::kPimVault;
  rc.apply_to(cfg);
  EXPECT_EQ(cfg.backend, hmc::BackendKind::kEpochThroughput);
  EXPECT_TRUE(args.remaining().empty());

  Args eq{{"--hmc-backend=pim-vault"}};
  const RunConfig rc2 = RunConfig::from_args(&eq.argc, eq.argv.data());
  EXPECT_EQ(rc2.hmc_backend, "pim-vault");
}

TEST(RunConfigTest, HmcBackendUnknownNameFailsListingTheRegistry) {
  Args args{{"--hmc-backend", "warp-speed"}};
  try {
    (void)RunConfig::from_args(&args.argc, args.argv.data());
    FAIL() << "unknown backend name accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("warp-speed"), std::string::npos);
    // The message lists the registered vocabulary so the fix is obvious.
    for (const char* name : {"epoch-throughput", "pim-vault"}) {
      EXPECT_NE(what.find(name), std::string::npos) << name << " not in: " << what;
    }
  }
}

TEST(RunConfigTest, StackLayersKnobDefaults) {
  const RunConfig rc;
  EXPECT_EQ(rc.stack_layers, 0u);
}

TEST(RunConfigTest, StackLayersKnobResolvesFromCliAndEnvironment) {
  ScopedEnv layers{"COOLPIM_STACK_LAYERS", "4"};
  // Environment over defaults.
  EXPECT_EQ(RunConfig::from_env().stack_layers, 4u);
  // CLI over environment.
  Args args{{"--stack-layers=16", "keep-me"}};
  const RunConfig rc = RunConfig::resolve(&args.argc, args.argv.data());
  EXPECT_EQ(rc.stack_layers, 16u);
  EXPECT_EQ(args.remaining(), std::vector<std::string>{"keep-me"});
}

TEST(RunConfigTest, StackLayersKnobValidation) {
  Args args{{"--stack-layers", "65"}};
  EXPECT_THROW((void)RunConfig::from_args(&args.argc, args.argv.data()), ConfigError);
}

}  // namespace
}  // namespace coolpim::sys
