// Exported counter/gauge/category name constants -- the single source of
// truth for the observability namespace.
//
// Every name the simulator emits through obs::CounterRegistry or obs::Trace
// is declared here, so emission sites, benches and tests share one vocabulary
// instead of hard-coding strings.  The catalogue arrays at the bottom are
// pinned against docs/OBSERVABILITY.md by a DocsHeaderColumnSync-style test
// (tests/test_obs.cpp): adding a name here without documenting it -- or
// documenting a name that no longer exists -- fails the build's test suite.
//
// Naming scheme: slash-separated paths whose first segment is the owning
// subsystem (the same vocabulary the trace `cat` field uses).
#pragma once

#include <string_view>

namespace coolpim::obs::names {

// ---- Trace categories (one per instrumented subsystem) ---------------------
inline constexpr std::string_view kCatSim = "sim";
inline constexpr std::string_view kCatThermal = "thermal";
inline constexpr std::string_view kCatCore = "core";
inline constexpr std::string_view kCatHmc = "hmc";
inline constexpr std::string_view kCatGpu = "gpu";
inline constexpr std::string_view kCatSys = "sys";
inline constexpr std::string_view kCatRunner = "runner";
inline constexpr std::string_view kCatFault = "fault";
inline constexpr std::string_view kCatControl = "control";
inline constexpr std::string_view kCatFleet = "fleet";
inline constexpr std::string_view kCatPim = "pim";

// ---- Counters (monotonic event tallies) ------------------------------------
// sim
inline constexpr std::string_view kSimEventsDispatched = "sim/events_dispatched";
// sys
inline constexpr std::string_view kSysEpochs = "sys/epochs";
inline constexpr std::string_view kSysShutdowns = "sys/shutdowns";
inline constexpr std::string_view kSysThermalWarningsDelivered =
    "sys/thermal_warnings_delivered";
// hmc
inline constexpr std::string_view kHmcRequests = "hmc/requests";
inline constexpr std::string_view kHmcReqFlits = "hmc/req_flits";
inline constexpr std::string_view kHmcRespFlits = "hmc/resp_flits";
inline constexpr std::string_view kHmcPayloadBytes = "hmc/payload_bytes";
inline constexpr std::string_view kHmcThermalWarnings = "hmc/thermal_warnings";
inline constexpr std::string_view kHmcServedReads = "hmc/served_reads";
inline constexpr std::string_view kHmcServedWrites = "hmc/served_writes";
inline constexpr std::string_view kHmcServedPimOps = "hmc/served_pim_ops";
// gpu
inline constexpr std::string_view kGpuKernelLaunches = "gpu/kernel_launches";
inline constexpr std::string_view kGpuBlocksRetired = "gpu/blocks_retired";
inline constexpr std::string_view kGpuPimOps = "gpu/pim_ops";
inline constexpr std::string_view kGpuHostAtomics = "gpu/host_atomics";
// thermal
inline constexpr std::string_view kThermalSteadySolves = "thermal/steady_solves";
inline constexpr std::string_view kThermalSteadyIterations = "thermal/steady_iterations";
inline constexpr std::string_view kThermalSteps = "thermal/steps";
inline constexpr std::string_view kThermalWarningCrossings = "thermal/warning_crossings";
// graph (workload profiling)
inline constexpr std::string_view kGraphProfileCacheHits = "graph/profile_cache_hits";
inline constexpr std::string_view kGraphProfileCacheMisses = "graph/profile_cache_misses";
inline constexpr std::string_view kGraphProfilesComputed = "graph/profiles_computed";
// fault (injection layer; only emitted when the fault layer is enabled)
inline constexpr std::string_view kFaultWarningsOffered = "fault/warnings_offered";
inline constexpr std::string_view kFaultWarningsDropped = "fault/warnings_dropped";
inline constexpr std::string_view kFaultWarningsCorrupted = "fault/warnings_corrupted";
inline constexpr std::string_view kFaultWarningsDelayed = "fault/warnings_delayed";
inline constexpr std::string_view kFaultWarningsLostOutage = "fault/warnings_lost_outage";
inline constexpr std::string_view kFaultRetries = "fault/retries";
inline constexpr std::string_view kFaultRetryGiveups = "fault/retry_giveups";
inline constexpr std::string_view kFaultSpuriousWarnings = "fault/spurious_warnings";
inline constexpr std::string_view kFaultLinkOutages = "fault/link_outages";
inline constexpr std::string_view kFaultSensorStuckEpochs = "fault/sensor_stuck_epochs";
inline constexpr std::string_view kFaultWatchdogEngagements = "fault/watchdog_engagements";
inline constexpr std::string_view kFaultWatchdogDisengagements =
    "fault/watchdog_disengagements";
// control (policy zoo; emitted by predictive policies)
inline constexpr std::string_view kControlLevelChanges = "control/level_changes";
inline constexpr std::string_view kControlMpcRollouts = "control/mpc_rollouts";
inline constexpr std::string_view kControlTableClamps = "control/table_clamps";
// fleet (multi-node tier; emitted by fleet::run_fleet)
inline constexpr std::string_view kFleetRequestsArrived = "fleet/requests_arrived";
inline constexpr std::string_view kFleetRequestsServed = "fleet/requests_served";
inline constexpr std::string_view kFleetRequestsShed = "fleet/requests_shed";
inline constexpr std::string_view kFleetRequestsDeferred = "fleet/requests_deferred";
inline constexpr std::string_view kFleetNodeWarnings = "fleet/node_warnings";
// pim (instruction-level vault backend; emitted under --hmc-backend pim-vault)
inline constexpr std::string_view kPimProgramExecutions = "pim/program_executions";
inline constexpr std::string_view kPimCrfInstructions = "pim/crf_instructions";
inline constexpr std::string_view kPimBankConflicts = "pim/bank_conflicts";

// ---- Gauges (sampled instantaneous values) ---------------------------------
inline constexpr std::string_view kGpuPimFraction = "gpu/pim_fraction";
inline constexpr std::string_view kThermalPeakDramC = "thermal/peak_dram_c";
inline constexpr std::string_view kThermalPeakLogicC = "thermal/peak_logic_c";
inline constexpr std::string_view kSysPimRateGops = "sys/pim_rate_gops";
inline constexpr std::string_view kSysLinkDataGbps = "sys/link_data_gbps";
inline constexpr std::string_view kControlThrottleLevel = "control/throttle_level";
inline constexpr std::string_view kFleetP50LatencyMs = "fleet/p50_latency_ms";
inline constexpr std::string_view kFleetP99LatencyMs = "fleet/p99_latency_ms";
inline constexpr std::string_view kFleetMaxNodePeakC = "fleet/max_node_peak_c";
inline constexpr std::string_view kFleetAggOpPerNs = "fleet/agg_op_per_ns";

// ---- Catalogues (docs-sync anchors) ----------------------------------------
inline constexpr std::string_view kAllCategories[] = {
    kCatSim, kCatThermal, kCatCore, kCatHmc, kCatGpu, kCatSys, kCatRunner, kCatFault,
    kCatControl, kCatFleet, kCatPim,
};

inline constexpr std::string_view kAllCounters[] = {
    kSimEventsDispatched,
    kSysEpochs,
    kSysShutdowns,
    kSysThermalWarningsDelivered,
    kHmcRequests,
    kHmcReqFlits,
    kHmcRespFlits,
    kHmcPayloadBytes,
    kHmcThermalWarnings,
    kHmcServedReads,
    kHmcServedWrites,
    kHmcServedPimOps,
    kGpuKernelLaunches,
    kGpuBlocksRetired,
    kGpuPimOps,
    kGpuHostAtomics,
    kThermalSteadySolves,
    kThermalSteadyIterations,
    kThermalSteps,
    kThermalWarningCrossings,
    kGraphProfileCacheHits,
    kGraphProfileCacheMisses,
    kGraphProfilesComputed,
    kFaultWarningsOffered,
    kFaultWarningsDropped,
    kFaultWarningsCorrupted,
    kFaultWarningsDelayed,
    kFaultWarningsLostOutage,
    kFaultRetries,
    kFaultRetryGiveups,
    kFaultSpuriousWarnings,
    kFaultLinkOutages,
    kFaultSensorStuckEpochs,
    kFaultWatchdogEngagements,
    kFaultWatchdogDisengagements,
    kControlLevelChanges,
    kControlMpcRollouts,
    kControlTableClamps,
    kFleetRequestsArrived,
    kFleetRequestsServed,
    kFleetRequestsShed,
    kFleetRequestsDeferred,
    kFleetNodeWarnings,
    kPimProgramExecutions,
    kPimCrfInstructions,
    kPimBankConflicts,
};

inline constexpr std::string_view kAllGauges[] = {
    kGpuPimFraction,    kThermalPeakDramC,  kThermalPeakLogicC, kSysPimRateGops,
    kSysLinkDataGbps,   kControlThrottleLevel, kFleetP50LatencyMs, kFleetP99LatencyMs,
    kFleetMaxNodePeakC, kFleetAggOpPerNs,
};

}  // namespace coolpim::obs::names
