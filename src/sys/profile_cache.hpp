// Persistent, content-addressed cache of workload profiles.
//
// Profiling the full GraphBIG matrix is the dominant startup cost of every
// bench and app invocation, and the profiles are a pure function of
// (scale, graph seed, workload list, profile format).  This module
// serializes a WorkloadSet's profiles to one binary file per identity hash
// so repeated invocations skip the functional kernels entirely.  Opt-in:
// WorkloadSet consults it only when COOLPIM_PROFILE_CACHE=<dir> is set (or a
// cache dir is passed explicitly).
//
// Safety over speed: the file carries its format version and identity key,
// an FNV-1a hash of the entire payload as a trailer, and the graph
// dimensions each profile was captured on.  Any mismatch -- truncation, bit
// rot, a stale entry from an older format, a key collision -- makes
// load_profiles() return false and the caller recomputes (then rewrites the
// entry).  A cache can never change results, only skip work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/profile.hpp"

namespace coolpim::sys {

/// Bump whenever WorkloadProfile/IterationProfile fields or the kernel cost
/// accounting change meaning; old cache entries then miss instead of
/// resurrecting stale numbers.
inline constexpr std::uint32_t kProfileFormatVersion = 1;

/// Identity hash of a WorkloadSet's profile contents: FNV-1a over
/// (format version, scale, seed, extended-workloads flag).
[[nodiscard]] std::uint64_t profile_cache_key(unsigned scale, std::uint64_t seed,
                                              bool include_extended);

/// File the entry for `key` lives in under `dir`.
[[nodiscard]] std::string profile_cache_file(const std::string& dir, std::uint64_t key);

/// Serialize `profiles` for `key` into `dir` (created if missing).  Writes to
/// a temp file and renames, so readers never observe a half-written entry.
/// Returns false (without throwing) if the directory or file cannot be
/// written -- an unusable cache must not fail the run.
bool save_profiles(const std::string& dir, std::uint64_t key,
                   const std::vector<graph::WorkloadProfile>& profiles);

/// Load the entry for `key` from `dir` into `out`.  Returns false on any
/// integrity failure (missing file, bad magic/version/key, payload hash
/// mismatch, truncation, a profile or iteration count the payload is too
/// short to hold); `out` is left empty in that case.  Counts are checked
/// against the payload before anything is sized by them, so a bad entry
/// allocates no more than a few times its file's size.
bool load_profiles(const std::string& dir, std::uint64_t key,
                   std::vector<graph::WorkloadProfile>& out);

}  // namespace coolpim::sys
