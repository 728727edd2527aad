#ifndef SMARTDD_COMMON_BUILD_INFO_H_
#define SMARTDD_COMMON_BUILD_INFO_H_

#include <string>

namespace smartdd {

/// Identity of this binary, for telling cluster members apart in a mixed
/// deployment: the library version, the git revision it was built from, and
/// the scan-kernel path the process resolved at startup (scalar, avx2 or
/// avx512 — the one knob that legitimately differs between otherwise
/// identical builds on heterogeneous hosts).
struct BuildInfo {
  std::string version;
  std::string git_sha;
  std::string kernel;
};

/// The process's build identity. `kernel` reflects the auto-resolved kernel
/// path at call time (SMARTDD_KERNEL + CPU detection).
BuildInfo GetBuildInfo();

/// Registers the `smartdd_build_info` gauge (constant 1, identity in the
/// labels — the standard Prometheus build-info idiom) so /metrics exposes
/// which build each cluster member runs. Idempotent.
void RegisterBuildInfoMetric();

/// One-line "version=<v> git_sha=<sha> kernel=<k>" rendering (cluster
/// handshakes, startup banners).
std::string BuildInfoLine();

}  // namespace smartdd

#endif  // SMARTDD_COMMON_BUILD_INFO_H_
