#include "common/build_info.h"

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/scan_kernels.h"

// The build system stamps the revision (CMake runs `git rev-parse` at
// configure time); a tarball build without git falls back to "unknown".
#ifndef SMARTDD_GIT_SHA
#define SMARTDD_GIT_SHA "unknown"
#endif
#ifndef SMARTDD_VERSION
#define SMARTDD_VERSION "0.9.0"
#endif

namespace smartdd {

BuildInfo GetBuildInfo() {
  BuildInfo info;
  info.version = SMARTDD_VERSION;
  info.git_sha = SMARTDD_GIT_SHA;
  info.kernel = KernelPathName(ResolveKernelPath());
  return info;
}

void RegisterBuildInfoMetric() {
  BuildInfo info = GetBuildInfo();
  MetricsRegistry::Default()
      .GetGauge(StrFormat("smartdd_build_info{version=\"%s\",git_sha=\"%s\","
                          "kernel=\"%s\"}",
                          info.version.c_str(), info.git_sha.c_str(),
                          info.kernel.c_str()),
                "Build identity of this process (value is always 1; the "
                "information is in the labels)")
      .Set(1);
}

std::string BuildInfoLine() {
  BuildInfo info = GetBuildInfo();
  return StrFormat("version=%s git_sha=%s kernel=%s", info.version.c_str(),
                   info.git_sha.c_str(), info.kernel.c_str());
}

}  // namespace smartdd
