#ifndef SMARTDD_COMMON_FAULT_INJECTION_H_
#define SMARTDD_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace smartdd {

/// Registry of named fault points for chaos testing the request path.
///
/// Call sites declare a point by name and consult it on every pass through
/// (see InjectFault below); the registry decides whether that pass fires a
/// fault. Three fault kinds exist:
///
///   - error:      the point returns an injected non-OK Status
///   - latency:    the point sleeps for a configured duration, then proceeds
///   - short_read: the point proceeds but reports a torn read (DiskTable
///                 truncates the block it just read, as a flaky disk would)
///
/// Points are armed programmatically (tests) or from the environment
/// (`SMARTDD_FAULTS`, parsed once on first use — see ArmFromSpec for the
/// grammar). Each arming carries a firing budget: fire N times then fall
/// quiet, or fire on every hit (times <= 0). When nothing is armed the
/// whole machinery collapses to one relaxed atomic load and a predictable
/// branch, so production paths pay effectively nothing.
///
/// Fault points wired in so far:
///   disk_table.open        DiskTable::Open header read
///   disk_table.scan_open   per-ScanRange file open
///   disk_table.read        per granule read inside ScanRange
///   scheduler.task         TaskScheduler, before each task body
///   sample_handler.create  SampleHandler, before each Create pass
///   http.dispatch          HTTP adapter, before routing a request
///   rpc.server.dispatch    RPC server, before invoking a call handler
///   rpc.client.send        RPC channel, before writing a CALL frame
///   rpc.client.recv        RPC channel reader loop (kills the connection,
///                          exactly like a peer crash)
class FaultRegistry {
 public:
  /// Process-wide instance. First call arms points from $SMARTDD_FAULTS.
  static FaultRegistry& Default();

  /// Arms `point` to return `status` on its next `times` hits
  /// (times <= 0: every hit until disarmed).
  void ArmError(std::string_view point, Status status, int64_t times = 1);

  /// Arms `point` to sleep `millis` before proceeding on its next `times`
  /// hits. The injected Status is OK, so callers see a slow success.
  void ArmLatency(std::string_view point, double millis, int64_t times = 1);

  /// Arms `point` to report a torn read on its next `times` hits.
  void ArmShortRead(std::string_view point, int64_t times = 1);

  void Disarm(std::string_view point);
  void DisarmAll();

  /// Fast guard consulted by InjectFault: true when any point is armed.
  bool any_armed() const {
    return any_armed_.load(std::memory_order_relaxed);
  }

  /// Total times `point` has fired since process start (test assertions).
  uint64_t fired(std::string_view point) const;

  /// Arms points from a schedule spec, the same grammar $SMARTDD_FAULTS
  /// uses: `point=kind[:param][:times]` entries separated by ';' or ','.
  ///   disk_table.read=error            fail the next read once
  ///   disk_table.read=error:0          fail every read until disarmed
  ///   scheduler.task=latency:20:5      sleep 20ms on the next 5 tasks
  ///   disk_table.read=short_read:3     tear the next 3 block reads
  Status ArmFromSpec(std::string_view spec);

  /// Slow path behind InjectFault; call only when any_armed() is true.
  Status Hit(std::string_view point, bool* short_read);

 private:
  FaultRegistry() = default;
  struct Impl;
  Impl& impl() const;

  std::atomic<bool> any_armed_{false};
};

/// Consults fault point `point`: returns OK and does nothing when the point
/// is not armed (the common case — one relaxed load). An armed error fault
/// returns its Status; a latency fault sleeps, then returns OK; a
/// short-read fault sets *short_read (when provided) and returns OK. Every
/// firing increments the smartdd_faults_injected_total counter.
inline Status InjectFault(std::string_view point, bool* short_read = nullptr) {
  FaultRegistry& registry = FaultRegistry::Default();
  if (!registry.any_armed()) return Status::OK();
  return registry.Hit(point, short_read);
}

}  // namespace smartdd

#endif  // SMARTDD_COMMON_FAULT_INJECTION_H_
