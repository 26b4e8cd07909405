// The benchmark's workloads. Each one builds and warms its own Stack and
// hands out one closure per generator thread for every measured window.

#ifndef QUAESTOR_PERFBENCH_WORKLOADS_H_
#define QUAESTOR_PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "client/client.h"
#include "obs/trace.h"
#include "stack.h"
#include "window.h"

namespace quaestor::perfbench {

/// EBF refresh interval (Δ) of the sdk-mix sessions.
inline constexpr Micros kDelta = kMicrosPerSecond;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds and warms the stack. Its duration is setup_s.
  virtual bool SetUp(uint64_t seed, std::string* error) = 0;
  /// One closure per generator thread, for one window.
  virtual std::vector<GenFn> Generators() = 0;
  /// Attaches `tracer` (nullptr detaches) to the server, the worker's
  /// cluster, the SDK sessions and the bench backends.
  /// Call only between windows.
  virtual void SetTracer(obs::Tracer* tracer);
  /// Counters of the SDK sessions (sdk-mix only).
  virtual std::vector<client::ClientStats> ClientStats() const { return {}; }
  /// Whether SDK calls are logged for the consistency oracle.
  virtual bool LogsChecks() const { return false; }
  /// Whether the generators run a closed loop (else a fixed-rate open
  /// loop, whose throughput is the offered rate).
  virtual bool ClosedLoop() const { return false; }

  Stack& stack() { return *stack_; }

 protected:
  std::unique_ptr<Stack> stack_;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace quaestor::perfbench

#endif  // QUAESTOR_PERFBENCH_WORKLOADS_H_
