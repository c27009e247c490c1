#pragma once

#include <string>

#include "core/buffer.hpp"
#include "core/wire.hpp"

namespace dc::exec {

/// The outbound half of a multi-process run, as the copy-set executor sees
/// it. exec::Engine runs the transparent copies of one host; whenever a
/// buffer, an end-of-work marker, or a dequeue settlement is addressed to a
/// copy on another host, it hands it to the transport instead of a local
/// PortChannel. The inbound half is Engine::deliver / eow / settle /
/// fail_host, which the transport calls from its receive threads.
///
/// Every method is called from engine worker threads with no engine lock
/// held, and must not call back into the engine's worker-side API.
class Transport {
 public:
  virtual ~Transport() = default;

  /// The host this process runs. Copies placed on any other host are remote.
  [[nodiscard]] virtual int local_host() const = 0;
  /// Upper bound on a fault-tolerant producer's window stall and end-of-work
  /// retention settlement; exceeding it fails the UOW (worker_failed with
  /// transport_error) instead of wedging on a frozen peer.
  [[nodiscard]] virtual double settle_timeout_s() const = 0;

  /// One stream buffer for the remote copy set `route.target` on `host`.
  virtual void send_data(int host, const core::BufferRoute& route,
                         core::Buffer buf) = 0;
  /// Producer copy `route.producer` finished the stream toward `host`'s set.
  virtual void send_eow(int host, const core::BufferRoute& route) = 0;
  /// A local consumer dequeued a buffer produced on `host`: the flow-control
  /// credit travels back, and under DD (`ack`) the demand acknowledgment too.
  virtual void send_settle(int host, const core::BufferRoute& route,
                           bool ack) = 0;
  /// A producer waited `seconds` for a window slot on `stream`.
  virtual void window_stalled(int stream, double seconds) = 0;
  /// A worker failed: a filter callback threw, or (`transport_error`) a
  /// stall or retention settlement outlived settle_timeout_s(). The
  /// transport records the outcome, tells its peers, and calls
  /// Engine::abort() so every local worker unwinds.
  virtual void worker_failed(const std::string& reason,
                             bool transport_error) = 0;
};

}  // namespace dc::exec
