#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "net/socket.hpp"

namespace dc::net {

class FaultCell;

/// What one rank (child process) sees: its identity, the full port table,
/// and its own pre-bound listener. The listeners are created in the parent
/// BEFORE forking — every rank is born already listening, so mesh connects
/// can never race the bind and no rendezvous files are needed.
struct RankEnv {
  int rank = -1;
  int num_ranks = 0;
  std::vector<std::uint16_t> ports;  ///< listener port of every rank
  Socket listener;                   ///< this rank's inherited listener
  /// 0 for the first incarnation; incremented each time the FaultHarness
  /// restarts this rank after a kill with FaultPoint::restart.
  int generation = 0;
  /// Non-null when the FaultHarness armed fault points for this rank. The
  /// rank (or the engine it runs) reports trigger progress through it; the
  /// matching trigger stops the whole process while the parent delivers the
  /// fault.
  FaultCell* fault = nullptr;
};

/// Exit status of one rank.
struct RankStatus {
  int exit_code = -1;    ///< child's _exit code (when it exited)
  int term_signal = 0;   ///< non-zero when the child died of a signal
  bool timed_out = false;  ///< parent killed it at the deadline
  int faults_injected = 0;  ///< SIGKILL / SIGSTOP deliveries by the harness
  int restarts = 0;         ///< respawns after a kill with restart
  /// Everything the rank (every incarnation) wrote to stderr, captured by
  /// the parent — a failing distributed test can print WHY a rank died
  /// instead of just its exit code.
  std::string stderr_output;

  [[nodiscard]] bool ok() const {
    return !timed_out && term_signal == 0 && exit_code == 0;
  }
};

struct LaunchOptions {
  /// Hard deadline for the whole group; the parent SIGKILLs stragglers and
  /// reports them timed_out. This is the harness's built-in watchdog — a
  /// wedged distributed run terminates with a structured status instead of
  /// hanging the caller (no helper threads involved, so forking under TSan
  /// stays single-threaded in the parent).
  double timeout_s = 120.0;
  /// Cap on captured stderr per rank (oldest output wins; the tail is
  /// dropped with a marker). Diagnostics, not a log transport.
  std::size_t stderr_cap_bytes = 256 * 1024;
};

/// What the harness does to a rank when its trigger point is reached.
enum class FaultAction {
  kKill,  ///< SIGKILL: fail-stop crash (TCP peers see the connection close)
  kStop,  ///< SIGSTOP: the process freezes but its sockets stay open — the
          ///< peers' only death signal is heartbeat silence
};

/// When the fault fires. kUow matches an exact UOW index reported by the
/// child; the counter kinds fire when the child's cumulative count reaches
/// `value`. All of them are CHILD-reported logical points (over the control
/// pipe), never wall-clock timers — the child stops itself inside the
/// trigger until the parent has delivered the fault, so tests are not flaky.
enum class FaultTrigger {
  kUow,      ///< start of UOW index `value` (engine-reported)
  kFrames,   ///< cumulative remote DATA frames dispatched >= value
  kBytes,    ///< cumulative remote DATA payload bytes dispatched >= value
  kBuffers,  ///< test-defined unit count >= value (filters call advance())
};

struct FaultPoint {
  int rank = -1;
  FaultAction action = FaultAction::kKill;
  FaultTrigger trigger = FaultTrigger::kUow;
  std::uint64_t value = 0;
  /// kKill only: respawn the rank (generation + 1) after reaping it.
  bool restart = false;
  /// kStop only: SIGCONT the rank this many seconds after the stop; 0 means
  /// it stays frozen until every other rank finished (the harness then
  /// SIGKILLs it so the group terminates).
  double resume_after_s = 0.0;
};

/// Child-side trigger reporter, handed to the rank through RankEnv::fault.
/// Thread-safe: engine worker threads and test filters may all advance it.
/// When a trigger matches, the caller writes the event to the parent and
/// SIGSTOPs its own process, so every thread freezes at the fault instant.
/// The parent acts once waitpid reports the stop: a kill ends the process
/// there; a freeze is resumed with SIGCONT plus an ack the caller then
/// reads. Everything is process-local state plus two inherited pipe fds; no
/// wall clocks anywhere.
class FaultCell {
 public:
  /// Reports that UOW `uow` is starting on this rank.
  void at_uow(int uow);
  /// Adds `n` to the cumulative counter of `kind` (kFrames/kBytes/kBuffers).
  void advance(FaultTrigger kind, std::uint64_t n = 1);
  [[nodiscard]] bool armed() const { return !points_.empty(); }

 private:
  friend class FaultHarness;
  FaultCell(std::vector<FaultPoint> points, std::vector<bool> fired,
            int event_fd, int ack_fd);
  void reached_locked(std::size_t i);

  std::mutex mu_;
  std::vector<FaultPoint> points_;  ///< this rank's points only
  std::vector<bool> fired_;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t buffers_ = 0;
  int event_fd_ = -1;  ///< child -> parent: 4-byte point index
  int ack_fd_ = -1;    ///< parent -> child: 1-byte release (kStop)
};

/// Parent-side controller for deterministic process-level fault injection:
/// forks `n` rank processes exactly like run_local_ranks, then kills or
/// freezes chosen ranks at the trigger points they report over per-rank
/// control pipes (each rank stops itself there first), optionally restarts killed ranks, and collects per-rank
/// structured outcomes (exit status + captured stderr + faults delivered).
/// The parent stays single-threaded throughout (TSan-safe forks): one
/// polling loop drains pipes, applies faults, and reaps children.
class FaultHarness {
 public:
  explicit FaultHarness(LaunchOptions opts = {}) : opts_(opts) {}

  FaultHarness& add(FaultPoint p);
  /// Sugar for the two common shapes.
  FaultHarness& kill_rank(int rank, FaultTrigger trigger, std::uint64_t value,
                          bool restart = false);
  FaultHarness& stop_rank(int rank, FaultTrigger trigger, std::uint64_t value,
                          double resume_after_s = 0.0);

  /// Forks `n` rank processes on this machine, each running `fn(env)`; the
  /// child _exits with fn's return value (uncaught exceptions exit 111
  /// after printing to the captured stderr). Must be called from a process
  /// with no live threads of its own (fork semantics).
  std::vector<RankStatus> run(int n, const std::function<int(RankEnv&)>& fn);

 private:
  LaunchOptions opts_;
  std::vector<FaultPoint> points_;
};

/// Fault-free convenience wrapper: a FaultHarness with no points.
std::vector<RankStatus> run_local_ranks(int n,
                                        const std::function<int(RankEnv&)>& fn,
                                        LaunchOptions opts = {});

}  // namespace dc::net
