#include "net/process.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fcntl.h>
#include <signal.h>
#include <stdexcept>
#include <sys/types.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace dc::net {

namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Reads everything currently available from a nonblocking fd into `out`,
/// bounded by `cap` (the pipe keeps being drained past the cap so a chatty
/// child never blocks on a full pipe; overflow is replaced by one marker).
void drain_stream(int fd, std::string& out, std::size_t cap, bool& truncated) {
  if (fd < 0) return;
  char buf[4096];
  for (;;) {
    const ssize_t k = ::read(fd, buf, sizeof buf);
    if (k > 0) {
      if (out.size() < cap) {
        out.append(buf, std::min(static_cast<std::size_t>(k), cap - out.size()));
      } else if (!truncated) {
        out += "\n[stderr truncated]\n";
        truncated = true;
      }
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    return;  // 0 = EOF, or EAGAIN: nothing more right now
  }
}

/// Parent-side record of one rank's process (across incarnations).
struct RankProc {
  pid_t pid = -1;
  bool running = false;
  /// A fault event arrived; act once waitpid reports the child's self-stop.
  bool await_stop = false;
  std::size_t pending_point = 0;  ///< index into points while await_stop
  bool stopped = false;        ///< frozen by a kStop fault, SIGCONT not yet
  bool has_resume = false;
  Clock::time_point resume_at{};
  bool pending_restart = false;
  bool watchdog_killed = false;
  bool stderr_truncated = false;
  int generation = 0;
  int stderr_r = -1;  ///< parent reads the child's captured stderr here
  int event_r = -1;   ///< parent reads 4-byte fault-point indices here
  int ack_w = -1;     ///< parent releases a stopped child here (1 byte)
  char evbuf[4];      ///< partial-event accumulator
  std::size_t evlen = 0;
  std::vector<FaultPoint> points;  ///< this rank's points, in add order
  std::vector<bool> consumed;      ///< events already fired (any incarnation)
};

}  // namespace

FaultCell::FaultCell(std::vector<FaultPoint> points, std::vector<bool> fired,
                     int event_fd, int ack_fd)
    : points_(std::move(points)),
      fired_(std::move(fired)),
      event_fd_(event_fd),
      ack_fd_(ack_fd) {}

void FaultCell::reached_locked(std::size_t i) {
  fired_[i] = true;
  const auto idx = static_cast<std::uint32_t>(i);
  const char* p = reinterpret_cast<const char*>(&idx);
  std::size_t off = 0;
  while (off < sizeof idx) {
    const ssize_t k = ::write(event_fd_, p + off, sizeof idx - off);
    if (k > 0) {
      off += static_cast<std::size_t>(k);
    } else if (errno != EINTR) {
      return;  // parent gone; nothing sensible left to do
    }
  }
  // Freeze the WHOLE process, not just this thread: no other copy, pump, or
  // heartbeat thread can make progress past the fault instant. The parent
  // acts only once waitpid reports this stop — a SIGKILL ends the process
  // right here; for a freeze it SIGCONTs us and then sends the ack, which
  // this thread waits for. Either way every thread's state at the fault is
  // exactly "stopped at the trigger point", however loaded the machine.
  ::kill(::getpid(), SIGSTOP);
  char b = 0;
  for (;;) {
    const ssize_t k = ::read(ack_fd_, &b, 1);
    if (k >= 0 || errno != EINTR) return;
  }
}

void FaultCell::at_uow(int uow) {
  std::lock_guard lk(mu_);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (!fired_[i] && points_[i].trigger == FaultTrigger::kUow &&
        points_[i].value == static_cast<std::uint64_t>(uow)) {
      reached_locked(i);
    }
  }
}

void FaultCell::advance(FaultTrigger kind, std::uint64_t n) {
  std::lock_guard lk(mu_);
  std::uint64_t* counter = nullptr;
  switch (kind) {
    case FaultTrigger::kFrames: counter = &frames_; break;
    case FaultTrigger::kBytes: counter = &bytes_; break;
    case FaultTrigger::kBuffers: counter = &buffers_; break;
    case FaultTrigger::kUow: return;  // use at_uow()
  }
  *counter += n;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (!fired_[i] && points_[i].trigger == kind &&
        *counter >= points_[i].value) {
      reached_locked(i);
    }
  }
}

FaultHarness& FaultHarness::add(FaultPoint p) {
  points_.push_back(p);
  return *this;
}

FaultHarness& FaultHarness::kill_rank(int rank, FaultTrigger trigger,
                                      std::uint64_t value, bool restart) {
  FaultPoint p;
  p.rank = rank;
  p.action = FaultAction::kKill;
  p.trigger = trigger;
  p.value = value;
  p.restart = restart;
  return add(p);
}

FaultHarness& FaultHarness::stop_rank(int rank, FaultTrigger trigger,
                                      std::uint64_t value,
                                      double resume_after_s) {
  FaultPoint p;
  p.rank = rank;
  p.action = FaultAction::kStop;
  p.trigger = trigger;
  p.value = value;
  p.resume_after_s = resume_after_s;
  return add(p);
}

std::vector<RankStatus> FaultHarness::run(
    int n, const std::function<int(RankEnv&)>& fn) {
  if (n <= 0) throw std::invalid_argument("FaultHarness: n must be > 0");
  for (const auto& p : points_) {
    if (p.rank < 0 || p.rank >= n) {
      throw std::invalid_argument("FaultHarness: fault point rank out of range");
    }
  }
  // Restarted ranks must be able to re-listen on their original port, so
  // the parent keeps the listeners alive only when a restart is possible
  // (otherwise a dead rank's port would keep accepting, masking the
  // connection-refused signal fault-free callers may rely on).
  const bool keep_listeners =
      std::any_of(points_.begin(), points_.end(),
                  [](const FaultPoint& p) { return p.restart; });

  // One listener per rank, bound before any fork.
  std::vector<Socket> listeners;
  std::vector<std::uint16_t> ports;
  listeners.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    listeners.push_back(listen_loopback(0, /*backlog=*/n + 1));
    ports.push_back(local_port(listeners.back()));
  }

  std::vector<RankStatus> statuses(static_cast<std::size_t>(n));
  std::vector<RankProc> procs(static_cast<std::size_t>(n));
  for (const auto& p : points_) {
    procs[static_cast<std::size_t>(p.rank)].points.push_back(p);
  }
  for (auto& pr : procs) pr.consumed.assign(pr.points.size(), false);

  // Forks rank `r` (any incarnation). The parent stays single-threaded, so
  // this is safe to call mid-run for restarts. Returns false on fork failure.
  const auto spawn = [&](int r) -> bool {
    auto& pr = procs[static_cast<std::size_t>(r)];
    int se[2] = {-1, -1};
    int ev[2] = {-1, -1};
    int ak[2] = {-1, -1};
    const bool has_points = !pr.points.empty();
    if (::pipe(se) != 0 ||
        (has_points && (::pipe(ev) != 0 || ::pipe(ak) != 0))) {
      close_fd(se[0]); close_fd(se[1]);
      close_fd(ev[0]); close_fd(ev[1]);
      close_fd(ak[0]); close_fd(ak[1]);
      return false;
    }

    // Children must not inherit (and later flush) buffered parent output.
    std::fflush(stdout);
    std::fflush(stderr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      close_fd(se[0]); close_fd(se[1]);
      close_fd(ev[0]); close_fd(ev[1]);
      close_fd(ak[0]); close_fd(ak[1]);
      return false;
    }
    if (pid == 0) {
      // ---- child: rank r ----
      ::dup2(se[1], 2);
      close_fd(se[0]);
      close_fd(se[1]);
      close_fd(ev[0]);  // parent ends of this rank's control pipes
      close_fd(ak[1]);
      // Drop every parent-held fd belonging to OTHER ranks so a dead rank's
      // pipes reach EOF and no stray references linger.
      for (int k = 0; k < n; ++k) {
        if (k == r) continue;
        auto& other = procs[static_cast<std::size_t>(k)];
        close_fd(other.stderr_r);
        close_fd(other.event_r);
        close_fd(other.ack_w);
      }
      RankEnv env;
      env.rank = r;
      env.num_ranks = n;
      env.ports = ports;
      env.generation = pr.generation;
      env.listener = Socket(::dup(listeners[static_cast<std::size_t>(r)].fd()));
      for (auto& l : listeners) l.close();

      FaultCell cell(pr.points,
                     std::vector<bool>(pr.consumed.begin(), pr.consumed.end()),
                     ev[1], ak[0]);
      if (has_points) env.fault = &cell;

      int rc = 111;
      try {
        rc = fn(env);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[rank %d] uncaught: %s\n", r, e.what());
      } catch (...) {
        std::fprintf(stderr, "[rank %d] uncaught non-std exception\n", r);
      }
      std::fflush(stderr);
      // _exit: no atexit handlers, no flush of inherited stdio buffers.
      ::_exit(rc & 0xff);
    }
    // ---- parent ----
    close_fd(se[1]);
    close_fd(ev[1]);
    close_fd(ak[0]);
    set_nonblocking(se[0]);
    if (ev[0] >= 0) set_nonblocking(ev[0]);
    pr.pid = pid;
    pr.running = true;
    pr.await_stop = false;
    pr.stopped = false;
    pr.has_resume = false;
    pr.pending_restart = false;
    pr.stderr_r = se[0];
    pr.event_r = ev[0];
    pr.ack_w = ak[1];
    pr.evlen = 0;
    return true;
  };

  for (int r = 0; r < n; ++r) {
    if (!spawn(r)) {
      for (int k = 0; k < r; ++k) {
        auto& pr = procs[static_cast<std::size_t>(k)];
        ::kill(pr.pid, SIGKILL);
        ::waitpid(pr.pid, nullptr, 0);
      }
      throw std::runtime_error("FaultHarness: fork failed");
    }
  }
  if (!keep_listeners) {
    for (auto& l : listeners) l.close();
  }

  const auto release_stopped = [](RankProc& pr) {
    ::kill(pr.pid, SIGCONT);
    const char b = 0;
    ssize_t k;
    do {
      k = ::write(pr.ack_w, &b, 1);
    } while (k < 0 && errno == EINTR);
    pr.stopped = false;
    pr.has_resume = false;
  };

  // Fault events: 4-byte point indices from the child's FaultCell. The
  // child stops itself right after writing one; the fault is delivered when
  // waitpid reports that stop.
  const auto read_events = [](RankProc& pr, RankStatus& st) {
    while (pr.event_r >= 0) {
      const ssize_t k = ::read(pr.event_r, pr.evbuf + pr.evlen,
                               sizeof pr.evbuf - pr.evlen);
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) break;
      pr.evlen += static_cast<std::size_t>(k);
      if (pr.evlen < sizeof pr.evbuf) continue;
      pr.evlen = 0;
      std::uint32_t idx = 0;
      std::memcpy(&idx, pr.evbuf, sizeof idx);
      if (idx >= pr.points.size()) continue;  // malformed; ignore
      pr.consumed[idx] = true;
      ++st.faults_injected;
      pr.await_stop = true;
      pr.pending_point = idx;
    }
  };

  // Drains pipes, applies fault actions, and reaps children — all from this
  // one thread (no helpers: forking, including restarts, stays TSan-safe).
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opts_.timeout_s);
  int remaining = n;
  bool watchdog_fired = false;
  while (remaining > 0) {
    const auto now = Clock::now();
    for (int r = 0; r < n; ++r) {
      auto& pr = procs[static_cast<std::size_t>(r)];
      auto& st = statuses[static_cast<std::size_t>(r)];
      if (!pr.running) continue;

      drain_stream(pr.stderr_r, st.stderr_output, opts_.stderr_cap_bytes,
                   pr.stderr_truncated);

      read_events(pr, st);

      if (pr.stopped && pr.has_resume && now >= pr.resume_at) {
        release_stopped(pr);
      }

      int wstatus = 0;
      const pid_t w = ::waitpid(pr.pid, &wstatus, WNOHANG | WUNTRACED);
      if (w == 0) continue;
      if (w > 0 && WIFSTOPPED(wstatus)) {
        // The child stopped itself at its trigger. Its event was written
        // before the stop, so it is in the pipe by now: deliver the fault.
        read_events(pr, st);
        if (pr.await_stop) {
          pr.await_stop = false;
          const FaultPoint& p = pr.points[pr.pending_point];
          if (p.action == FaultAction::kKill) {
            pr.pending_restart = p.restart;
            ::kill(pr.pid, SIGKILL);
          } else {
            // Stays frozen until the scheduled resume (SIGCONT + ack), or
            // for good when no resume is scheduled.
            pr.stopped = true;
            if (p.resume_after_s > 0.0) {
              pr.has_resume = true;
              pr.resume_at =
                  now + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(p.resume_after_s));
            }
          }
        }
        continue;
      }
      // Final drain: anything written between the last poll and death.
      drain_stream(pr.stderr_r, st.stderr_output, opts_.stderr_cap_bytes,
                   pr.stderr_truncated);
      close_fd(pr.stderr_r);
      close_fd(pr.event_r);
      close_fd(pr.ack_w);
      pr.running = false;
      pr.stopped = false;
      pr.await_stop = false;
      if (w < 0) {
        st.exit_code = -1;  // should not happen; treat as failure
      } else if (WIFEXITED(wstatus)) {
        st.exit_code = WEXITSTATUS(wstatus);
        st.term_signal = 0;
      } else if (WIFSIGNALED(wstatus)) {
        st.exit_code = -1;
        st.term_signal = WTERMSIG(wstatus);
        st.timed_out = pr.watchdog_killed;
      }
      if (pr.pending_restart && !watchdog_fired) {
        pr.pending_restart = false;
        ++pr.generation;
        if (spawn(r)) {
          ++st.restarts;
          continue;  // rank lives on in a new incarnation
        }
      }
      --remaining;
    }
    if (remaining == 0) break;

    if (!watchdog_fired && Clock::now() >= deadline) {
      watchdog_fired = true;
      for (auto& pr : procs) {
        if (pr.running) {
          pr.watchdog_killed = true;
          ::kill(pr.pid, SIGKILL);  // kills stopped processes too
        }
      }
    }
    // Endgame: every still-live rank is frozen with no scheduled resume
    // (stop_rank(..., 0)); nothing can make progress, so terminate them.
    // These are harness-inflicted deaths, not timeouts.
    if (!watchdog_fired) {
      bool all_frozen = true;
      for (const auto& pr : procs) {
        if (pr.running && !(pr.stopped && !pr.has_resume)) {
          all_frozen = false;
          break;
        }
      }
      if (all_frozen) {
        for (auto& pr : procs) {
          if (pr.running) ::kill(pr.pid, SIGKILL);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return statuses;
}

std::vector<RankStatus> run_local_ranks(int n,
                                        const std::function<int(RankEnv&)>& fn,
                                        LaunchOptions opts) {
  return FaultHarness(opts).run(n, fn);
}

}  // namespace dc::net
