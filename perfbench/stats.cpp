#include "stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double windowed_quantile(const std::vector<double>& v, double q, std::size_t window) {
  const std::size_t windows = std::max<std::size_t>(1, v.size() / window);
  std::vector<double> tails;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto last = w + 1 == windows ? v.end() : first + static_cast<std::ptrdiff_t>(window);
    tails.push_back(quantile(std::vector<double>(first, last), q));
  }
  return median(tails);
}

std::size_t count_above(const std::vector<double>& v, double threshold) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > threshold; }));
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  if (f) return true;
  static bool warned = false;
  if (!warned) {
    std::fprintf(stderr, "cannot reset the peak RSS; peak_rss_mb includes earlier phases\n");
    warned = true;
  }
  return false;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::map<std::string, double> self_times(const dc::obs::TraceSession& session) {
  struct Open {
    const char* name;
    double t0;
    double child_s;
  };
  std::map<std::string, double> self;
  for (const dc::obs::Track* track : session.tracks()) {
    if (track->dropped() > 0) {
      throw std::runtime_error("trace track " + track->label() +
                               " dropped events; raise track_capacity");
    }
    std::vector<Open> stack;
    for (const dc::obs::Event& e : track->events()) {
      if (e.kind == dc::obs::EventKind::kBegin) {
        stack.push_back(Open{e.name, e.t, 0.0});
      } else if (e.kind == dc::obs::EventKind::kEnd && !stack.empty()) {
        const Open o = stack.back();
        stack.pop_back();
        const double dur = e.t - o.t0;
        self[o.name] += dur - o.child_s;
        if (!stack.empty()) stack.back().child_s += dur;
      }
    }
  }
  return self;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[512];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not a finite number");
    }
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    out += buf;
  }
  return out + "}";
}

}  // namespace perfbench
