#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/recorder.hpp"

namespace perfbench {

/// Monotonic wall clock in seconds.
[[nodiscard]] double now_s();

/// Quantile `q` in [0, 1] of `v` with linear interpolation between order
/// statistics (the numpy default). Requires a non-empty `v`.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(const std::vector<double>& v);

/// Robust tail estimate: `v` (in time order) is cut into consecutive windows
/// of at least `window` samples, and the result is the median over windows of
/// each window's quantile `q`. A burst of slow UOWs then moves one window's
/// tail, not the reported one. With fewer than `window` samples it is the
/// plain quantile.
[[nodiscard]] double windowed_quantile(const std::vector<double>& v, double q,
                                       std::size_t window);

/// Samples of `v` strictly above `threshold`.
[[nodiscard]] std::size_t count_above(const std::vector<double>& v,
                                      double threshold);

/// Resets this process's peak resident set (VmHWM) to its current RSS, so
/// later readings exclude earlier phases such as dataset materialization.
/// Returns false, and warns once, where /proc/self/clear_refs is not
/// writable.
bool reset_peak_rss();
/// This process's peak resident set in MB (VmHWM), 0 if unreadable.
[[nodiscard]] double peak_rss_mb();

/// Self time per span name over every track of `session`: a span's duration
/// minus the part of it covered by spans nested inside it on the same track.
/// Spans are matched by begin/end nesting per track.
[[nodiscard]] std::map<std::string, double> self_times(
    const dc::obs::TraceSession& session);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// `{"name": {"value": v, "unit": "u"}, ...}` with full double precision.
[[nodiscard]] std::string metrics_json(const std::vector<Metric>& metrics);

}  // namespace perfbench
