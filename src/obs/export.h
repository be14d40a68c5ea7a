#ifndef ISUM_OBS_EXPORT_H_
#define ISUM_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace isum::obs {

/// Serialization of traces and metric snapshots. Two formats:
///
///  - Chrome trace JSON (`trace.json`): loads directly in Perfetto
///    (https://ui.perfetto.dev) or chrome://tracing. One complete event
///    ("ph":"X") per span, preceded by thread_name metadata events. The
///    file is a JSON array with one event per line, which keeps it
///    greppable; tools/tracecat reads it with common/json.h and does not
///    depend on the layout.
///
///  - JSONL: one flat JSON object per line for spans
///    ({"type":"span",...}) and metrics ({"type":"counter"|"gauge"|
///    "histogram",...}); readers parse each line with common/json.h.
///
/// Timestamps/durations are microseconds with nanosecond precision
/// (Chrome's native unit).

/// Renders `dump` as Chrome trace JSON.
std::string ChromeTraceJson(const TraceDump& dump);

/// Renders `dump` as span JSONL.
std::string SpansJsonl(const TraceDump& dump);

/// Renders `snapshot` as metrics JSONL.
std::string MetricsJsonl(const MetricsSnapshot& snapshot);

/// Renders `snapshot` in Prometheus/OpenMetrics text exposition format:
/// counters and gauges as `isum_<name> <value>` samples, histograms as
/// summaries (quantile-labelled samples plus _sum/_count). Metric names are
/// sanitized (`.` and other non-identifier bytes become `_`) and prefixed
/// `isum_`. Written as snapshot files by MetricsExporter (obs/exporter.h);
/// parsed back by tracecat watch.
std::string PrometheusText(const MetricsSnapshot& snapshot);

/// Run metadata stamped into an isum-profile-v1 record, mirroring the
/// isum-bench-v1 header fields so the two artifacts of one run correlate.
struct ProfileMeta {
  std::string label;
  std::string bench;
  std::string git_rev;
  double wall_seconds = 0.0;
};

/// Renders `dump` in the collapsed-stack format flamegraph.pl consumes:
/// one `phase;outer;...;leaf count` line per unique stack, so the phase is
/// the flame root and frames fan out under it. Samples outside any span
/// root at "(unattributed)"; semicolons inside frame names become ':'.
/// ObsScope writes this next to --profile= as `<path>.collapsed`.
std::string CollapsedStacks(const ProfileDump& dump);

/// Renders `dump` as a structured isum-profile-v1 record: one JSON object,
/// laid out like isum-bench-v1 (one scalar or object per line, for readable
/// diffs; readers do not depend on it), with per-phase sample totals, top
/// frames by self/total samples, and the allocation hot-list. Read back by
/// `tracecat profile`; schema documented in docs/OBSERVABILITY.md.
std::string ProfileJson(const ProfileDump& dump, const ProfileMeta& meta);

}  // namespace isum::obs

#endif  // ISUM_OBS_EXPORT_H_
