// Prometheus text exposition (v0.0.4) for the service telemetry plane.
//
// RenderPrometheus is the server side: it merges the telemetry shards,
// service Stats, and the current StateSnapshot's engine gauges into one
// text document with conventional names (`lyra_svc_request_duration_seconds`
// et al), every family HELP'd and TYPE'd. It backs both the `GET /metrics`
// HTTP path sniffed off the TCP listener and the `stats_prom` wire command.
//
// ParsePrometheus/ExtractHistogram are the client side, shared by lyra_top,
// lyra_loadgen's server-scrape cross-check, and the exposition tests — the
// parser accepts exactly what the renderer emits (plus whitespace slack), so
// the round trip is tested end to end rather than against a third format.
#ifndef SRC_SVC_PROM_H_
#define SRC_SVC_PROM_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/obs/metrics.h"

namespace lyra::svc {

class SchedulerService;
class FederationRouter;

// Renders the full exposition document. Callable from any thread (scrape
// cost lands entirely on the caller; writers are never touched beyond
// relaxed loads).
std::string RenderPrometheus(const SchedulerService& service);

// Multi-engine variant. One engine delegates to the service renderer
// byte-for-byte.
// With N > 1 every engine family carries per-shard samples labeled
// `shard="k"` plus an unlabeled merged total (histograms merged bucketwise,
// counters and gauges summed) emitted first, so single-series consumers that
// take the first match keep working unchanged; I/O-thread families come from
// the front shard's registry, where the event loop homes them. Adds a
// `lyra_svc_shards` gauge.
std::string RenderPrometheus(const FederationRouter& router);

struct PromSample {
  std::string name;  // full sample name, including _bucket/_sum/_count
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

struct PromScrape {
  std::vector<PromSample> samples;
  std::map<std::string, std::string> types;  // family name -> TYPE
  std::map<std::string, std::string> helps;  // family name -> HELP text

  // First sample with this exact name whose labels contain `labels` as a
  // subset; nullptr when absent.
  const PromSample* Find(const std::string& name,
                         const std::map<std::string, std::string>& labels = {})
      const;
  double Value(const std::string& name,
               const std::map<std::string, std::string>& labels = {},
               double fallback = 0.0) const;
};

// Parses an exposition document. InvalidArgument on malformed sample lines;
// unknown comment lines are ignored per the format spec.
StatusOr<PromScrape> ParsePrometheus(const std::string& text);

// Reassembles the `family` histogram (samples `family_bucket{le=...}`,
// `family_sum`, `family_count`) whose labels contain `labels` as a subset,
// converting cumulative buckets back to per-bucket counts. NotFound when the
// family has no buckets under those labels.
StatusOr<obs::Histogram> ExtractHistogram(
    const PromScrape& scrape, const std::string& family,
    const std::map<std::string, std::string>& labels = {});

}  // namespace lyra::svc

#endif  // SRC_SVC_PROM_H_
