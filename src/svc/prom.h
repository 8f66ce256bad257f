// Prometheus text exposition (v0.0.4) for the service telemetry plane.
//
// RenderPrometheus is the server side, and one renderer serves every daemon
// shape: it writes the telemetry, service Stats, read-snapshot and
// engine-registry families of a list of engines under one labelling rule
// (DESIGN.md §9), every family HELP'd and TYPE'd with its samples in one
// group. It backs both the `GET /metrics` HTTP path sniffed off the TCP
// listener and the `stats_prom` wire command.
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

// The per-command request latency family, which lyra_loadgen reads back.
inline constexpr char kRequestDurationFamily[] =
    "lyra_svc_request_duration_seconds";

// Renders one engine's exposition: every family with unlabelled rows.
// Callable from any thread (scrape cost lands entirely on the caller;
// writers are never touched beyond relaxed loads).
//
// Families: lyra_svc_* (request latency and transport from the I/O threads,
// engine batch histograms, the Stats counters, uptime and identity),
// from the read snapshot lyra_svc_command_log and lyra_engine_* (virtual
// time, the registry copy's time, the end-of-time flag, events, jobs by
// state, pools), and one lyra_engine_<name> family per metric in the
// engine's metrics registry, the name's '.' written as '_' and counters
// ending in `_total`.
std::string RenderPrometheus(const SchedulerService& service);

// The router's exposition. One engine renders exactly as above. With N > 1
// engines every engine family carries the merged total first (histograms
// merged bucketwise, counters and gauges summed, the times and the snapshot
// version the furthest engine's, `ended` when any engine ended), so
// consumers that take the first match see the fleet, then one `shard="k"`
// row per engine; I/O-thread
// families are engine 0's, where the event loop homes them. A fleet adds
// the `lyra_svc_shards` gauge and `lyra_fed_cluster_info{cluster,kind,
// shard}`, which names the cluster that engine k's shard="k" rows count:
// its jobs are `lyra_engine_jobs{shard="k"}`, and its own pool (inference
// for an inference cluster, training otherwise) is in
// `lyra_engine_pool_gpus{shard="k"}`.
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

// Reassembles the `family` histogram (samples `family_bucket{le=...}` and
// `family_sum`) whose labels, apart from `le`, are exactly `labels`, so `{}`
// names a fleet's unlabelled merged row and `{{"shard", "k"}}` engine k's;
// cumulative buckets become per-bucket counts. NotFound when the family has
// no finite bucket and +Inf under those labels. A scrape is untrusted
// bytes: a `le` that is not "+Inf" or a finite number in full, bounds that
// are not strictly ascending with +Inf last, or a bucket value that is not
// a non-negative integer below 2^64 is InvalidArgument.
StatusOr<obs::Histogram> ExtractHistogram(
    const PromScrape& scrape, const std::string& family,
    const std::map<std::string, std::string>& labels = {});

// The samples `now` holds beyond `earlier`, two scrapes of one cumulative
// histogram; `now` whole when the bounds differ (the daemon restarted with
// another layout), so a pair of scrapes never trips Subtract's CHECK.
obs::Histogram WindowSince(obs::Histogram now, const obs::Histogram& earlier);

}  // namespace lyra::svc

#endif  // SRC_SVC_PROM_H_
