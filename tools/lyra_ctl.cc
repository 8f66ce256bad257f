// lyra_ctl: command-line client for lyra_schedd.
//
// Builds one JSON command from the subcommand + flags, sends it over the
// daemon's Unix socket — or TCP with --tcp=<host:port> — as a
// length-prefixed frame, and prints the reply.
// Exit status is 0 when the reply carries "ok": true, 2 on an error reply,
// and 1 on transport/usage failure.
//
//   lyra_ctl --socket=/tmp/lyra.sock submit --gpus-per-worker=1 --max-workers=4
//   lyra_ctl --tcp=127.0.0.1:7070 cluster_stats
//   lyra_ctl --socket=/tmp/lyra.sock query_job --job=0
//   lyra_ctl --socket=/tmp/lyra.sock advance --to=3600
//   lyra_ctl --socket=/tmp/lyra.sock drain
//   lyra_ctl --socket=/tmp/lyra.sock snapshot --path=/tmp/lyra.snap
//   lyra_ctl --socket=/tmp/lyra.sock shutdown
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>

#include "src/common/flags.h"
#include "src/common/json.h"
#include "src/svc/wire.h"

namespace {

const char kSubcommands[] =
    "submit | cancel | migrate | advance | drain | query_job | cluster_stats "
    "| stats_prom | trace_dump | federation_stats | snapshot | ping | shutdown";

// Cluster targets are a name or a numeric index; the daemon distinguishes
// them by JSON type, so an all-digits flag value becomes a number.
lyra::JsonValue ClusterTarget(const std::string& value) {
  bool digits = !value.empty();
  for (char ch : value) {
    digits = digits && ch >= '0' && ch <= '9';
  }
  if (digits) {
    return lyra::JsonValue::MakeNumber(std::atof(value.c_str()));
  }
  return lyra::JsonValue::MakeString(value);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/lyra_schedd.sock";
  std::string tcp;
  std::string path;
  std::string model;
  std::string key;
  std::string cluster;
  std::string migrate_to;
  double at = -1.0;
  double to = -1.0;
  double total_work = -1.0;
  int job = -1;
  int gpus_per_worker = 1;
  int min_workers = 1;
  int max_workers = -1;
  int requested_workers = -1;
  bool fungible = false;
  bool heterogeneous = false;
  bool checkpointing = false;

  lyra::FlagSet flags(std::string("lyra_ctl <subcommand>: drive lyra_schedd. "
                                  "Subcommands: ") + kSubcommands);
  flags.AddString("socket", &socket_path, "daemon Unix socket path");
  flags.AddString("tcp", &tcp, "daemon TCP endpoint host:port (overrides --socket)");
  flags.AddDouble("at", &at, "virtual-time stamp for mutating commands (<0 = now)");
  flags.AddDouble("to", &to, "advance: target virtual time");
  flags.AddInt("job", &job, "cancel/query_job: job id");
  flags.AddString("path", &path, "snapshot: output file");
  flags.AddInt("gpus-per-worker", &gpus_per_worker, "submit: GPUs per worker");
  flags.AddInt("min-workers", &min_workers, "submit: minimum worker count");
  flags.AddInt("max-workers", &max_workers, "submit: maximum workers (<0 = min)");
  flags.AddInt("requested-workers", &requested_workers,
               "submit: initial request (<0 = max)");
  flags.AddDouble("total-work", &total_work,
                  "submit: total work in GPU-seconds (<0 = default)");
  flags.AddString("model", &model, "submit: resnet | vgg | bert | gnmt | other");
  flags.AddString("key", &key,
                  "submit: routing key (same key -> same engine shard)");
  flags.AddString("cluster", &cluster,
                  "submit: federation target cluster name or index");
  flags.AddString("dest", &migrate_to,
                  "migrate: destination cluster name or index");
  flags.AddBool("fungible", &fungible, "submit: job tolerates reclaims");
  flags.AddBool("heterogeneous", &heterogeneous, "submit: may span GPU types");
  flags.AddBool("checkpointing", &checkpointing, "submit: checkpoint-enabled");

  const lyra::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.message().c_str(), flags.Usage().c_str());
    return 1;
  }
  if (flags.help_requested() || flags.positional().empty()) {
    std::fputs(flags.Usage().c_str(), flags.help_requested() ? stdout : stderr);
    return flags.help_requested() ? 0 : 1;
  }
  const std::string& cmd = flags.positional().front();

  lyra::JsonValue request = lyra::JsonValue::MakeObject();
  request.Set("cmd", lyra::JsonValue::MakeString(cmd));
  if (at >= 0.0) {
    request.Set("at", lyra::JsonValue::MakeNumber(at));
  }
  if (cmd == "submit") {
    request.Set("gpus_per_worker", lyra::JsonValue::MakeNumber(gpus_per_worker));
    request.Set("min_workers", lyra::JsonValue::MakeNumber(min_workers));
    if (max_workers >= 0) {
      request.Set("max_workers", lyra::JsonValue::MakeNumber(max_workers));
    }
    if (requested_workers >= 0) {
      request.Set("requested_workers",
                  lyra::JsonValue::MakeNumber(requested_workers));
    }
    if (total_work >= 0.0) {
      request.Set("total_work", lyra::JsonValue::MakeNumber(total_work));
    }
    if (!model.empty()) {
      request.Set("model", lyra::JsonValue::MakeString(model));
    }
    if (!key.empty()) {
      request.Set("key", lyra::JsonValue::MakeString(key));
    }
    request.Set("fungible", lyra::JsonValue::MakeBool(fungible));
    request.Set("heterogeneous", lyra::JsonValue::MakeBool(heterogeneous));
    request.Set("checkpointing", lyra::JsonValue::MakeBool(checkpointing));
    if (!cluster.empty()) {
      request.Set("cluster", ClusterTarget(cluster));
    }
  } else if (cmd == "migrate") {
    if (job < 0 || migrate_to.empty()) {
      std::fprintf(stderr, "lyra_ctl: migrate requires --job and --dest\n");
      return 1;
    }
    request.Set("job", lyra::JsonValue::MakeNumber(job));
    request.Set("to", ClusterTarget(migrate_to));
  } else if (cmd == "cancel" || cmd == "query_job") {
    if (job < 0) {
      std::fprintf(stderr, "lyra_ctl: %s requires --job\n", cmd.c_str());
      return 1;
    }
    request.Set("job", lyra::JsonValue::MakeNumber(job));
  } else if (cmd == "advance") {
    if (to < 0.0) {
      std::fprintf(stderr, "lyra_ctl: advance requires --to\n");
      return 1;
    }
    request.Set("to", lyra::JsonValue::MakeNumber(to));
  } else if (cmd == "snapshot" || cmd == "trace_dump") {
    if (path.empty()) {
      std::fprintf(stderr, "lyra_ctl: %s requires --path\n", cmd.c_str());
      return 1;
    }
    request.Set("path", lyra::JsonValue::MakeString(path));
  }

  lyra::StatusOr<int> fd = lyra::Status::Internal("unconnected");
  std::string endpoint = socket_path;
  if (!tcp.empty()) {
    endpoint = tcp;
    const std::size_t colon = tcp.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "lyra_ctl: --tcp wants host:port, got %s\n",
                   tcp.c_str());
      return 1;
    }
    fd = lyra::svc::ConnectTcp(tcp.substr(0, colon),
                               std::atoi(tcp.c_str() + colon + 1));
  } else {
    fd = lyra::svc::ConnectUnix(socket_path);
  }
  if (!fd.ok()) {
    std::fprintf(stderr, "lyra_ctl: connect %s: %s\n", endpoint.c_str(),
                 fd.status().message().c_str());
    return 1;
  }
  lyra::Status sent = lyra::svc::WriteFrame(fd.value(), request.Dump());
  if (!sent.ok()) {
    std::fprintf(stderr, "lyra_ctl: send: %s\n", sent.message().c_str());
    ::close(fd.value());
    return 1;
  }
  lyra::StatusOr<std::string> reply = lyra::svc::ReadFrame(fd.value());
  ::close(fd.value());
  if (!reply.ok()) {
    std::fprintf(stderr, "lyra_ctl: recv: %s\n", reply.status().message().c_str());
    return 1;
  }
  lyra::StatusOr<lyra::JsonValue> parsed_reply =
      lyra::JsonValue::Parse(reply.value());
  const bool ok =
      parsed_reply.ok() && parsed_reply.value().GetBool("ok", false);
  // A successful stats_prom reply wraps a Prometheus text page in its "text"
  // field; print that raw so the output pipes straight into promtool/grep.
  if (cmd == "stats_prom" && ok) {
    std::fputs(parsed_reply.value().GetString("text", "").c_str(), stdout);
  } else {
    std::printf("%s\n", reply.value().c_str());
  }
  // federation_stats carries per-cluster rows plus the migration ledger;
  // render them as a table so cluster imbalance is visible at a glance.
  if (cmd == "federation_stats" && ok) {
    const lyra::JsonValue* fed = parsed_reply.value().Find("clusters");
    if (fed != nullptr && fed->is_array()) {
      for (const lyra::JsonValue& entry : fed->AsArray()) {
        const lyra::JsonValue* jobs = entry.Find("jobs");
        const lyra::JsonValue* gpus = entry.Find("gpus");
        std::printf(
            "  cluster %2.0f %-12s %-9s gpus=%.0f/%.0f pending=%.0f "
            "running=%.0f\n",
            entry.GetDouble("cluster"), entry.GetString("name", "?").c_str(),
            entry.GetString("kind", "?").c_str(),
            gpus != nullptr ? gpus->GetDouble("used") : 0.0,
            gpus != nullptr ? gpus->GetDouble("total") : 0.0,
            jobs != nullptr ? jobs->GetDouble("pending") : 0.0,
            jobs != nullptr ? jobs->GetDouble("running") : 0.0);
      }
    }
    const lyra::JsonValue* broker = parsed_reply.value().Find("broker");
    if (broker != nullptr) {
      std::printf("  migrations: hash=%s\n",
                  broker->GetString("ledger_hash", "?").c_str());
    }
  }
  // A sharded daemon's ping carries a per-shard breakdown; render it as a
  // table under the raw reply so shard imbalance is visible at a glance.
  if (cmd == "ping" && ok) {
    const lyra::JsonValue* shards = parsed_reply.value().Find("shards");
    if (shards != nullptr && shards->is_array()) {
      for (const lyra::JsonValue& entry : shards->AsArray()) {
        std::printf("  shard %2.0f: commands_applied=%.0f snapshot_seq=%.0f "
                    "virtual_time=%.1f\n",
                    entry.GetDouble("shard"),
                    entry.GetDouble("commands_applied"),
                    entry.GetDouble("snapshot_seq"),
                    entry.GetDouble("virtual_time"));
      }
    }
  }
  return ok ? 0 : 2;
}
