#include "src/rl/policy.h"

#include <string_view>

#include "src/common/check.h"

namespace lyra::rl {
namespace {

constexpr char kOrigin[] = "LYRAPOL weights";

LstmOptions HeadOptions(const PolicyOptions& options, std::uint64_t seed) {
  LstmOptions head;
  head.window = options.feature_count;
  head.hidden = options.hidden;
  head.layers = options.layers;
  head.learning_rate = options.learning_rate;
  head.seed = seed;
  return head;
}

void ReadParameters(ByteReader& in, LstmNetwork* net, const char* head) {
  const std::uint32_t count = in.U32();
  if (in.ok() && static_cast<std::int64_t>(count) != net->num_parameters()) {
    in.Fail(std::string(head) + " parameter count mismatch: file has " +
            std::to_string(count) + ", architecture needs " +
            std::to_string(net->num_parameters()));
  }
  if (!in.ok()) {
    return;
  }
  std::vector<double> params(count);
  for (double& p : params) {
    p = in.F64();
  }
  if (in.ok()) {
    net->ImportParameters(params);
  }
}

void WriteParameters(ByteWriter& out, const LstmNetwork& net) {
  const std::vector<double> params = net.ExportParameters();
  out.U32(static_cast<std::uint32_t>(params.size()));
  for (double p : params) {
    out.F64(p);
  }
}

}  // namespace

PolicyNet::PolicyNet(const PolicyOptions& options)
    : options_(options),
      priority_(HeadOptions(options, options.seed)),
      workers_(HeadOptions(options, options.seed ^ 0x9e3779b97f4a7c15ull)) {
  LYRA_CHECK_GE(options.feature_count, 1);
}

double PolicyNet::PriorityScore(const std::vector<double>& obs) {
  LYRA_CHECK_EQ(obs.size(), static_cast<std::size_t>(options_.feature_count));
  return priority_.Forward(obs);
}

double PolicyNet::WorkerScore(const std::vector<double>& obs) {
  LYRA_CHECK_EQ(obs.size(), static_cast<std::size_t>(options_.feature_count));
  return workers_.Forward(obs);
}

void PolicyNet::ZeroGradients() {
  priority_.ZeroGradients();
  workers_.ZeroGradients();
}

void PolicyNet::AccumulatePriorityGradient(const std::vector<double>& obs,
                                           double d_output) {
  priority_.AccumulateGradient(obs, d_output);
}

void PolicyNet::AccumulateWorkerGradient(const std::vector<double>& obs,
                                         double d_output) {
  workers_.AccumulateGradient(obs, d_output);
}

void PolicyNet::ApplyAdam() {
  priority_.ApplyAdam();
  workers_.ApplyAdam();
}

int PolicyNet::num_parameters() const {
  return priority_.num_parameters() + workers_.num_parameters();
}

std::string PolicyNet::Encode() const {
  ByteWriter payload;
  payload.U32(static_cast<std::uint32_t>(options_.feature_count));
  payload.U32(static_cast<std::uint32_t>(options_.hidden));
  payload.U32(static_cast<std::uint32_t>(options_.layers));
  payload.U64(options_.seed);
  payload.F64(options_.learning_rate);
  WriteParameters(payload, priority_);
  WriteParameters(payload, workers_);
  return Seal(kPolicyFormat, payload.bytes());
}

StatusOr<PolicyNet> PolicyNet::Decode(const std::string& bytes) {
  StatusOr<std::string_view> payload = Open(kPolicyFormat, bytes, kOrigin);
  if (!payload.ok()) {
    return payload.status();
  }
  ByteReader in(payload.value(), kOrigin);
  PolicyOptions options;
  const std::uint32_t feature_count = in.U32();
  const std::uint32_t hidden = in.U32();
  const std::uint32_t layers = in.U32();
  options.seed = in.U64();
  options.learning_rate = in.F64();
  if (in.ok() && (feature_count == 0 || feature_count > 4096 || hidden == 0 ||
                  hidden > 4096 || layers == 0 || layers > 64)) {
    in.Fail("architecture out of range");
  }
  // Each head holds at least `layers` recurrent matrices of 4*hidden x
  // hidden doubles; refuse an architecture the payload cannot hold before
  // it sizes the network.
  in.Fits(2ull * layers * 4 * hidden * hidden, sizeof(double));
  if (!in.ok()) {
    return in.Finish();
  }
  options.feature_count = static_cast<int>(feature_count);
  options.hidden = static_cast<int>(hidden);
  options.layers = static_cast<int>(layers);

  PolicyNet policy(options);
  ReadParameters(in, &policy.priority_, "priority");
  ReadParameters(in, &policy.workers_, "worker");
  const Status status = in.Finish();
  if (!status.ok()) {
    return status;
  }
  return policy;
}

std::uint64_t PolicyNet::WeightsHash() const { return Fnv1a(Encode()); }

Status PolicyNet::Save(const std::string& path) const {
  return WriteFileAtomic(path, Encode());
}

StatusOr<PolicyNet> PolicyNet::Load(const std::string& path) {
  StatusOr<std::string> file = ReadFile(path);
  if (!file.ok()) {
    return file.status();
  }
  return Decode(file.value());
}

}  // namespace lyra::rl
