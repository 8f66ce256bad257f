// Reply-document helpers shared by the service core (engine-side command
// handlers) and the event loop (connection-side parse/overload errors). Every
// reply is an object with "ok" plus either result fields or "code"/"error".
#ifndef SRC_SVC_REPLIES_H_
#define SRC_SVC_REPLIES_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

#include "src/common/json.h"
#include "src/common/status.h"

namespace lyra::svc {

inline const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kDataLoss:
      return "data_loss";
  }
  return "unknown";
}

inline JsonValue ErrorReply(const char* code, const std::string& message) {
  JsonValue reply = JsonValue::MakeObject();
  reply.Set("ok", JsonValue::MakeBool(false));
  reply.Set("code", JsonValue::MakeString(code));
  reply.Set("error", JsonValue::MakeString(message));
  return reply;
}

inline JsonValue StatusReply(const Status& status) {
  return ErrorReply(CodeName(status.code()), status.message());
}

// not_found for a job id a client sent (engine cancel, query_job, migrate).
inline JsonValue NoSuchJobReply(std::int64_t job) {
  return ErrorReply("not_found", "no such job: " + std::to_string(job));
}

inline JsonValue OkReply() {
  JsonValue reply = JsonValue::MakeObject();
  reply.Set("ok", JsonValue::MakeBool(true));
  return reply;
}

// A request's numeric "seq" field. Every reply echoes it (EchoSeq), so
// pipelining clients can assert per-connection reply order without parsing
// result fields.
inline std::optional<double> SeqOf(const JsonValue& request) {
  const JsonValue* seq = request.Find("seq");
  return seq != nullptr && seq->is_number() ? std::optional(seq->AsDouble())
                                            : std::nullopt;
}

inline void EchoSeq(std::optional<double> seq, JsonValue& reply) {
  if (seq.has_value()) {
    reply.Set("seq", JsonValue::MakeNumber(*seq));
  }
}

// Reads a request's wire "job" id for `cmd`: an integer in [0, 2^53], the
// range a double carries exactly. Anything else is InvalidArgument, checked
// before any id arithmetic so no id can alias another job.
// Hint, in milliseconds, that clients receive with an `overloaded` rejection.
inline constexpr double kRetryAfterMs = 50.0;

// The rejection for an engine command that finds the engine queue full,
// whether the front end shed it on the saturation hint or Enqueue refused it.
// Callers echo the request's seq after it.
inline JsonValue OverloadedReply() {
  JsonValue reply = ErrorReply("overloaded", "command queue full");
  reply.Set("retry_after_ms", JsonValue::MakeNumber(kRetryAfterMs));
  return reply;
}

inline StatusOr<std::int64_t> JobIdField(const JsonValue& request,
                                         const char* cmd) {
  const JsonValue* job = request.Find("job");
  if (job == nullptr || !job->is_number()) {
    return Status::InvalidArgument(std::string(cmd) +
                                   " requires a numeric \"job\"");
  }
  const double id = job->AsDouble();
  if (!(id >= 0.0 && id <= 9007199254740992.0) || id != std::floor(id)) {
    return Status::InvalidArgument(std::string(cmd) +
                                   ": \"job\" must be an integer in [0, 2^53], "
                                   "got " + job->Dump());
  }
  return static_cast<std::int64_t>(id);
}

}  // namespace lyra::svc

#endif  // SRC_SVC_REPLIES_H_
