// Minimal status / status-or types. The public API reports recoverable errors
// through these instead of exceptions, per the project style rules.
#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "src/common/check.h"

namespace lyra {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kInternal,
  // Transient I/O failure (peer closed, connect refused); retryable.
  kUnavailable,
  // A stream or file ended mid-record; not retryable on the same stream.
  kDataLoss,
};

class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Holds either a value or an error status.
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : data_(std::move(value)) {}  // NOLINT(runtime/explicit)
  StatusOr(Status status) : data_(std::move(status)) {  // NOLINT(runtime/explicit)
    LYRA_CHECK(!std::get<Status>(data_).ok());
  }

  bool ok() const { return std::holds_alternative<T>(data_); }

  const T& value() const {
    LYRA_CHECK(ok());
    return std::get<T>(data_);
  }
  T& value() {
    LYRA_CHECK(ok());
    return std::get<T>(data_);
  }

  Status status() const {
    if (ok()) {
      return Status::Ok();
    }
    return std::get<Status>(data_);
  }

 private:
  std::variant<Status, T> data_;
};

}  // namespace lyra

#endif  // SRC_COMMON_STATUS_H_
