// Copyright 2026 The ONEX Reproduction Authors.
// RocksDB-style Status / Result error handling. The library never throws;
// fallible operations (I/O, configuration validation) return Status or
// Result<T>, hot paths use assertions only.

#ifndef ONEX_UTIL_STATUS_H_
#define ONEX_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace onex {

/// Outcome of a fallible operation. Cheap to copy when OK (no allocation).
class Status {
 public:
  /// Error categories. Kept deliberately small; the message carries detail.
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kIOError,
    kCorruption,
    kOutOfRange,
    kNotSupported,
    /// The caller's CancelToken fired while the operation was running.
    kCancelled,
    /// The caller's ExecContext deadline passed mid-operation.
    kDeadlineExceeded,
    /// The operation could not get the memory it needed.
    kResourceExhausted,
  };

  /// Default-constructed Status is OK.
  Status() = default;

  /// Named constructors, mirroring rocksdb::Status.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(Code::kOutOfRange, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(Code::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(Code::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }

  /// True for the two interruption codes an ExecContext can raise —
  /// the "stopped early, partial results may exist" family, as opposed
  /// to genuine failures.
  bool interrupted() const {
    return code_ == Code::kCancelled || code_ == Code::kDeadlineExceeded;
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }

  /// Human-readable description, e.g. "IOError: cannot open foo.tsv".
  std::string ToString() const {
    if (ok()) return "OK";
    std::string prefix;
    switch (code_) {
      case Code::kInvalidArgument: prefix = "InvalidArgument"; break;
      case Code::kNotFound:        prefix = "NotFound"; break;
      case Code::kIOError:         prefix = "IOError"; break;
      case Code::kCorruption:      prefix = "Corruption"; break;
      case Code::kOutOfRange:      prefix = "OutOfRange"; break;
      case Code::kNotSupported:    prefix = "NotSupported"; break;
      case Code::kCancelled:       prefix = "Cancelled"; break;
      case Code::kDeadlineExceeded: prefix = "DeadlineExceeded"; break;
      case Code::kResourceExhausted: prefix = "ResourceExhausted"; break;
      case Code::kOk:              prefix = "OK"; break;
    }
    return message_.empty() ? prefix : prefix + ": " + message_;
  }

  const std::string& message() const { return message_; }

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_ = Code::kOk;
  std::string message_;
};

/// A value or an error. Minimal expected<T, Status> for C++20 without
/// std::expected. Access to value() requires ok().
template <typename T>
class Result {
 public:
  /// Implicit from value: `return some_t;`.
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}
  /// Implicit from error status: `return Status::IOError(...)`.
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result from Status requires an error status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  /// Returns the value or a fallback when in error state.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace onex

#endif  // ONEX_UTIL_STATUS_H_
