// Status and Result<T>: the error-handling vocabulary used across GriddLeS.
//
// All fallible operations return either a Status (for void results) or a
// Result<T>. gcc 12 ships no <expected>, so this is a minimal, allocation-
// free equivalent tailored to what the library needs.
#pragma once

#include <cassert>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

namespace griddles {

/// Canonical error categories, loosely mirroring POSIX/absl codes.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kPermissionDenied,
  kUnavailable,    // transient: endpoint unreachable, retry may help
  kTimeout,
  kClosed,         // stream/channel closed by peer
  kIoError,
  kOutOfRange,
  kResourceExhausted,
  kFailedPrecondition,
  kAborted,
  kUnimplemented,
  kInternal,
  kDataLoss,       // payload verifiably wrong/incomplete: checksum
                   // mismatch, truncated transfer, dead stream peer
  kDeadlineExceeded,  // the caller's end-to-end budget ran out; the
                      // work was rejected or abandoned, not attempted
};

/// Human-readable name for an error code ("NOT_FOUND", ...).
std::string_view error_code_name(ErrorCode code) noexcept;

/// A success-or-error value carrying a code and a diagnostic message.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() noexcept : code_(ErrorCode::kOk) {}
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    assert(code != ErrorCode::kOk && "use Status::ok() for success");
  }

  static Status ok() noexcept { return Status(); }

  bool is_ok() const noexcept { return code_ == ErrorCode::kOk; }
  ErrorCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  /// "NOT_FOUND: no mapping for /data/job.sf" (or "OK").
  std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;
  }

 private:
  ErrorCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

// Convenience constructors, e.g. `return not_found("no such channel");`.
Status invalid_argument(std::string msg);
Status not_found(std::string msg);
Status already_exists(std::string msg);
Status permission_denied(std::string msg);
Status unavailable(std::string msg);
Status timeout_error(std::string msg);
Status closed_error(std::string msg);
Status io_error(std::string msg);
Status out_of_range(std::string msg);
Status resource_exhausted(std::string msg);
Status failed_precondition(std::string msg);
Status aborted_error(std::string msg);
Status unimplemented(std::string msg);
Status internal_error(std::string msg);
Status data_loss(std::string msg);
Status deadline_exceeded(std::string msg);

/// Either a value of type T or an error Status. Never holds an OK status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : rep_(std::in_place_index<0>, std::move(value)) {}  // NOLINT
  Result(Status status)                                                // NOLINT
      : rep_(std::in_place_index<1>, std::move(status)) {
    assert(!std::get<1>(rep_).is_ok() && "Result error must not be OK");
  }
  /// Converts a result whose value T can be built from, e.g. a handler's
  /// Result<Bytes> where a Result<Buffer> is expected.
  template <typename U>
    requires(!std::is_same_v<U, T> && std::is_constructible_v<T, U &&>)
  Result(Result<U>&& other)  // NOLINT
      : rep_(std::in_place_index<1>, other.status()) {
    if (other.is_ok()) rep_.template emplace<0>(std::move(other).value());
  }

  bool is_ok() const noexcept { return rep_.index() == 0; }
  explicit operator bool() const noexcept { return is_ok(); }

  /// The error status; OK when the result holds a value.
  Status status() const {
    return is_ok() ? Status::ok() : std::get<1>(rep_);
  }

  T& value() & {
    assert(is_ok());
    return std::get<0>(rep_);
  }
  const T& value() const& {
    assert(is_ok());
    return std::get<0>(rep_);
  }
  T&& value() && {
    assert(is_ok());
    return std::get<0>(std::move(rep_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  T value_or(T fallback) const& {
    return is_ok() ? std::get<0>(rep_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> rep_;
};

namespace internal {
inline Status as_status(Status s) { return s; }
template <typename T>
Status as_status(const Result<T>& r) {
  return r.status();
}
}  // namespace internal

}  // namespace griddles

/// Propagates a non-OK Status / Result from the current function.
#define GL_RETURN_IF_ERROR(expr)                                   \
  do {                                                             \
    if (auto gl_status_ = ::griddles::internal::as_status((expr)); \
        !gl_status_.is_ok()) {                                     \
      return gl_status_;                                           \
    }                                                              \
  } while (false)

#define GL_CONCAT_INNER_(a, b) a##b
#define GL_CONCAT_(a, b) GL_CONCAT_INNER_(a, b)

/// `GL_ASSIGN_OR_RETURN(auto v, compute());` — unwraps or propagates.
#define GL_ASSIGN_OR_RETURN(lhs, expr)                      \
  auto GL_CONCAT_(gl_result_, __LINE__) = (expr);           \
  if (!GL_CONCAT_(gl_result_, __LINE__).is_ok()) {          \
    return GL_CONCAT_(gl_result_, __LINE__).status();       \
  }                                                         \
  lhs = std::move(GL_CONCAT_(gl_result_, __LINE__)).value()
