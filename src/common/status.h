// Status / Result error handling for florcpp.
//
// Following the RocksDB / Arrow idiom from the session guides, no exceptions
// cross public API boundaries. Fallible operations return `Status` (or
// `Result<T>` when they also produce a value). `FLOR_RETURN_IF_ERROR` and
// `FLOR_ASSIGN_OR_RETURN` keep call sites compact.

#ifndef FLOR_COMMON_STATUS_H_
#define FLOR_COMMON_STATUS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace flor {

/// Machine-readable category of a `Status`.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kCorruption = 6,
  kIOError = 7,
  kNotSupported = 8,
  kInternal = 9,
  kReplayAnomaly = 10,  ///< deferred correctness check failed (paper §5.2.2)
  kAborted = 11,
  kUnavailable = 12,  ///< service is draining/closed; retry elsewhere
};

/// Returns a stable human-readable name ("OK", "Corruption", ...).
const char* StatusCodeName(StatusCode code);

/// True exactly when `code` is the numeric value of a StatusCode
/// enumerator. Decoders that transport a StatusCode as an integer (e.g.
/// the fork runner's worker error files) must validate through
/// this rather than comparing against the numerically-last enumerator, so
/// adding a code means updating only this switch — which -Wswitch keeps in
/// sync with the enum.
constexpr bool IsValidStatusCode(int64_t code) {
  if (code < 0 || code > 255) return false;
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kCorruption:
    case StatusCode::kIOError:
    case StatusCode::kNotSupported:
    case StatusCode::kInternal:
    case StatusCode::kReplayAnomaly:
    case StatusCode::kAborted:
    case StatusCode::kUnavailable:
      return true;
  }
  return false;
}

/// Outcome of a fallible operation: a code plus a context message.
///
/// `Status` is cheap to copy in the OK case (empty message) and is used
/// pervasively instead of exceptions.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ReplayAnomaly(std::string msg) {
    return Status(StatusCode::kReplayAnomaly, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsReplayAnomaly() const { return code_ == StatusCode::kReplayAnomaly; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

/// Either a value of type `T` or a non-OK `Status`.
///
/// Stored as two members rather than a std::variant<T, Status>: the status
/// is always constructed, so no path reads a half-initialized alternative
/// (gcc 12 at -O2+ cannot prove that for the variant and warns
/// -Wmaybe-uninitialized inside its std::string).
template <typename T>
class Result {
 public:
  /// Implicit from value: `return some_t;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from error status: `return Status::NotFound(...)`.
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return value_.has_value(); }

  /// OK whenever ok().
  const Status& status() const { return status_; }

  /// Precondition: ok(). Accessing the value of an error result aborts.
  const T& value() const& { return value_.value(); }
  T& value() & { return value_.value(); }
  T&& value() && { return std::move(value_).value(); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;  // OK while value_ is engaged
  std::optional<T> value_;
};

}  // namespace flor

/// Propagates a non-OK Status to the caller.
#define FLOR_RETURN_IF_ERROR(expr)                   \
  do {                                               \
    ::flor::Status _flor_st = (expr);                \
    if (!_flor_st.ok()) return _flor_st;             \
  } while (0)

#define FLOR_CONCAT_IMPL_(a, b) a##b
#define FLOR_CONCAT_(a, b) FLOR_CONCAT_IMPL_(a, b)

/// Evaluates a Result<T> expression; on error returns the Status, otherwise
/// moves the value into `lhs` (which may be a declaration).
#define FLOR_ASSIGN_OR_RETURN(lhs, expr)                            \
  FLOR_ASSIGN_OR_RETURN_IMPL_(FLOR_CONCAT_(_flor_res_, __LINE__),   \
                              lhs, expr)

#define FLOR_ASSIGN_OR_RETURN_IMPL_(res, lhs, expr)  \
  auto res = (expr);                                 \
  if (!res.ok()) return res.status();                \
  lhs = std::move(res).value();

#endif  // FLOR_COMMON_STATUS_H_
