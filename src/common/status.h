#ifndef DISAGG_COMMON_STATUS_H_
#define DISAGG_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <utility>

namespace disagg {

/// Error-handling type used across the library instead of exceptions,
/// following the RocksDB/Arrow idiom: functions that can fail return a
/// `Status` (or a `Result<T>`, see result.h) and the caller inspects it.
///
/// One word: a null pointer is OK, so the success path of every op builds,
/// moves and destroys nothing. A non-OK status owns its code and message on
/// the heap; copying one deep-copies them. A moved-from status reads OK.
class Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kNotFound,
    kCorruption,
    kInvalidArgument,
    kIOError,
    kBusy,
    kAborted,
    kTimedOut,
    kNotSupported,
    kUnavailable,
  };

  Status() = default;
  Status(const Status& other)
      : state_(other.state_ ? std::make_unique<State>(*other.state_)
                            : nullptr) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
    }
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Factory helpers; each optional message is kept for diagnostics.
  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg = "") {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status Busy(std::string msg = "") {
    return Status(Code::kBusy, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(Code::kAborted, std::move(msg));
  }
  static Status TimedOut(std::string msg = "") {
    return Status(Code::kTimedOut, std::move(msg));
  }
  static Status NotSupported(std::string msg = "") {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status Unavailable(std::string msg = "") {
    return Status(Code::kUnavailable, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  bool IsNotFound() const { return code() == Code::kNotFound; }
  bool IsCorruption() const { return code() == Code::kCorruption; }
  bool IsInvalidArgument() const { return code() == Code::kInvalidArgument; }
  bool IsIOError() const { return code() == Code::kIOError; }
  bool IsBusy() const { return code() == Code::kBusy; }
  bool IsAborted() const { return code() == Code::kAborted; }
  bool IsTimedOut() const { return code() == Code::kTimedOut; }
  bool IsNotSupported() const { return code() == Code::kNotSupported; }
  bool IsUnavailable() const { return code() == Code::kUnavailable; }

  Code code() const { return state_ ? state_->code : Code::kOk; }
  /// The diagnostic message; the empty string for OK.
  const std::string& message() const {
    return state_ ? state_->msg : EmptyMessage();
  }

  /// Human-readable "<code>: <message>" string for logging.
  std::string ToString() const;

 private:
  struct State {
    Code code;
    std::string msg;
  };

  Status(Code code, std::string msg)
      : state_(std::make_unique<State>(State{code, std::move(msg)})) {}

  static const std::string& EmptyMessage();

  std::unique_ptr<State> state_;  // null iff OK
};

/// Propagates a non-OK status to the caller. Usable only in functions
/// returning Status.
#define DISAGG_RETURN_NOT_OK(expr)             \
  do {                                         \
    ::disagg::Status _st = (expr);             \
    if (!_st.ok()) return _st;                 \
  } while (false)

}  // namespace disagg

#endif  // DISAGG_COMMON_STATUS_H_
