#include "common/status.h"

namespace disagg {

namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kNotFound:
      return "NotFound";
    case Status::Code::kCorruption:
      return "Corruption";
    case Status::Code::kInvalidArgument:
      return "InvalidArgument";
    case Status::Code::kIOError:
      return "IOError";
    case Status::Code::kBusy:
      return "Busy";
    case Status::Code::kAborted:
      return "Aborted";
    case Status::Code::kTimedOut:
      return "TimedOut";
    case Status::Code::kNotSupported:
      return "NotSupported";
    case Status::Code::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

}  // namespace

const std::string& Status::EmptyMessage() {
  static const std::string kEmpty;
  return kEmpty;
}

std::string Status::ToString() const {
  std::string out = CodeName(code());
  if (!message().empty()) {
    out += ": ";
    out += message();
  }
  return out;
}

}  // namespace disagg
