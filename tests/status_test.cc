// Status and Result<T>: codes and messages survive copies and moves, a
// moved-from status reads OK, and errors propagate through the macros.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace disagg {
namespace {

// OK is a null pointer: the success path carries one word.
static_assert(sizeof(Status) == sizeof(void*));

struct Factory {
  Status (*make)(std::string);
  Status::Code code;
  const char* name;
};

const std::vector<Factory>& Factories() {
  static const std::vector<Factory> kFactories = {
      {&Status::NotFound, Status::Code::kNotFound, "NotFound"},
      {&Status::Corruption, Status::Code::kCorruption, "Corruption"},
      {&Status::InvalidArgument, Status::Code::kInvalidArgument,
       "InvalidArgument"},
      {&Status::IOError, Status::Code::kIOError, "IOError"},
      {&Status::Busy, Status::Code::kBusy, "Busy"},
      {&Status::Aborted, Status::Code::kAborted, "Aborted"},
      {&Status::TimedOut, Status::Code::kTimedOut, "TimedOut"},
      {&Status::NotSupported, Status::Code::kNotSupported, "NotSupported"},
      {&Status::Unavailable, Status::Code::kUnavailable, "Unavailable"},
  };
  return kFactories;
}

void ExpectIs(const Status& s, Status::Code code, const std::string& msg) {
  EXPECT_EQ(s.code(), code);
  EXPECT_EQ(s.ok(), code == Status::Code::kOk);
  EXPECT_EQ(s.message(), msg);
  EXPECT_EQ(s.IsNotFound(), code == Status::Code::kNotFound);
  EXPECT_EQ(s.IsCorruption(), code == Status::Code::kCorruption);
  EXPECT_EQ(s.IsInvalidArgument(), code == Status::Code::kInvalidArgument);
  EXPECT_EQ(s.IsIOError(), code == Status::Code::kIOError);
  EXPECT_EQ(s.IsBusy(), code == Status::Code::kBusy);
  EXPECT_EQ(s.IsAborted(), code == Status::Code::kAborted);
  EXPECT_EQ(s.IsTimedOut(), code == Status::Code::kTimedOut);
  EXPECT_EQ(s.IsNotSupported(), code == Status::Code::kNotSupported);
  EXPECT_EQ(s.IsUnavailable(), code == Status::Code::kUnavailable);
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  ExpectIs(s, Status::Code::kOk, "");
  ExpectIs(Status::OK(), Status::Code::kOk, "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesKeepCodeAndMessageThroughCopiesAndMoves) {
  for (const Factory& f : Factories()) {
    SCOPED_TRACE(f.name);
    const std::string msg = std::string("what failed: ") + f.name;
    const Status original = f.make(msg);
    ExpectIs(original, f.code, msg);
    ExpectIs(f.make(""), f.code, "");

    Status copy = original;  // deep copy: the original is untouched
    ExpectIs(copy, f.code, msg);
    ExpectIs(original, f.code, msg);
    EXPECT_NE(&copy.message(), &original.message());

    Status assigned = Status::Busy("overwritten");
    assigned = original;
    ExpectIs(assigned, f.code, msg);
    assigned = Status::OK();  // copy-assigning OK drops the error
    ExpectIs(assigned, Status::Code::kOk, "");
    assigned = copy;
    ExpectIs(assigned, f.code, msg);
    assigned = *&assigned;  // self-assignment keeps it
    ExpectIs(assigned, f.code, msg);

    Status moved = std::move(copy);
    ExpectIs(moved, f.code, msg);
    ExpectIs(copy, Status::Code::kOk, "");  // NOLINT: moved-from reads OK

    Status move_assigned;
    move_assigned = std::move(moved);
    ExpectIs(move_assigned, f.code, msg);
    ExpectIs(moved, Status::Code::kOk, "");  // NOLINT: moved-from reads OK
  }
}

TEST(StatusTest, ToStringIsCodeNameAndMessage) {
  for (const Factory& f : Factories()) {
    EXPECT_EQ(f.make("").ToString(), f.name);
    EXPECT_EQ(f.make("key 7").ToString(), std::string(f.name) + ": key 7");
  }
  EXPECT_EQ(Status::OK().ToString(), "OK");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::IOError("disk"); };
  auto succeeds = []() -> Status { return Status::OK(); };
  int reached = 0;
  auto wrapper = [&](bool fail) -> Status {
    DISAGG_RETURN_NOT_OK(fail ? fails() : succeeds());
    reached++;
    return Status::OK();
  };
  const Status failed = wrapper(true);
  EXPECT_TRUE(failed.IsIOError());
  EXPECT_EQ(failed.message(), "disk");
  EXPECT_EQ(reached, 0);
  EXPECT_TRUE(wrapper(false).ok());
  EXPECT_EQ(reached, 1);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.status().message(), "nope");
  EXPECT_EQ(r.ValueOr(-1), -1);
  Result<int> copy = r;
  EXPECT_TRUE(copy.status().IsNotFound());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, StatusOfAnExpiringResultIsMovedOut) {
  Result<std::string> r = Status::Corruption("torn page");
  const Status taken = std::move(r).status();
  EXPECT_TRUE(taken.IsCorruption());
  EXPECT_EQ(taken.message(), "torn page");
  // A temporary's status outlives it.
  auto make = []() -> Result<int> { return Status::Busy("later"); };
  const Status& bound = make().status();
  EXPECT_TRUE(bound.IsBusy());
  EXPECT_EQ(bound.message(), "later");
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto make = [](bool ok) -> Result<std::string> {
    if (ok) return std::string("hello");
    return Status::Aborted("lost the race");
  };
  auto use = [&](bool ok) -> Status {
    std::string v;
    DISAGG_ASSIGN_OR_RETURN(v, make(ok));
    EXPECT_EQ(v, "hello");
    return Status::OK();
  };
  EXPECT_TRUE(use(true).ok());
  const Status failed = use(false);
  EXPECT_TRUE(failed.IsAborted());
  EXPECT_EQ(failed.message(), "lost the race");

  // Propagation into another Result, through a declaration.
  auto length = [&](bool ok) -> Result<size_t> {
    DISAGG_ASSIGN_OR_RETURN(std::string v, make(ok));
    return v.size();
  };
  ASSERT_TRUE(length(true).ok());
  EXPECT_EQ(*length(true), 5u);
  EXPECT_EQ(length(false).status().ToString(), "Aborted: lost the race");
}

}  // namespace
}  // namespace disagg
