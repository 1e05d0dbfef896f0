// The bench binaries' environment parser (bench/bench_common.h): a value it
// cannot hold as a uint32_t is ignored with a warning, never truncated into
// a thread or partition count. Only the parser runs here: no driver, no
// worker thread.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "bench_common.h"

namespace disagg::bench {
namespace {

constexpr const char* kVar = "DISAGG_SIM_THREADS";

TEST(BenchEnvTest, EnvU32RejectsNegativeOverflowAndTrailingJunk) {
  uint32_t value = 7;
  for (const char* bad : {"-1", "4294967296", "8x", "", " 8", "+8"}) {
    ASSERT_EQ(setenv(kVar, bad, /*overwrite=*/1), 0);
    EXPECT_FALSE(EnvU32(kVar, &value)) << "'" << bad << "'";
    EXPECT_EQ(value, 7u) << "'" << bad << "'";
  }

  ASSERT_EQ(setenv(kVar, "8", 1), 0);
  EXPECT_TRUE(EnvU32(kVar, &value));
  EXPECT_EQ(value, 8u);

  ASSERT_EQ(setenv(kVar, "4294967295", 1), 0);
  EXPECT_TRUE(EnvU32(kVar, &value));
  EXPECT_EQ(value, UINT32_MAX);

  ASSERT_EQ(unsetenv(kVar), 0);
  EXPECT_FALSE(EnvU32(kVar, &value));
  EXPECT_EQ(value, UINT32_MAX);
}

}  // namespace
}  // namespace disagg::bench
