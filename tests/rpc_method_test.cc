// The interned RPC method table: ids are stable per name, and a node's
// handlers can be registered from any thread while calls run on others.
// scripts/ci.sh runs this binary under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "net/fabric.h"
#include "net/interconnect.h"

namespace disagg {
namespace {

RpcHandler Answer(std::string reply) {
  return [reply](Slice, std::string* resp, RpcServerContext*) {
    resp->assign(reply);
    return Status::OK();
  };
}

TEST(RpcMethodTest, InterningIsByName) {
  const RpcMethod a("rpc_method_test.a");
  const RpcMethod again("rpc_method_test.a");
  const RpcMethod b("rpc_method_test.b");
  EXPECT_NE(a.id(), 0u);
  EXPECT_EQ(a.id(), again.id());
  EXPECT_EQ(&a.name(), &again.name());
  EXPECT_EQ(a.name(), "rpc_method_test.a");
  EXPECT_NE(a.id(), b.id());
}

TEST(RpcMethodTest, DispatchIsPerNodeAndRegistrationReplaces) {
  Fabric fabric;
  const NodeId x =
      fabric.AddNode("x", NodeKind::kMemory, InterconnectModel::Rdma());
  const NodeId y =
      fabric.AddNode("y", NodeKind::kMemory, InterconnectModel::Rdma());
  const RpcMethod m("rpc_method_test.per_node");
  fabric.node(x)->RegisterHandler(m, Answer("first"));
  NetContext ctx;
  std::string resp;
  ASSERT_TRUE(fabric.Call(&ctx, x, m, "", &resp).ok());
  EXPECT_EQ(resp, "first");
  EXPECT_TRUE(fabric.Call(&ctx, y, m, "", &resp).IsNotSupported());
  EXPECT_EQ(fabric.node(y)->handler(m), nullptr);

  fabric.node(x)->RegisterHandler(m, Answer("second"));
  ASSERT_TRUE(fabric.Call(&ctx, x, m, "", &resp).ok());
  EXPECT_EQ(resp, "second");
}

// Registrars intern fresh names and register them on a node while callers
// keep calling a method registered before they started. Every call must
// reach a handler, and every name registered must answer afterwards.
TEST(RpcMethodTest, RegistrationRacesCalls) {
  constexpr int kRegistrars = 3;
  constexpr int kCallers = 3;
  constexpr int kNamesEach = 40;
  Fabric fabric;
  const NodeId node =
      fabric.AddNode("svc", NodeKind::kMemory, InterconnectModel::Rdma());
  const RpcMethod base("rpc_method_test.base");
  fabric.node(node)->RegisterHandler(base, Answer("base"));

  std::atomic<int> registrars_left{kRegistrars};
  std::atomic<uint64_t> bad_calls{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kCallers; c++) {
    threads.emplace_back([&] {
      NetContext ctx;
      std::string resp;
      do {
        if (!fabric.Call(&ctx, node, base, "", &resp).ok() || resp != "base") {
          bad_calls.fetch_add(1, std::memory_order_relaxed);
        }
      } while (registrars_left.load(std::memory_order_acquire) > 0);
    });
  }
  for (int r = 0; r < kRegistrars; r++) {
    threads.emplace_back([&, r] {
      NetContext ctx;
      std::string resp;
      for (int i = 0; i < kNamesEach; i++) {
        const std::string name = "rpc_method_test.race." + std::to_string(r) +
                                 "." + std::to_string(i);
        const RpcMethod m(name);
        fabric.node(node)->RegisterHandler(m, Answer(name));
        if (!fabric.Call(&ctx, node, m, "", &resp).ok() || resp != name) {
          bad_calls.fetch_add(1, std::memory_order_relaxed);
        }
      }
      registrars_left.fetch_sub(1, std::memory_order_release);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad_calls.load(), 0u);

  NetContext ctx;
  std::string resp;
  for (int r = 0; r < kRegistrars; r++) {
    for (int i = 0; i < kNamesEach; i++) {
      const std::string name = "rpc_method_test.race." + std::to_string(r) +
                               "." + std::to_string(i);
      ASSERT_TRUE(fabric.Call(&ctx, node, RpcMethod(name), "", &resp).ok())
          << name;
      EXPECT_EQ(resp, name);
    }
  }
}

}  // namespace
}  // namespace disagg
