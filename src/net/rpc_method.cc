#include "net/rpc_method.h"

#include <deque>
#include <mutex>
#include <unordered_map>

namespace disagg {

namespace {

/// The process-wide name table. A function-local static, so a namespace-
/// scope `RpcMethod` in any translation unit may intern during static
/// initialization, whatever the order the units run in.
struct MethodTable {
  std::mutex mu;
  std::deque<std::string> names;  // id - 1 -> name; a deque never moves them
  std::unordered_map<std::string_view, uint32_t> ids;  // views into `names`
};

MethodTable& Table() {
  static MethodTable table;
  return table;
}

}  // namespace

RpcMethod::RpcMethod(std::string_view name) {
  MethodTable& t = Table();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.ids.find(name);
  if (it == t.ids.end()) {
    const std::string& stored = t.names.emplace_back(name);
    it = t.ids.emplace(stored, static_cast<uint32_t>(t.names.size())).first;
  }
  id_ = it->second;
  name_ = &t.names[id_ - 1];
}

}  // namespace disagg
