#ifndef DISAGG_NET_RPC_METHOD_H_
#define DISAGG_NET_RPC_METHOD_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace disagg {

/// An RPC method name interned once per process: a small id the fabric
/// dispatches on, plus the name, kept at a stable address for as long as the
/// process runs (`FabricOp::method` points at it). Interning the same name
/// twice, from any thread, yields the same id.
///
/// Construction takes the process-wide table's lock, so a call site holds
/// its method as a namespace-scope constant (or, for a name made at run
/// time, a member set once) rather than building one per call; the
/// constructor is `explicit` so a string literal never converts silently.
/// Method names are not wire bytes: no cost depends on them.
class RpcMethod {
 public:
  explicit RpcMethod(std::string_view name);

  /// 1-based; 0 never names a method.
  uint32_t id() const { return id_; }
  const std::string& name() const { return *name_; }

 private:
  uint32_t id_;
  const std::string* name_;
};

}  // namespace disagg

#endif  // DISAGG_NET_RPC_METHOD_H_
