#ifndef DISAGG_STORAGE_OBJECT_STORE_H_
#define DISAGG_STORAGE_OBJECT_STORE_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/fabric.h"

namespace disagg {

/// S3/XStore-like object storage service (the cheap, slow, durable bottom
/// tier: Snowflake's data files, Socrates' XStore). Objects are immutable:
/// a PUT to an existing key fails, matching the immutable-file design the
/// paper highlights for disaggregated OLAP (Sec. 2.2).
class ObjectStoreService {
 public:
  ObjectStoreService(Fabric* fabric, NodeId node);

  NodeId node() const { return node_; }
  size_t object_count() const;

 private:
  Status HandlePut(Slice req, std::string* resp, RpcServerContext* sctx);
  Status HandleGet(Slice req, std::string* resp, RpcServerContext* sctx);
  Status HandleList(Slice req, std::string* resp, RpcServerContext* sctx);

  Fabric* fabric_;
  NodeId node_;
  mutable std::mutex mu_;
  std::map<std::string, std::string> objects_;
};

/// Compute-side client for an ObjectStoreService.
class ObjectStoreClient {
 public:
  ObjectStoreClient(Fabric* fabric, NodeId node)
      : fabric_(fabric), node_(node) {}

  Status Put(NetContext* ctx, const std::string& key, Slice value);
  Result<std::string> Get(NetContext* ctx, const std::string& key);
  Result<std::vector<std::string>> List(NetContext* ctx,
                                        const std::string& prefix);

 private:
  Fabric* fabric_;
  NodeId node_;
};

}  // namespace disagg

#endif  // DISAGG_STORAGE_OBJECT_STORE_H_
