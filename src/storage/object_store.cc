#include "storage/object_store.h"

#include "common/coding.h"

namespace disagg {

namespace {

const RpcMethod kObjPut("obj.put");
const RpcMethod kObjGet("obj.get");
const RpcMethod kObjList("obj.list");

}  // namespace

ObjectStoreService::ObjectStoreService(Fabric* fabric, NodeId node)
    : fabric_(fabric), node_(node) {
  Node* n = fabric_->node(node_);
  n->RegisterHandler(kObjPut, [this](Slice req, std::string* resp,
                                     RpcServerContext* sctx) {
    return HandlePut(req, resp, sctx);
  });
  n->RegisterHandler(kObjGet, [this](Slice req, std::string* resp,
                                     RpcServerContext* sctx) {
    return HandleGet(req, resp, sctx);
  });
  n->RegisterHandler(kObjList, [this](Slice req, std::string* resp,
                                      RpcServerContext* sctx) {
    return HandleList(req, resp, sctx);
  });
}

size_t ObjectStoreService::object_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return objects_.size();
}

Status ObjectStoreService::HandlePut(Slice req, std::string* resp,
                                     RpcServerContext* sctx) {
  Slice key, value;
  if (!GetLengthPrefixedSlice(&req, &key) ||
      !GetLengthPrefixedSlice(&req, &value)) {
    return Status::InvalidArgument("malformed obj.put");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = objects_.emplace(key.ToString(), value.ToString());
  if (!inserted) {
    return Status::InvalidArgument("object exists (objects are immutable): " +
                                   key.ToString());
  }
  sctx->ChargeCompute(2000);
  resp->clear();
  return Status::OK();
}

Status ObjectStoreService::HandleGet(Slice req, std::string* resp,
                                     RpcServerContext* sctx) {
  Slice key;
  if (!GetLengthPrefixedSlice(&req, &key)) {
    return Status::InvalidArgument("malformed obj.get");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = objects_.find(key.ToString());
  if (it == objects_.end()) return Status::NotFound(key.ToString());
  *resp = it->second;
  sctx->ChargeCompute(2000);
  return Status::OK();
}

Status ObjectStoreService::HandleList(Slice req, std::string* resp,
                                      RpcServerContext* sctx) {
  Slice prefix;
  if (!GetLengthPrefixedSlice(&req, &prefix)) {
    return Status::InvalidArgument("malformed obj.list");
  }
  std::lock_guard<std::mutex> lock(mu_);
  resp->clear();
  std::vector<std::string> keys;
  for (const auto& [k, v] : objects_) {
    if (Slice(k).starts_with(prefix)) keys.push_back(k);
  }
  PutVarint64(resp, keys.size());
  for (const std::string& k : keys) PutLengthPrefixedSlice(resp, k);
  sctx->ChargeCompute(500 + 100 * objects_.size());
  return Status::OK();
}

Status ObjectStoreClient::Put(NetContext* ctx, const std::string& key,
                              Slice value) {
  std::string req;
  PutLengthPrefixedSlice(&req, key);
  PutLengthPrefixedSlice(&req, value);
  std::string resp;
  return fabric_->Call(ctx, node_, kObjPut, req, &resp);
}

Result<std::string> ObjectStoreClient::Get(NetContext* ctx,
                                           const std::string& key) {
  std::string req;
  PutLengthPrefixedSlice(&req, key);
  std::string resp;
  Status st = fabric_->Call(ctx, node_, kObjGet, req, &resp);
  if (!st.ok()) return st;
  return resp;
}

Result<std::vector<std::string>> ObjectStoreClient::List(
    NetContext* ctx, const std::string& prefix) {
  std::string req;
  PutLengthPrefixedSlice(&req, prefix);
  std::string resp;
  Status st = fabric_->Call(ctx, node_, kObjList, req, &resp);
  if (!st.ok()) return st;
  Slice in(resp);
  uint64_t n = 0;
  if (!GetVarint64(&in, &n)) return Status::Corruption("obj.list response");
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < n; i++) {
    Slice k;
    if (!GetLengthPrefixedSlice(&in, &k)) {
      return Status::Corruption("obj.list key");
    }
    keys.push_back(k.ToString());
  }
  return keys;
}

}  // namespace disagg
