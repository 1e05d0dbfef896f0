#include "net/partition.h"

namespace disagg {

namespace {
thread_local PartitionEffects* g_current_effects = nullptr;
}  // namespace

CongestionState::Shard* PartitionEffects::ShardFor(CongestionState* state) {
  auto it = congestion_shards.find(state);
  if (it == congestion_shards.end()) {
    it = congestion_shards
             .emplace(state, std::make_unique<CongestionState::Shard>(state))
             .first;
  }
  return it->second.get();
}

PartitionEffects* CurrentPartitionEffects() { return g_current_effects; }

PartitionEffectsScope::PartitionEffectsScope(PartitionEffects* effects)
    : prev_(g_current_effects) {
  g_current_effects = effects;
}

PartitionEffectsScope::~PartitionEffectsScope() { g_current_effects = prev_; }

}  // namespace disagg
