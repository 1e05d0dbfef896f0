#include "net/partition.h"

namespace disagg {

CongestionState::Shard* PartitionEffects::ShardFor(CongestionState* state) {
  auto it = congestion_shards.find(state);
  if (it == congestion_shards.end()) {
    it = congestion_shards
             .emplace(state, std::make_unique<CongestionState::Shard>(state))
             .first;
  }
  return it->second.get();
}

PartitionEffectsScope::PartitionEffectsScope(PartitionEffects* effects)
    : prev_(current_partition_effects) {
  current_partition_effects = effects;
}

PartitionEffectsScope::~PartitionEffectsScope() {
  current_partition_effects = prev_;
}

}  // namespace disagg
