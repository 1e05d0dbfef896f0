#ifndef DISAGG_SIM_ENGINE_REGISTRY_H_
#define DISAGG_SIM_ENGINE_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/engines.h"

namespace disagg {
namespace sim {

/// Canonical names of every RowEngine architecture. The single source of
/// truth shared by the conformance tests and the chaos harness — adding an
/// engine here enrolls it in both.
const std::vector<std::string>& RowEngineNames();

/// The "+slog" variants: every RowEngine architecture with its private WAL
/// tier swapped for a tag of an engine-owned shared-log fleet
/// (`RowEngine::shared_log()` exposes it). Data-path behaviour is
/// otherwise identical — these enroll in the chaos harness alongside the
/// legacy names.
const std::vector<std::string>& SharedLogRowEngineNames();

/// The "+offload" variants: every RowEngine architecture with its
/// compute-local lock table swapped for the memory-node executor's lock
/// service (`RowEngine::concurrency_offload()` exposes the bundle). Every
/// row-lock acquire/release becomes one RPC to the pool node; the data
/// path is otherwise identical. Enrolled in the chaos harness alongside
/// the legacy and "+slog" names (`sim::ChaosEngineNames()`).
const std::vector<std::string>& OffloadRowEngineNames();

/// The architecture under a registry name, with every "+slog" and
/// "+offload" suffix removed: "aurora+slog+offload" -> "aurora".
std::string BaseEngineName(const std::string& name);

/// Builds the named engine on `fabric` (which the engine may ignore, e.g.
/// the monolithic baseline). Accepts the legacy names and the "+slog" /
/// "+offload" variants. Returns nullptr for unknown names.
std::unique_ptr<RowEngine> MakeRowEngine(const std::string& name,
                                         Fabric* fabric);

}  // namespace sim
}  // namespace disagg

#endif  // DISAGG_SIM_ENGINE_REGISTRY_H_
