#include "sim/engine_registry.h"

#include <string_view>

#include "log/shared_log.h"
#include "memnode/executor.h"

namespace disagg {
namespace sim {

namespace {
constexpr char kSlogSuffix[] = "+slog";
constexpr char kOffloadSuffix[] = "+offload";

/// "<base><suffix>" with a non-empty base: stores the base, returns true.
bool StripSuffix(const std::string& name, std::string_view suffix,
                 std::string* base) {
  if (name.size() <= suffix.size() || !name.ends_with(suffix)) return false;
  *base = name.substr(0, name.size() - suffix.size());
  return true;
}
}  // namespace

const std::vector<std::string>& RowEngineNames() {
  static const std::vector<std::string> kNames = {
      "monolithic", "aurora", "polar", "socrates", "taurus",
  };
  return kNames;
}

const std::vector<std::string>& SharedLogRowEngineNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const std::string& base : RowEngineNames()) {
      names.push_back(base + kSlogSuffix);
    }
    return names;
  }();
  return kNames;
}

const std::vector<std::string>& OffloadRowEngineNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const std::string& base : RowEngineNames()) {
      names.push_back(base + kOffloadSuffix);
    }
    return names;
  }();
  return kNames;
}

std::string BaseEngineName(const std::string& name) {
  std::string base = name;
  while (StripSuffix(base, kOffloadSuffix, &base) ||
         StripSuffix(base, kSlogSuffix, &base)) {
  }
  return base;
}

std::unique_ptr<RowEngine> MakeRowEngine(const std::string& name,
                                         Fabric* fabric) {
  std::string base;
  if (StripSuffix(name, kOffloadSuffix, &base)) {
    // "<base>+offload": the base architecture with its compute-local lock
    // table swapped for the memory-node executor's lock service.
    auto engine = MakeRowEngine(base, fabric);
    if (engine != nullptr) {
      engine->AdoptConcurrencyOffload(
          std::make_unique<ConcurrencyOffload>(fabric));
    }
    return engine;
  }
  if (StripSuffix(name, kSlogSuffix, &base)) {
    // "<base>+slog": the base architecture with its private WAL tier
    // swapped for one tag of a shared-log fleet the engine owns.
    auto slog =
        std::make_unique<SharedLogService>(fabric, SharedLogService::Config{});
    EngineLogConfig log;
    log.mode = EngineLogConfig::Mode::kShared;
    log.shared_log = slog.get();
    std::unique_ptr<RowEngine> engine;
    if (base == "monolithic") {
      engine = std::make_unique<MonolithicDb>(log);
    } else if (base == "aurora") {
      engine = std::make_unique<AuroraDb>(fabric, ReplicatedSegment::Config{},
                                          log);
    } else if (base == "polar") {
      engine = std::make_unique<PolarDb>(fabric, log);
    } else if (base == "socrates") {
      engine = std::make_unique<SocratesDb>(fabric, 2, log);
    } else if (base == "taurus") {
      engine = std::make_unique<TaurusDb>(fabric, 3, 3, log);
    }
    if (engine != nullptr) engine->AdoptSharedLog(std::move(slog));
    return engine;
  }
  if (name == "monolithic") return std::make_unique<MonolithicDb>();
  if (name == "aurora") return std::make_unique<AuroraDb>(fabric);
  if (name == "polar") return std::make_unique<PolarDb>(fabric);
  if (name == "socrates") return std::make_unique<SocratesDb>(fabric);
  if (name == "taurus") return std::make_unique<TaurusDb>(fabric);
  return nullptr;
}

}  // namespace sim
}  // namespace disagg
