#include "net/slo_controller.h"

#include <algorithm>
#include <sstream>

namespace disagg {

SloController::SloController(Fabric* fabric, Options opts)
    : fabric_(fabric), opts_(opts) {}

void SloController::Sample::Add(uint64_t latency_ns, const Status& st) {
  ops++;
  if (st.ok()) {
    ok++;
    latency.Record(latency_ns);
  } else if (st.IsBusy()) {
    busy++;
  } else {
    err++;
  }
}

void SloController::Sample::Merge(const Sample& other) {
  ops += other.ops;
  ok += other.ok;
  busy += other.busy;
  err += other.err;
  latency.Merge(other.latency);
}

void SloController::Ingest(const EpochObservations& obs) {
  for (const auto& [tenant, sample] : obs) obs_[tenant].Merge(sample);
}

SloController::TenantState& SloController::EnsureTenant(uint32_t tenant,
                                                        const SloSpec& spec) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) {
    it->second.spec = spec;
    return it->second;
  }
  TenantState ts;
  ts.spec = spec;
  // Seed the weight from the congestion config so the controller's first
  // published table is a no-op relative to the operator's static setup.
  if (auto congestion = fabric_->congestion()) {
    ts.weight = congestion->config().WeightFor(tenant);
  }
  if (opts_.actuate_admission && spec.p99_target_ns > 0) {
    ts.backlog_bound_ns = static_cast<uint64_t>(
        opts_.backlog_fraction * static_cast<double>(spec.p99_target_ns));
  }
  return tenants_.emplace(tenant, ts).first->second;
}

void SloController::EndEpoch(uint64_t /*epoch_end_ns*/) {
  epochs_++;
  const std::map<uint32_t, SloSpec> specs = fabric_->slo_specs();
  bool controls_changed = false;

  for (const auto& [tenant, spec] : specs) {
    if (spec.p99_target_ns == 0) continue;  // best effort, nothing to steer
    TenantState& ts = EnsureTenant(tenant, spec);
    const Sample& s = obs_[tenant];
    ts.epoch_ops = s.ops;
    ts.epoch_busy = s.busy;

    if (s.latency.count() < opts_.min_samples) {
      // Thin evidence (an idle tenant): hold every actuator.
      ts.stable_epochs++;
      continue;
    }
    const double target = static_cast<double>(spec.p99_target_ns);
    const double observed = s.latency.Percentile(99.0);
    ts.observed_p99_ns = observed;
    if (ts.infeasible) continue;  // frozen: flagged sets never oscillate

    const double ratio = observed / target;
    bool changed = false;

    if (ratio > 1.0) {
      // Missing. Escalate: weight, then admission.
      ts.meeting = false;
      const double nw = std::clamp(
          ts.weight * std::min(2.0, 1.0 + opts_.gain * (ratio - 1.0)),
          opts_.min_weight, opts_.max_weight);
      if (nw != ts.weight) {
        ts.weight = nw;
        changed = true;
      }
      if (opts_.actuate_admission && ts.backlog_bound_ns > 0) {
        const uint64_t floor_ns = static_cast<uint64_t>(
            opts_.backlog_min_fraction * target);
        const uint64_t nb = std::max(
            floor_ns,
            static_cast<uint64_t>(static_cast<double>(ts.backlog_bound_ns) *
                                  0.8));
        if (nb != ts.backlog_bound_ns) {
          ts.backlog_bound_ns = nb;
          changed = true;
        }
      }
      if (changed) {
        ts.saturated_epochs = 0;
      } else if (++ts.saturated_epochs >= opts_.infeasible_epochs) {
        ts.infeasible = true;
      }
    } else if (ratio < opts_.deadband_lo) {
      // Comfortably beating the target: hand headroom back so other
      // tenants (and future churn) can use it. Mirrors the miss branch
      // with damped, clamped steps.
      ts.meeting = true;
      ts.saturated_epochs = 0;
      const double nw = std::clamp(
          ts.weight * std::max(0.5, 1.0 - opts_.gain * (opts_.deadband_lo -
                                                        ratio)),
          opts_.min_weight, opts_.max_weight);
      if (nw != ts.weight) {
        ts.weight = nw;
        changed = true;
      }
      if (opts_.actuate_admission && ts.backlog_bound_ns > 0) {
        const uint64_t cap_ns = static_cast<uint64_t>(
            opts_.backlog_max_fraction * target);
        const uint64_t nb = std::min(
            cap_ns,
            static_cast<uint64_t>(static_cast<double>(ts.backlog_bound_ns) *
                                  1.25));
        if (nb != ts.backlog_bound_ns) {
          ts.backlog_bound_ns = nb;
          changed = true;
        }
      }
    } else {
      // In the deadband: the fixed point. Touch nothing.
      ts.meeting = true;
      ts.saturated_epochs = 0;
    }

    if (changed) {
      ts.stable_epochs = 0;
      controls_changed = true;
    } else {
      ts.stable_epochs++;
    }
  }

  if (controls_changed || epochs_ == 1) PublishControls();
  obs_.clear();
}

void SloController::PublishControls() {
  if (auto congestion = fabric_->congestion()) {
    // Start from the operator's static weights so tenants without declared
    // SLOs keep their configured shares, then overlay the controlled ones.
    std::map<uint32_t, TenantControl> table;
    for (const auto& [tenant, w] : congestion->config().tenant_weights) {
      table[tenant].weight = w;
    }
    for (const auto& [tenant, ts] : tenants_) {
      table[tenant] = TenantControl{ts.weight, ts.backlog_bound_ns};
    }
    congestion->UpdateTenantControls(table);
  }
}

SloController::TenantState SloController::StateFor(uint32_t tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantState{} : it->second;
}

bool SloController::AllConverged() const {
  for (const auto& [tenant, ts] : tenants_) {
    if (ts.spec.p99_target_ns == 0) continue;
    if (ts.infeasible) continue;  // terminal (frozen) state
    if (ts.stable_epochs < opts_.converge_epochs) return false;
  }
  return true;
}

bool SloController::AnyInfeasible() const {
  for (const auto& [tenant, ts] : tenants_) {
    if (ts.infeasible) return true;
  }
  return false;
}

std::string SloController::ToString() const {
  std::ostringstream os;
  for (const auto& [tenant, ts] : tenants_) {
    os << "tenant " << tenant << ": target=" << ts.spec.p99_target_ns
       << "ns observed=" << static_cast<uint64_t>(ts.observed_p99_ns)
       << "ns weight=" << ts.weight << " bound=" << ts.backlog_bound_ns
       << "ns ops=" << ts.epoch_ops << " busy=" << ts.epoch_busy
       << (ts.meeting ? " MEETING" : " MISSING")
       << (ts.infeasible ? " INFEASIBLE" : "")
       << (ts.stable_epochs >= opts_.converge_epochs ? " CONVERGED" : "")
       << "\n";
  }
  return os.str();
}

}  // namespace disagg
