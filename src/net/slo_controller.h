#ifndef DISAGG_NET_SLO_CONTROLLER_H_
#define DISAGG_NET_SLO_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/histogram.h"
#include "common/status.h"
#include "net/fabric.h"

namespace disagg {

/// Multi-tenant SLO control plane.
///
/// Tenants declare p99 latency targets on the fabric (`Fabric::DeclareSlo`).
/// The load driver records one observation per completed op, ingests each
/// partition's observations and calls `EndEpoch` at every virtual-time epoch
/// barrier. Each epoch the controller compares
/// every declared tenant's observed p99 against its target and steers two
/// actuators, in escalation order:
///
///   1. WFQ weight (`TenantControl::weight`): a missing tenant's share of
///      every constrained resource is raised multiplicatively (damped by
///      `gain`, at most doubling per epoch); a tenant comfortably beating
///      its target returns headroom. No effect unless the congestion config
///      enabled SFQ (`tenant_weights` non-empty).
///   2. Admission bound (`TenantControl::max_backlog_ns`): seeded at
///      `backlog_fraction x target`; tightened while missing (ops that would
///      queue past the bound are refused `Busy` instead of blowing the
///      tail), relaxed while meeting. The bound never leaves
///      `[backlog_min_fraction, backlog_max_fraction] x target`.
///
/// A tenant whose observed/target ratio lands in the deadband
/// `[deadband_lo, 1.0]` is *meeting*: no actuator moves, which makes the
/// deadband the controller's fixed point under stationary load. Steps are
/// proportional to the miss, so they vanish near the deadband edges — the
/// loop converges instead of hunting.
///
/// Infeasibility: a tenant that keeps missing for `infeasible_epochs`
/// consecutive epochs with every actuator saturated is flagged infeasible
/// and its actuation is FROZEN at the saturated values — the declared SLO
/// set is reported as impossible rather than oscillated around.
///
/// Determinism: actuation happens only inside `EndEpoch`, which the load
/// driver calls at epoch barriers while no ops are in flight. The driver
/// accumulates per-partition `Sample`s and ingests them in
/// partition-id order; `Sample::Merge` is commutative and associative over
/// that order, so the controller's inputs — and therefore every decision —
/// are bit-identical at any thread count.
class SloController {
 public:
  struct Options {
    /// Minimum per-tenant latency samples in an epoch before the controller
    /// will steer that tenant (thin evidence holds the actuators).
    uint64_t min_samples = 16;
    /// Damping of the multiplicative weight step (factor = 1 + gain*excess).
    double gain = 0.4;
    /// Lower edge of the meeting deadband (observed/target in
    /// [deadband_lo, 1] = meeting, hold actuators).
    double deadband_lo = 0.80;
    double min_weight = 0.125;
    double max_weight = 64.0;
    /// Consecutive no-change epochs before a tenant counts as converged.
    uint32_t converge_epochs = 3;
    /// Consecutive saturated-and-missing epochs before the infeasible flag.
    uint32_t infeasible_epochs = 4;
    /// Admission-bound actuation (disable to run the weight only).
    bool actuate_admission = true;
    double backlog_fraction = 1.0;      ///< initial bound = fraction*target
    double backlog_min_fraction = 0.25; ///< tightening floor
    double backlog_max_fraction = 4.0;  ///< relaxation ceiling
  };

  SloController(Fabric* fabric, Options opts);

  /// Per-tenant observations accumulated over one epoch. Additive and
  /// commutative so partition ingestion order cannot affect decisions.
  struct Sample {
    uint64_t ops = 0;   ///< all completed attempts
    uint64_t ok = 0;    ///< successful ops (the latency population)
    uint64_t busy = 0;  ///< admission refusals (excluded from latency)
    uint64_t err = 0;   ///< other failures (excluded from latency)
    Histogram latency;

    void Add(uint64_t latency_ns, const Status& st);
    void Merge(const Sample& other);
  };
  using EpochObservations = std::map<uint32_t, Sample>;

  /// Merges one partition's epoch of observations (the load driver calls
  /// it at the barrier in partition-id order).
  void Ingest(const EpochObservations& obs);

  /// Closes the control epoch ending at `epoch_end_ns`: runs the feedback
  /// step over the epoch's observations, publishes any changed tenant
  /// controls to the fabric's congestion state, and clears the observation
  /// buffer. Must be called with no ops in flight.
  void EndEpoch(uint64_t epoch_end_ns);

  /// Controller-visible state of one tenant.
  struct TenantState {
    SloSpec spec;
    double weight = 1.0;
    uint64_t backlog_bound_ns = 0;    ///< 0 = not actuating admission
    double observed_p99_ns = 0.0;     ///< last epoch with enough samples
    uint64_t epoch_ops = 0;           ///< ops seen in that epoch
    uint64_t epoch_busy = 0;          ///< refusals in that epoch
    bool meeting = false;
    uint32_t stable_epochs = 0;       ///< consecutive epochs w/o actuation
    uint32_t saturated_epochs = 0;    ///< consecutive saturated misses
    bool infeasible = false;
  };

  TenantState StateFor(uint32_t tenant) const;
  /// Every declared tenant is either in the deadband long enough to count
  /// as converged, pinned at an actuator clamp, or flagged infeasible.
  bool AllConverged() const;
  bool AnyInfeasible() const;
  uint64_t epochs() const { return epochs_; }

  /// One line per tenant: target, observed, actuators, flags.
  std::string ToString() const;

 private:
  TenantState& EnsureTenant(uint32_t tenant, const SloSpec& spec);
  void PublishControls();

  Fabric* const fabric_;
  const Options opts_;
  EpochObservations obs_;
  std::map<uint32_t, TenantState> tenants_;
  uint64_t epochs_ = 0;
};

}  // namespace disagg

#endif  // DISAGG_NET_SLO_CONTROLLER_H_
