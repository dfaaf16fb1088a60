//! The global control loop's state and pressure algebra.
//!
//! Each array already enforces the paper's per-interval guarantees; the
//! cluster controller only watches *pressure* — rejections, delays and
//! overflow beyond the array's ε-budget — and migrates one tenant per
//! tick from a saturated array to one with headroom. Migration is a
//! cooperative drain: the source keeps settling the tenant's in-flight
//! admissions (departed records stay resolvable at seal), the target
//! registers the tenant fresh, and a router epoch bump invalidates every
//! handle's route cache.

use fqos_server::OverloadPolicy;
use std::collections::{HashMap, HashSet};

/// One executed migration, as reported by
/// [`crate::QosCluster::control_tick`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceEvent {
    /// Control tick (1-based) the migration executed on.
    pub tick: u64,
    /// The migrated tenant.
    pub tenant: u64,
    /// Source array (budget saturated).
    pub from: usize,
    /// Target array (fleet headroom).
    pub to: usize,
    /// Reservation granted on the target (≥ the old reservation when the
    /// tenant's observed demand exceeded it).
    pub reserved: usize,
}

/// Cumulative per-array counters the controller differentiates per tick.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ArrayObs {
    pub rejected: u64,
    pub delayed: u64,
    pub overflow: u64,
}

/// Cumulative per-tenant counters. Keyed by `(array, tenant)`: a tenant's
/// counters restart from zero on every array it registers on, so the
/// baseline must not follow it across a migration.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TenantObs {
    pub rejected: u64,
    pub delayed: u64,
    pub overflow: u64,
    /// Guaranteed + overflow admissions (the demand basis).
    pub admitted_total: u64,
}

/// A tenant drained off `from`; its departed record's unsettled
/// admissions are the cluster law's `migrated_in_flight` term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Drained {
    pub tenant: u64,
    pub from: usize,
}

/// One emergency evacuation, executed by the control loop on the tick an
/// array's health verdict reached `Dead`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvacuationEvent {
    /// Control tick (1-based) the Dead verdict fired on.
    pub tick: u64,
    /// The condemned array.
    pub array: usize,
    /// `(tenant, survivor)` placements (register-on-target; the dead
    /// source has nothing left to drain). A tenant whose own departed
    /// record on the survivor is still draining is routed there now and
    /// registered by the first control tick after the drain.
    pub moved: Vec<(u64, usize)>,
    /// Tenants no survivor had room for; they are released from the
    /// router and must re-register.
    pub unplaced: Vec<u64>,
}

/// Controller state behind the `cluster.ctrl` lock.
#[derive(Debug, Default)]
pub(crate) struct CtrlState {
    /// Ticks taken so far.
    pub tick: u64,
    /// Tick of the last executed migration (cooldown basis).
    pub last_rebalance: Option<u64>,
    /// Per-array observation basis from the previous tick.
    pub prev: Vec<ArrayObs>,
    /// Per-tenant observation basis from the previous tick, keyed by
    /// `(array, tenant)`. Live records only: a departed record's counters
    /// are frozen and must never overwrite the baseline of the fresh
    /// record the tenant gets on (re-)registration.
    pub prev_tenants: HashMap<(usize, u64), TenantObs>,
    /// Every migration executed, in order.
    pub events: Vec<RebalanceEvent>,
    /// Drain records for the conservation audit, one per `(tenant,
    /// source)`: a tenant drained off the same array twice must not double
    /// its departed record's residue in `migrated_in_flight`.
    pub drained: HashSet<Drained>,
    /// Every emergency evacuation, in order.
    pub evacuations: Vec<EvacuationEvent>,
    /// Tenant → the array it is routed to but not yet registered on: its
    /// own departed record there is still draining (`DrainPending`).
    pub pending: HashMap<u64, usize>,
    /// Fleet-wide tenant → overload policy directory. The engines own the
    /// authoritative records, but a fail-stopped engine takes its records
    /// with it — evacuation re-registers tenants on survivors from here.
    pub directory: HashMap<u64, OverloadPolicy>,
}

/// Pressure of one observation delta against an ε-budget: rejections and
/// delays always count; overflow only counts past the array's statistical
/// allowance of `ε · S(M)` admissions per interval (§III-B2 runs windows
/// at tick cadence, so one tick ≈ one interval of budget).
pub(crate) fn pressure(delta: ArrayObs, epsilon: f64, limit: usize) -> u64 {
    let budget = (epsilon * limit as f64).ceil() as u64;
    delta.rejected + delta.delayed + delta.overflow.saturating_sub(budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_within_epsilon_budget_is_not_pressure() {
        // ε = 0.3 on S(M) = 10: up to 3 overflow admissions per tick are
        // the statistical path working as designed.
        let calm = ArrayObs {
            rejected: 0,
            delayed: 0,
            overflow: 3,
        };
        assert_eq!(pressure(calm, 0.3, 10), 0);
        let hot = ArrayObs {
            rejected: 2,
            delayed: 1,
            overflow: 5,
        };
        assert_eq!(pressure(hot, 0.3, 10), 2 + 1 + (5 - 3));
    }

    #[test]
    fn deterministic_arrays_have_zero_budget() {
        let obs = ArrayObs {
            rejected: 0,
            delayed: 0,
            overflow: 1,
        };
        assert_eq!(pressure(obs, 0.0, 5), 1, "ε = 0 ⇒ any overflow counts");
    }
}
