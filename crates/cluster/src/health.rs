//! The array health plane: liveness scoring and the chaos schedule.
//!
//! The cluster-tier analogue of the device scorer in
//! `fqos-server/src/fault.rs`: each array slot carries a
//! [`ArrayHealth::Healthy`] / `Suspect` / `Dead` / `Slow` verdict, fed by
//! two signals the control loop gathers once per tick:
//!
//! * a **heartbeat probe** — is the slot's engine alive, and does its own
//!   device scorer report a live-slow device (the array-level fail-slow
//!   symptom)?
//! * **submit outcomes** — every cluster handle that routes a submission
//!   to a fail-stopped slot records a refusal; refusals since the last
//!   tick count as a failed heartbeat (a dead array fails fast at the
//!   transport level, but *deciding* it is dead is policy).
//!
//! A failed signal promotes `Healthy → Suspect` immediately; `DEAD_AFTER`
//! (2) consecutive failures promote `Suspect → Dead`, the verdict that
//! triggers emergency evacuation in `QosCluster::control_tick`.
//! `SLOW_AFTER` (2) consecutive slow signals promote to `Slow` (the slot
//! is excluded as a migration/evacuation target); `RECOVER_AFTER` (4)
//! consecutive clean probes demote `Suspect`/`Slow` back to `Healthy`.
//! `Dead` is sticky — only an explicit `restore_array` resets it.
//!
//! Faults themselves are injected by a scripted [`ClusterFaultSchedule`]
//! (`kill:A@T,restore:A@T,slow:A@T[xF]`, ticks being control ticks) or the
//! live `kill_array` / `restore_array` calls; the scorer never sees the
//! script, only the symptoms.
//!
//! The plane is plain data; `QosCluster` wraps it in a mutex (lock class
//! `cluster.health`, field `health`).

use fqos_server::fault_tokens;

/// Service-time multiplier applied by `slow:A@T` tokens without an
/// explicit `x<factor>` suffix: the device grammar's default.
pub use fqos_server::DEFAULT_SLOW_FACTOR as DEFAULT_ARRAY_SLOW_FACTOR;

/// The scorer's verdict for one array slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayHealth {
    /// Serving normally.
    Healthy,
    /// At least one bad signal; not yet condemned.
    Suspect,
    /// Fail-stopped: enough consecutive failed heartbeats. Sticky until
    /// `restore_array`.
    Dead,
    /// Serving, but its own device scorer reports sustained degradation;
    /// excluded as a migration/evacuation target.
    Slow,
}

/// What happens to an array at a scheduled control tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterFaultKind {
    /// The array fail-stops at the start of the tick (its engine halts
    /// without draining; in-flight work is stranded).
    Kill,
    /// The array returns to service: a killed slot restarts (recovering
    /// from its WAL when it has one), a degraded one heals its devices.
    Restore,
    /// Every device of the array silently serves at `factor`× calibrated
    /// latency — the whole-array fail-slow case (thermal event, firmware
    /// regression). Admission is not told; detection is the scorer's job.
    Slow(u32),
}

/// One scripted array transition at the start of control tick `tick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterFaultEvent {
    /// Array slot index.
    pub array: usize,
    /// Control tick (1-based, matching `RebalanceEvent::tick`) at whose
    /// start the transition applies.
    pub tick: u64,
    /// Kill, restore or slow.
    pub kind: ClusterFaultKind,
}

/// A malformed or fleet-violating chaos schedule, reported at parse /
/// validation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterFaultSpecError {
    /// A token did not match `kind:<array>@<tick>[x<factor>]`.
    BadToken {
        /// The offending token.
        token: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The event keyword was not `kill`/`restore`/`slow`.
    UnknownEvent {
        /// The offending token.
        token: String,
        /// The unrecognized keyword.
        event: String,
    },
    /// An event names an array the fleet does not have.
    ArrayOutOfRange {
        /// Array index named by the event.
        array: usize,
        /// Arrays in the fleet.
        arrays: usize,
    },
    /// A `slow` event carries a factor that does not slow anything down.
    SlowFactorTooSmall {
        /// Array index named by the event.
        array: usize,
        /// The offending factor.
        factor: u32,
    },
}

impl std::fmt::Display for ClusterFaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterFaultSpecError::BadToken { token, reason } => {
                write!(f, "chaos schedule token '{token}': {reason}")
            }
            ClusterFaultSpecError::UnknownEvent { token, event } => write!(
                f,
                "chaos schedule token '{token}': unknown event '{event}' \
                 (expected kill, restore or slow)"
            ),
            ClusterFaultSpecError::ArrayOutOfRange { array, arrays } => write!(
                f,
                "chaos event names array {array} but the fleet has only {arrays} \
                 arrays (0..={})",
                arrays.saturating_sub(1)
            ),
            ClusterFaultSpecError::SlowFactorTooSmall { array, factor } => write!(
                f,
                "slow event for array {array} has factor {factor}; a fail-slow \
                 multiplier must be at least 2 (use restore to clear)"
            ),
        }
    }
}

impl std::error::Error for ClusterFaultSpecError {}

/// A scripted sequence of whole-array kills, restores and fail-slow
/// degradations, applied by the control loop at tick boundaries.
///
/// ```
/// use fqos_cluster::ClusterFaultSchedule;
/// let s = ClusterFaultSchedule::new()
///     .kill(1, 6)
///     .restore(1, 14)
///     .slow(2, 4, 8);
/// assert_eq!(
///     s,
///     ClusterFaultSchedule::parse("kill:1@6,restore:1@14,slow:2@4x8").unwrap()
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterFaultSchedule {
    events: Vec<ClusterFaultEvent>,
}

impl ClusterFaultSchedule {
    /// Empty schedule: no scripted array faults.
    pub fn new() -> Self {
        ClusterFaultSchedule::default()
    }

    /// Script `array` to fail-stop at the start of control tick `tick`.
    pub fn kill(mut self, array: usize, tick: u64) -> Self {
        self.events.push(ClusterFaultEvent {
            array,
            tick,
            kind: ClusterFaultKind::Kill,
        });
        self
    }

    /// Script `array` to return to service at the start of `tick`.
    pub fn restore(mut self, array: usize, tick: u64) -> Self {
        self.events.push(ClusterFaultEvent {
            array,
            tick,
            kind: ClusterFaultKind::Restore,
        });
        self
    }

    /// Script every device of `array` to serve at `factor`× calibrated
    /// latency from the start of `tick` (silent whole-array fail-slow).
    pub fn slow(mut self, array: usize, tick: u64, factor: u32) -> Self {
        self.events.push(ClusterFaultEvent {
            array,
            tick,
            kind: ClusterFaultKind::Slow(factor),
        });
        self
    }

    /// True when no events are scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scripted events, in insertion order.
    pub fn events(&self) -> &[ClusterFaultEvent] {
        &self.events
    }

    /// Events firing at control tick `tick`, in insertion order.
    pub fn at(&self, tick: u64) -> impl Iterator<Item = &ClusterFaultEvent> {
        self.events.iter().filter(move |e| e.tick == tick)
    }

    /// Parse a schedule spec: comma- or whitespace-separated
    /// `kill:<array>@<tick>`, `restore:<array>@<tick>` and
    /// `slow:<array>@<tick>[x<factor>]` tokens (factor defaults to
    /// [`DEFAULT_ARRAY_SLOW_FACTOR`], and must be at least 2) — the device
    /// grammar's tokens ([`fault_tokens`]) with the cluster's keywords.
    pub fn parse(spec: &str) -> Result<Self, ClusterFaultSpecError> {
        let mut schedule = ClusterFaultSchedule::new();
        for token in fault_tokens(spec, ["array", "tick"]) {
            let t = token
                .map_err(|(token, reason)| ClusterFaultSpecError::BadToken { token, reason })?;
            schedule = match t.kind {
                "kill" => schedule.kill(t.index, t.at),
                "restore" => schedule.restore(t.index, t.at),
                "slow" => match t.factor.unwrap_or(DEFAULT_ARRAY_SLOW_FACTOR) {
                    factor @ 0..=1 => {
                        return Err(ClusterFaultSpecError::SlowFactorTooSmall {
                            array: t.index,
                            factor,
                        })
                    }
                    factor => schedule.slow(t.index, t.at, factor),
                },
                other => {
                    return Err(ClusterFaultSpecError::UnknownEvent {
                        token: t.text.to_string(),
                        event: other.to_string(),
                    })
                }
            };
        }
        Ok(schedule)
    }

    /// Check every event against the fleet size.
    pub fn validate(&self, arrays: usize) -> Result<(), ClusterFaultSpecError> {
        for e in &self.events {
            if e.array >= arrays {
                return Err(ClusterFaultSpecError::ArrayOutOfRange {
                    array: e.array,
                    arrays,
                });
            }
            if let ClusterFaultKind::Slow(factor) = e.kind {
                if factor < 2 {
                    return Err(ClusterFaultSpecError::SlowFactorTooSmall {
                        array: e.array,
                        factor,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Consecutive bad ticks (failed heartbeat or submit refusals seen)
/// promoting `Suspect → Dead`. The evacuation latency bound: a kill at
/// tick `T` is evacuated no later than tick `T + DEAD_AFTER`.
const DEAD_AFTER: u32 = 2;

/// Consecutive slow ticks promoting `Suspect → Slow`.
const SLOW_AFTER: u32 = 2;

/// Consecutive clean ticks demoting `Suspect`/`Slow → Healthy`.
const RECOVER_AFTER: u32 = 4;

/// One tick's heartbeat observation for an array slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    /// The slot's engine answered (false for a fail-stopped slot).
    pub alive: bool,
    /// The engine's own device scorer reports a live-slow device.
    pub slow: bool,
}

#[derive(Debug, Clone, Copy)]
struct ArrayScore {
    state: ArrayHealth,
    bad_streak: u32,
    slow_streak: u32,
    clean_streak: u32,
    /// Submit refusals recorded by handles since the last tick.
    refusals: u64,
}

impl ArrayScore {
    fn fresh() -> Self {
        ArrayScore {
            state: ArrayHealth::Healthy,
            bad_streak: 0,
            slow_streak: 0,
            clean_streak: 0,
            refusals: 0,
        }
    }
}

/// Per-slot scorer state (behind the `cluster.health` lock) plus plane
/// counters.
#[derive(Debug)]
pub(crate) struct HealthPlane {
    scores: Vec<ArrayScore>,
    /// `Healthy → Suspect` promotions.
    pub suspects: u64,
    /// `Suspect → Dead` verdicts (each triggers one evacuation).
    pub verdicts_dead: u64,
    /// `Suspect → Slow` verdicts.
    pub verdicts_slow: u64,
    /// Demotions back to `Healthy`.
    pub recoveries: u64,
}

impl HealthPlane {
    pub fn new(arrays: usize) -> Self {
        HealthPlane {
            scores: vec![ArrayScore::fresh(); arrays],
            suspects: 0,
            verdicts_dead: 0,
            verdicts_slow: 0,
            recoveries: 0,
        }
    }

    /// Track a new slot (scale-out).
    pub fn push_array(&mut self) {
        self.scores.push(ArrayScore::fresh());
    }

    /// A handle routed a submission to `array` and was refused because the
    /// slot is fail-stopped.
    pub fn note_refusal(&mut self, array: usize) {
        if let Some(s) = self.scores.get_mut(array) {
            s.refusals += 1;
        }
    }

    /// Current verdict for `array`.
    #[cfg(test)]
    pub fn state(&self, array: usize) -> ArrayHealth {
        self.scores[array].state
    }

    /// Current verdict per slot.
    pub fn states(&self) -> Vec<ArrayHealth> {
        self.scores.iter().map(|s| s.state).collect()
    }

    /// Reset `array` to `Healthy` (after `restore_array`).
    pub fn reset(&mut self, array: usize) {
        self.scores[array] = ArrayScore::fresh();
    }

    /// Fold one tick's heartbeat into `array`'s score. Returns the new
    /// verdict exactly on the tick a promotion to `Dead` or `Slow` fires
    /// (the control loop evacuates on `Some(Dead)`).
    pub fn observe(&mut self, array: usize, probe: Probe) -> Option<ArrayHealth> {
        let s = &mut self.scores[array];
        let bad = !probe.alive || s.refusals > 0;
        s.refusals = 0;
        if s.state == ArrayHealth::Dead {
            return None; // sticky until restore_array
        }
        if bad {
            s.clean_streak = 0;
            s.slow_streak = 0;
            s.bad_streak += 1;
            if s.state == ArrayHealth::Healthy {
                s.state = ArrayHealth::Suspect;
                self.suspects += 1;
            }
            if s.bad_streak >= DEAD_AFTER {
                s.state = ArrayHealth::Dead;
                self.verdicts_dead += 1;
                return Some(ArrayHealth::Dead);
            }
            return None;
        }
        if probe.slow {
            s.bad_streak = 0;
            s.clean_streak = 0;
            s.slow_streak += 1;
            if s.state == ArrayHealth::Healthy {
                s.state = ArrayHealth::Suspect;
                self.suspects += 1;
            }
            if s.state != ArrayHealth::Slow && s.slow_streak >= SLOW_AFTER {
                s.state = ArrayHealth::Slow;
                self.verdicts_slow += 1;
                return Some(ArrayHealth::Slow);
            }
            return None;
        }
        s.bad_streak = 0;
        s.slow_streak = 0;
        if s.state != ArrayHealth::Healthy {
            s.clean_streak += 1;
            if s.clean_streak >= RECOVER_AFTER {
                s.state = ArrayHealth::Healthy;
                s.clean_streak = 0;
                self.recoveries += 1;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: Probe = Probe {
        alive: true,
        slow: false,
    };
    const DOWN: Probe = Probe {
        alive: false,
        slow: false,
    };
    const SLOW: Probe = Probe {
        alive: true,
        slow: true,
    };

    #[test]
    fn parse_round_trips_the_builder() {
        let s = ClusterFaultSchedule::new()
            .kill(0, 3)
            .restore(0, 9)
            .slow(2, 5, 4);
        assert_eq!(
            ClusterFaultSchedule::parse("kill:0@3,restore:0@9,slow:2@5x4").unwrap(),
            s
        );
        assert_eq!(s.at(5).count(), 1);
        assert!(s.validate(3).is_ok());
        assert!(matches!(
            s.validate(2),
            Err(ClusterFaultSpecError::ArrayOutOfRange {
                array: 2,
                arrays: 2
            })
        ));
    }

    #[test]
    fn parse_splits_on_every_separator_the_device_grammar_does() {
        let s = ClusterFaultSchedule::new().kill(1, 6).restore(1, 14);
        for sep in [",", " ", "\n", "\t", ", ", "\n\t", " ,\n"] {
            let spec = format!("kill:1@6{sep}restore:1@14{sep}");
            assert_eq!(ClusterFaultSchedule::parse(&spec).unwrap(), s, "{spec:?}");
        }
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        assert!(matches!(
            ClusterFaultSchedule::parse("explode:0@3"),
            Err(ClusterFaultSpecError::UnknownEvent { .. })
        ));
        assert!(matches!(
            ClusterFaultSchedule::parse("kill:0"),
            Err(ClusterFaultSpecError::BadToken { .. })
        ));
        assert!(matches!(
            ClusterFaultSchedule::parse("kill:0@3x2"),
            Err(ClusterFaultSpecError::BadToken { .. })
        ));
        assert!(matches!(
            ClusterFaultSchedule::parse("slow:1@4x1"),
            Err(ClusterFaultSpecError::SlowFactorTooSmall { .. })
        ));
        // A factor-less slow token takes the default.
        let s = ClusterFaultSchedule::parse("slow:1@4").unwrap();
        assert_eq!(
            s.events()[0].kind,
            ClusterFaultKind::Slow(DEFAULT_ARRAY_SLOW_FACTOR)
        );
    }

    #[test]
    fn dead_after_consecutive_failures_and_sticky() {
        let mut h = HealthPlane::new(2);
        assert_eq!(h.observe(0, DOWN), None);
        assert_eq!(h.state(0), ArrayHealth::Suspect);
        assert_eq!(h.observe(0, DOWN), Some(ArrayHealth::Dead));
        // Sticky: further probes change nothing until reset.
        assert_eq!(h.observe(0, OK), None);
        assert_eq!(h.state(0), ArrayHealth::Dead);
        h.reset(0);
        assert_eq!(h.state(0), ArrayHealth::Healthy);
        assert_eq!((h.suspects, h.verdicts_dead, h.verdicts_slow), (1, 1, 0));
    }

    #[test]
    fn one_clean_probe_clears_the_bad_streak() {
        let mut h = HealthPlane::new(1);
        assert_eq!(h.observe(0, DOWN), None);
        assert_eq!(h.observe(0, OK), None);
        // The streak restarted: one more failure is Suspect, not Dead.
        assert_eq!(h.observe(0, DOWN), None);
        assert_eq!(h.state(0), ArrayHealth::Suspect);
    }

    #[test]
    fn refusals_count_as_a_failed_heartbeat() {
        let mut h = HealthPlane::new(1);
        h.note_refusal(0);
        assert_eq!(h.observe(0, OK), None);
        assert_eq!(h.state(0), ArrayHealth::Suspect);
        h.note_refusal(0);
        assert_eq!(h.observe(0, OK), Some(ArrayHealth::Dead));
    }

    #[test]
    fn slow_promotes_then_recovers() {
        let mut h = HealthPlane::new(1);
        assert_eq!(h.observe(0, SLOW), None);
        assert_eq!(h.observe(0, SLOW), Some(ArrayHealth::Slow));
        for _ in 1..RECOVER_AFTER {
            assert_eq!(h.observe(0, OK), None);
            assert_eq!(h.state(0), ArrayHealth::Slow);
        }
        assert_eq!(h.observe(0, OK), None);
        assert_eq!(h.state(0), ArrayHealth::Healthy);
        assert_eq!(h.recoveries, 1);
    }
}
