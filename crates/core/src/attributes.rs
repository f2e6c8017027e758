//! FCM attributes and their combination rules.
//!
//! Every FCM carries "an associated set of attributes, such as criticality,
//! fault tolerance requirements, timing constraints, and throughput"
//! (paper §4.3). When FCMs are integrated, "the resulting FCM will usually
//! have the most stringent component values (e.g. max criticality, min
//! deadline), or an aggregate (e.g., sum of throughputs)" — that is exactly
//! what [`AttributeSet::combine`] implements. The allocation heuristics
//! use [`AttributeSet::importance`], "a weighted sum of its attribute
//! values, using predefined static relative weights" (§5.1).

use std::fmt;

use fcm_sched::{Job, JobId, Time};

/// Application criticality (higher = more critical). The paper's Table 1
/// uses small integers (e.g. 10 for the flight-critical process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Criticality(pub u32);

impl fmt::Display for Criticality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Fault-tolerance requirement expressed as a replication degree.
///
/// `FT = 1` means a simplex (no replication); `FT = 2` a duplex;
/// `FT = 3` triple modular redundancy (the paper's process p1 "has to be
/// replicated three times to be run in a TMR mode (FT = 3)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultTolerance(pub u8);

impl FaultTolerance {
    /// Simplex: a single copy.
    pub const SIMPLEX: FaultTolerance = FaultTolerance(1);
    /// Duplex: two copies.
    pub const DUPLEX: FaultTolerance = FaultTolerance(2);
    /// Triple modular redundancy.
    pub const TMR: FaultTolerance = FaultTolerance(3);

    /// Number of concurrent replicas required (at least 1).
    pub fn replicas(self) -> u8 {
        self.0.max(1)
    }

    /// Whether more than one copy is required.
    pub fn is_replicated(self) -> bool {
        self.replicas() > 1
    }
}

impl Default for FaultTolerance {
    fn default() -> Self {
        FaultTolerance::SIMPLEX
    }
}

impl fmt::Display for FaultTolerance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FT{}", self.replicas())
    }
}

/// The paper's per-process timing triple: earliest start time (EST), task
/// completion deadline (TCD), and computation time (CT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingConstraint {
    /// Earliest start time.
    pub est: Time,
    /// Absolute completion deadline.
    pub tcd: Time,
    /// Computation time.
    pub ct: Time,
}

impl TimingConstraint {
    /// Creates a timing triple ⟨EST, TCD, CT⟩.
    pub fn new(est: Time, tcd: Time, ct: Time) -> Self {
        TimingConstraint { est, tcd, ct }
    }

    /// The scheduling job equivalent, keyed by `id`.
    pub fn to_job(self, id: JobId) -> Job {
        Job::new(id, self.est, self.tcd, self.ct)
    }

    /// Slack `tcd − est − ct` (`None` when the window cannot fit the work).
    pub fn slack(self) -> Option<Time> {
        self.tcd.saturating_sub(self.est).checked_sub(self.ct)
    }

    /// Whether the constraint is satisfiable in isolation.
    pub fn is_well_formed(self) -> bool {
        self.ct > 0 && self.est + self.ct <= self.tcd
    }

    /// Work density `ct / (tcd − est)` in `[0, ∞)`; `∞` for a zero window.
    pub fn density(self) -> f64 {
        let window = self.tcd.saturating_sub(self.est);
        if window == 0 {
            f64::INFINITY
        } else {
            self.ct as f64 / window as f64
        }
    }

    /// The most-stringent combination used when two FCMs are *merged* into
    /// one schedulable unit: latest EST, earliest TCD, summed CT.
    ///
    /// The result may be infeasible (`!is_well_formed()`) — that is the
    /// signal the integration layer uses to reject a merge.
    pub fn merge_stringent(self, other: TimingConstraint) -> TimingConstraint {
        TimingConstraint {
            est: self.est.max(other.est),
            tcd: self.tcd.min(other.tcd),
            ct: self.ct + other.ct,
        }
    }

    /// The enveloping combination used when FCMs are *grouped* (they keep
    /// separate schedulable identities, the parent merely summarises):
    /// earliest EST, latest TCD, summed CT.
    pub fn group_envelope(self, other: TimingConstraint) -> TimingConstraint {
        TimingConstraint {
            est: self.est.min(other.est),
            tcd: self.tcd.max(other.tcd),
            ct: self.ct + other.ct,
        }
    }
}

impl fmt::Display for TimingConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{},{},{}⟩", self.est, self.tcd, self.ct)
    }
}

/// Sustained throughput requirement (units per tick); combined by
/// summation, per the paper.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Throughput(pub f64);

impl fmt::Display for Throughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/t", self.0)
    }
}

/// Information-security classification level (higher = more restricted);
/// combined by maximum (data flows up to the most restricted member).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SecurityLevel(pub u8);

impl fmt::Display for SecurityLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// The full attribute vector carried by every FCM.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AttributeSet {
    /// Task criticality.
    pub criticality: Criticality,
    /// Replication requirement.
    pub fault_tolerance: FaultTolerance,
    /// Timing triple; `None` for FCMs without hard timing constraints.
    pub timing: Option<TimingConstraint>,
    /// Throughput requirement.
    pub throughput: Throughput,
    /// Security classification.
    pub security: SecurityLevel,
}

impl AttributeSet {
    /// Builder-style setter for criticality.
    pub fn with_criticality(mut self, c: u32) -> Self {
        self.criticality = Criticality(c);
        self
    }

    /// Builder-style setter for fault tolerance.
    pub fn with_fault_tolerance(mut self, ft: FaultTolerance) -> Self {
        self.fault_tolerance = ft;
        self
    }

    /// Builder-style setter for the timing triple.
    pub fn with_timing(mut self, est: Time, tcd: Time, ct: Time) -> Self {
        self.timing = Some(TimingConstraint::new(est, tcd, ct));
        self
    }

    /// Builder-style setter for throughput.
    pub fn with_throughput(mut self, units_per_tick: f64) -> Self {
        self.throughput = Throughput(units_per_tick);
        self
    }

    /// Builder-style setter for security level.
    pub fn with_security(mut self, level: u8) -> Self {
        self.security = SecurityLevel(level);
        self
    }

    /// The paper's combination rule (§4.3): most-stringent component values
    /// — max criticality, max fault tolerance, max security — and
    /// aggregates — summed throughput. Timing combines per `kind`:
    /// stringent for merges, enveloping for groups.
    pub fn combine(
        &self,
        other: &AttributeSet,
        kind: crate::composition::CompositionKind,
    ) -> AttributeSet {
        use crate::composition::CompositionKind;
        let timing = match (self.timing, other.timing) {
            (Some(a), Some(b)) => Some(match kind {
                CompositionKind::Merge => a.merge_stringent(b),
                CompositionKind::Group => a.group_envelope(b),
            }),
            (t, None) | (None, t) => t,
        };
        AttributeSet {
            criticality: self.criticality.max(other.criticality),
            fault_tolerance: self.fault_tolerance.max(other.fault_tolerance),
            timing,
            throughput: Throughput(self.throughput.0 + other.throughput.0),
            security: self.security.max(other.security),
        }
    }

    /// Combines a non-empty sequence of attribute sets.
    ///
    /// Returns `None` for an empty iterator.
    pub fn combine_all<'a>(
        mut attrs: impl Iterator<Item = &'a AttributeSet>,
        kind: crate::composition::CompositionKind,
    ) -> Option<AttributeSet> {
        let first = *attrs.next()?;
        Some(attrs.fold(first, |acc, a| acc.combine(a, kind)))
    }

    /// The weighted-sum importance of §5.1, using `weights`.
    pub fn importance(&self, weights: &ImportanceWeights) -> f64 {
        let timing_urgency = self.timing.map_or(0.0, |t| t.density().min(1.0));
        weights.criticality * self.criticality.0 as f64
            + weights.fault_tolerance * self.fault_tolerance.replicas() as f64
            + weights.timing_urgency * timing_urgency
            + weights.throughput * self.throughput.0
            + weights.security * self.security.0 as f64
    }
}

impl fmt::Display for AttributeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.criticality, self.fault_tolerance)?;
        if let Some(t) = self.timing {
            write!(f, " {t}")?;
        }
        write!(f, " {} {}", self.throughput, self.security)
    }
}

/// The "predefined static relative weights" (§5.1) used to fold an
/// attribute vector into a scalar importance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImportanceWeights {
    /// Weight on criticality.
    pub criticality: f64,
    /// Weight on replication degree.
    pub fault_tolerance: f64,
    /// Weight on timing urgency (work density, capped at 1).
    pub timing_urgency: f64,
    /// Weight on throughput.
    pub throughput: f64,
    /// Weight on security level.
    pub security: f64,
}

impl Default for ImportanceWeights {
    /// Criticality dominates (the paper treats it as the first-class
    /// attribute), fault tolerance and timing follow, throughput and
    /// security contribute least.
    fn default() -> Self {
        ImportanceWeights {
            criticality: 1.0,
            fault_tolerance: 0.5,
            timing_urgency: 0.5,
            throughput: 0.1,
            security: 0.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composition::CompositionKind;

    #[test]
    fn fault_tolerance_constants() {
        assert_eq!(FaultTolerance::SIMPLEX.replicas(), 1);
        assert!(!FaultTolerance::SIMPLEX.is_replicated());
        assert_eq!(FaultTolerance::TMR.replicas(), 3);
        assert!(FaultTolerance::TMR.is_replicated());
        assert_eq!(FaultTolerance::default(), FaultTolerance::SIMPLEX);
        // Zero is clamped to one replica.
        assert_eq!(FaultTolerance(0).replicas(), 1);
    }

    #[test]
    fn timing_slack_and_density() {
        let t = TimingConstraint::new(2, 10, 3);
        assert!(t.is_well_formed());
        assert_eq!(t.slack(), Some(5));
        assert!((t.density() - 0.375).abs() < 1e-12);
        let tight = TimingConstraint::new(0, 2, 3);
        assert!(!tight.is_well_formed());
        assert_eq!(tight.slack(), None);
    }

    #[test]
    fn merge_stringent_detects_conflicts() {
        // The paper: triples that cannot share a processor produce an
        // infeasible merged constraint.
        let a = TimingConstraint::new(0, 6, 4);
        let b = TimingConstraint::new(0, 6, 4);
        let m = a.merge_stringent(b);
        assert_eq!(m, TimingConstraint::new(0, 6, 8));
        assert!(!m.is_well_formed());
        // Compatible triples stay feasible.
        let c = TimingConstraint::new(0, 12, 4);
        let d = TimingConstraint::new(0, 20, 4);
        assert!(c.merge_stringent(d).is_well_formed());
    }

    #[test]
    fn group_envelope_widens_window() {
        let a = TimingConstraint::new(2, 10, 3);
        let b = TimingConstraint::new(0, 30, 4);
        assert_eq!(a.group_envelope(b), TimingConstraint::new(0, 30, 7));
    }

    #[test]
    fn combine_takes_most_stringent_and_aggregates() {
        let a = AttributeSet::default()
            .with_criticality(10)
            .with_fault_tolerance(FaultTolerance::TMR)
            .with_timing(0, 10, 4)
            .with_throughput(2.0)
            .with_security(1);
        let b = AttributeSet::default()
            .with_criticality(3)
            .with_timing(2, 8, 2)
            .with_throughput(1.5)
            .with_security(4);
        let m = a.combine(&b, CompositionKind::Merge);
        assert_eq!(m.criticality, Criticality(10));
        assert_eq!(m.fault_tolerance, FaultTolerance::TMR);
        assert_eq!(m.timing, Some(TimingConstraint::new(2, 8, 6)));
        assert!((m.throughput.0 - 3.5).abs() < 1e-12);
        assert_eq!(m.security, SecurityLevel(4));
    }

    #[test]
    fn combine_with_missing_timing_keeps_the_present_one() {
        let a = AttributeSet::default().with_timing(0, 10, 2);
        let b = AttributeSet::default();
        assert_eq!(
            a.combine(&b, CompositionKind::Merge).timing,
            Some(TimingConstraint::new(0, 10, 2))
        );
        assert_eq!(
            b.combine(&a, CompositionKind::Group).timing,
            Some(TimingConstraint::new(0, 10, 2))
        );
    }

    #[test]
    fn combine_all_folds_in_order() {
        let sets = [
            AttributeSet::default()
                .with_criticality(1)
                .with_throughput(1.0),
            AttributeSet::default()
                .with_criticality(5)
                .with_throughput(2.0),
            AttributeSet::default()
                .with_criticality(3)
                .with_throughput(3.0),
        ];
        let c = AttributeSet::combine_all(sets.iter(), CompositionKind::Group).unwrap();
        assert_eq!(c.criticality, Criticality(5));
        assert!((c.throughput.0 - 6.0).abs() < 1e-12);
        assert!(AttributeSet::combine_all([].iter(), CompositionKind::Group).is_none());
    }

    #[test]
    fn importance_is_a_weighted_sum() {
        let attrs = AttributeSet::default()
            .with_criticality(10)
            .with_fault_tolerance(FaultTolerance::TMR)
            .with_timing(0, 10, 5)
            .with_throughput(2.0)
            .with_security(3);
        let w = ImportanceWeights::default();
        let expect = 1.0 * 10.0 + 0.5 * 3.0 + 0.5 * 0.5 + 0.1 * 2.0 + 0.1 * 3.0;
        assert!((attrs.importance(&w) - expect).abs() < 1e-12);
    }

    #[test]
    fn importance_orders_by_criticality_under_default_weights() {
        let hi = AttributeSet::default().with_criticality(10);
        let lo = AttributeSet::default().with_criticality(2);
        let w = ImportanceWeights::default();
        assert!(hi.importance(&w) > lo.importance(&w));
    }

    #[test]
    fn displays_are_compact() {
        let attrs = AttributeSet::default()
            .with_criticality(10)
            .with_fault_tolerance(FaultTolerance::TMR)
            .with_timing(0, 10, 4);
        let s = attrs.to_string();
        assert!(s.contains("C10"));
        assert!(s.contains("FT3"));
        assert!(s.contains("⟨0,10,4⟩"));
        assert_eq!(SecurityLevel(2).to_string(), "S2");
        assert_eq!(Throughput(1.5).to_string(), "1.5/t");
    }

    #[test]
    fn zero_window_density_is_infinite() {
        let t = TimingConstraint::new(5, 5, 1);
        assert!(t.density().is_infinite());
        assert!(!t.is_well_formed());
    }
}
