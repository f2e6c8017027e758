//! Deterministic fault injection for named IO sites.
//!
//! De Florio's survey argues fault handling belongs in the application
//! layer as *explicit, testable structure*; the AADL dependability
//! framework makes fault/recovery behaviour a first-class model you can
//! analyze. This module is that idea applied to our own durability
//! path: every IO operation a crash could tear is a **named site**, and
//! a [`FaultPlan`] decides — deterministically, from the plan alone —
//! which site hits fail and how.
//!
//! The plan is pure data (no clocks, no randomness): rule `k` fires on
//! the `n`-th hit that matches its site pattern, so a given (plan,
//! workload) pair always injects the same faults at the same points.
//! That is what lets the crash-point matrix in `fcm-serve` enumerate
//! *every* reachable IO site of a scripted session and simulate a crash
//! at each one.
//!
//! The module decides; it never performs IO itself. Callers thread a
//! [`FaultInjector`] through their IO layer and call
//! [`FaultInjector::hit`] before each gated operation:
//!
//! ```
//! use fcm_substrate::fault::{Fault, FaultInjector, FaultPlan};
//!
//! let plan = FaultPlan::parse("journal.*:eio@0..2").unwrap();
//! let inj = FaultInjector::new(&plan);
//! assert!(matches!(inj.hit("journal.append.write"), Fault::Fail(_)));
//! assert!(matches!(inj.hit("journal.append.flush"), Fault::Fail(_)));
//! assert!(matches!(inj.hit("journal.append.write"), Fault::Pass));
//! assert!(matches!(inj.hit("snapshot.rename"), Fault::Pass));
//! ```
//!
//! A crash-kind injection **latches**: once a `crash` fires, every
//! subsequent hit fails, modelling a dead process whose IO never
//! completes. [`FaultPlan::none`] is the production configuration — the
//! injector's passive path is a single bool load, and a `none` run is
//! byte-identical to a build without the shim.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::pool::Mutex;

/// How a matched site hit fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Generic IO error before any byte is transferred (EIO class).
    Eio,
    /// Out-of-space error before any byte is transferred (ENOSPC class).
    Enospc,
    /// The operation transfers a strict prefix of the data, then fails —
    /// the torn-write case recovery must tolerate.
    ShortWrite,
    /// The data is accepted but the flush/fsync fails, so nothing is
    /// guaranteed durable.
    FailedFsync,
    /// Simulated process death at this site: the operation does not
    /// happen, and every later hit fails too (the latch).
    Crash,
    /// Process death *mid-write*: a strict prefix is transferred, then
    /// the latch engages — the worst torn-state crash.
    CrashTorn,
}

impl FaultKind {
    /// The spec-string token for this kind.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            FaultKind::Eio => "eio",
            FaultKind::Enospc => "enospc",
            FaultKind::ShortWrite => "short",
            FaultKind::FailedFsync => "fsync",
            FaultKind::Crash => "crash",
            FaultKind::CrashTorn => "crash-torn",
        }
    }

    /// Whether this kind engages the crash latch.
    #[must_use]
    pub fn is_crash(self) -> bool {
        matches!(self, FaultKind::Crash | FaultKind::CrashTorn)
    }

    /// Whether the operation transfers a partial prefix before failing.
    #[must_use]
    pub fn is_torn(self) -> bool {
        matches!(self, FaultKind::ShortWrite | FaultKind::CrashTorn)
    }

    fn parse(token: &str) -> Result<FaultKind, String> {
        Ok(match token {
            "eio" => FaultKind::Eio,
            "enospc" => FaultKind::Enospc,
            "short" => FaultKind::ShortWrite,
            "fsync" => FaultKind::FailedFsync,
            "crash" => FaultKind::Crash,
            "crash-torn" => FaultKind::CrashTorn,
            other => {
                return Err(format!(
                    "unknown fault kind \"{other}\" (expected eio, enospc, short, fsync, crash, crash-torn)"
                ))
            }
        })
    }
}

/// One injection rule: a site pattern, a failure kind, and the window of
/// matching-hit ordinals (per rule, 0-based) on which it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Site pattern: exact id, or a prefix ending in `*`
    /// (`journal.*`), or bare `*` for every site.
    pub site: String,
    /// Failure kind injected when the rule fires.
    pub kind: FaultKind,
    /// First matching-hit ordinal that fires (inclusive).
    pub from: u64,
    /// One past the last firing ordinal; `u64::MAX` = open-ended.
    pub to: u64,
}

impl FaultRule {
    fn matches(&self, site: &str) -> bool {
        match self.site.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => site == self.site,
        }
    }
}

/// A deterministic fault schedule: an ordered list of [`FaultRule`]s.
/// The first rule whose site matches *and* whose window covers the
/// current matching-hit ordinal decides the outcome.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The rules, in priority order.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// The empty plan: every hit passes (production configuration).
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan { rules: Vec::new() }
    }

    /// Whether this plan can never inject anything.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.rules.is_empty()
    }

    /// A plan that simulates a crash on the `k`-th gated hit overall
    /// (0-based), the crash-point-matrix building block. `torn` selects
    /// [`FaultKind::CrashTorn`] (partial transfer before death).
    #[must_use]
    pub fn crash_at_hit(k: u64, torn: bool) -> FaultPlan {
        FaultPlan {
            rules: vec![FaultRule {
                site: "*".to_string(),
                kind: if torn {
                    FaultKind::CrashTorn
                } else {
                    FaultKind::Crash
                },
                from: k,
                to: k.saturating_add(1),
            }],
        }
    }

    /// Parses a plan spec: `;`-separated rules of the form
    /// `site[:kind][@window]` where `kind` defaults to `eio` and
    /// `window` is `N` (one hit), `N..M` (half-open), or `N..` (from N
    /// on); omitted = every matching hit.
    ///
    /// Examples: `journal.*:eio` (all journal writes fail forever),
    /// `journal.*:eio@0..6` (only the first six), `snapshot.rename:crash@0`.
    ///
    /// # Errors
    ///
    /// A malformed rule, kind, or window.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for raw in spec.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (head, window) = match raw.split_once('@') {
                Some((h, w)) => (h, Some(w)),
                None => (raw, None),
            };
            let (site, kind) = match head.rsplit_once(':') {
                Some((s, k)) => (s, FaultKind::parse(k)?),
                None => (head, FaultKind::Eio),
            };
            if site.is_empty() {
                return Err(format!("rule \"{raw}\" has an empty site pattern"));
            }
            let (from, to) = match window {
                None => (0, u64::MAX),
                Some(w) => parse_window(w).map_err(|e| format!("rule \"{raw}\": {e}"))?,
            };
            rules.push(FaultRule {
                site: site.to_string(),
                kind,
                from,
                to,
            });
        }
        Ok(FaultPlan { rules })
    }

    /// The canonical spec string (`parse` ∘ `spec` is the identity on
    /// the rule list).
    #[must_use]
    pub fn spec(&self) -> String {
        self.rules
            .iter()
            .map(|r| {
                let window = match (r.from, r.to) {
                    (0, u64::MAX) => String::new(),
                    (f, u64::MAX) => format!("@{f}.."),
                    (f, t) if t == f.saturating_add(1) => format!("@{f}"),
                    (f, t) => format!("@{f}..{t}"),
                };
                format!("{}:{}{}", r.site, r.kind.token(), window)
            })
            .collect::<Vec<_>>()
            .join(";")
    }
}

fn parse_window(w: &str) -> Result<(u64, u64), String> {
    let int = |s: &str| {
        s.parse::<u64>()
            .map_err(|_| format!("bad window ordinal \"{s}\""))
    };
    if let Some((a, b)) = w.split_once("..") {
        let from = int(a)?;
        let to = if b.is_empty() { u64::MAX } else { int(b)? };
        if to <= from && to != u64::MAX {
            return Err(format!("empty window \"{w}\""));
        }
        Ok((from, to))
    } else {
        let k = int(w)?;
        Ok((k, k.saturating_add(1)))
    }
}

/// The outcome of one site hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Perform the operation normally.
    Pass,
    /// Fail the operation as the kind describes.
    Fail(FaultKind),
}

/// Runtime state for a plan: per-rule matching-hit counters, the crash
/// latch, counters, and an optional site-hit trace. Thread-safe; one
/// injector is shared by everything touching a given store.
#[derive(Debug)]
pub struct FaultInjector {
    rules: Vec<(FaultRule, AtomicU64)>,
    /// Fast path: no rules, no trace — `hit` returns immediately.
    passive: bool,
    crashed: AtomicBool,
    hits: AtomicU64,
    injected: AtomicU64,
    trace: Option<Mutex<Vec<String>>>,
}

impl FaultInjector {
    /// An injector for `plan`, without tracing.
    #[must_use]
    pub fn new(plan: &FaultPlan) -> FaultInjector {
        FaultInjector::build(plan, false)
    }

    /// An injector that additionally records every site hit in order —
    /// the enumeration pass of a crash-point matrix.
    #[must_use]
    pub fn tracing(plan: &FaultPlan) -> FaultInjector {
        FaultInjector::build(plan, true)
    }

    fn build(plan: &FaultPlan, trace: bool) -> FaultInjector {
        FaultInjector {
            passive: plan.rules.is_empty() && !trace,
            rules: plan
                .rules
                .iter()
                .map(|r| (r.clone(), AtomicU64::new(0)))
                .collect(),
            crashed: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            trace: trace.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Decides the fate of one hit at `site`. Must be called exactly
    /// once per gated operation, immediately before performing it.
    pub fn hit(&self, site: &str) -> Fault {
        if self.passive {
            return Fault::Pass;
        }
        if self.crashed.load(Ordering::Relaxed) {
            // Dead process: no IO completes, nothing new is counted.
            return Fault::Fail(FaultKind::Crash);
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.trace {
            t.lock().push(site.to_string());
        }
        let mut outcome = Fault::Pass;
        for (rule, count) in &self.rules {
            if !rule.matches(site) {
                continue;
            }
            // Every matching rule counts the hit, so rule ordinals do
            // not depend on which other rules fired.
            let ordinal = count.fetch_add(1, Ordering::Relaxed);
            if outcome == Fault::Pass && ordinal >= rule.from && ordinal < rule.to {
                outcome = Fault::Fail(rule.kind);
            }
        }
        if let Fault::Fail(kind) = outcome {
            self.injected.fetch_add(1, Ordering::Relaxed);
            if kind.is_crash() {
                self.crashed.store(true, Ordering::Relaxed);
            }
        }
        outcome
    }

    /// Whether a crash-kind injection has latched.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Total gated hits observed (pre-latch).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total faults injected.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The recorded site-hit sequence (empty unless built with
    /// [`FaultInjector::tracing`]).
    #[must_use]
    pub fn trace(&self) -> Vec<String> {
        self.trace
            .as_ref()
            .map_or_else(Vec::new, |t| t.lock().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_spec_round_trip() {
        for spec in [
            "journal.*:eio",
            "journal.append.write:short@3",
            "snapshot.rename:crash@0",
            "*:crash-torn@17",
            "journal.*:enospc@2..9;snapshot.tmp.write:fsync@1..",
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert_eq!(plan.spec(), spec, "round-trip of {spec}");
            assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
        }
        assert!(FaultPlan::parse("x:nope").is_err());
        assert!(FaultPlan::parse(":eio").is_err());
        assert!(FaultPlan::parse("x:eio@5..3").is_err());
        assert!(FaultPlan::parse("x:eio@z").is_err());
        assert!(FaultPlan::parse("").unwrap().is_none());
    }

    #[test]
    fn windows_fire_on_matching_hit_ordinals_only() {
        let plan = FaultPlan::parse("journal.*:eio@1..3").unwrap();
        let inj = FaultInjector::new(&plan);
        // Ordinals count matching hits only: snapshot hits are invisible.
        assert_eq!(inj.hit("journal.append.write"), Fault::Pass); // ordinal 0
        assert_eq!(inj.hit("snapshot.rename"), Fault::Pass);
        assert_eq!(inj.hit("journal.append.flush"), Fault::Fail(FaultKind::Eio)); // 1
        assert_eq!(inj.hit("journal.append.write"), Fault::Fail(FaultKind::Eio)); // 2
        assert_eq!(inj.hit("journal.append.write"), Fault::Pass); // 3
        assert_eq!(inj.injected(), 2);
        assert!(!inj.crashed());
    }

    #[test]
    fn crash_latches_every_later_hit() {
        let inj = FaultInjector::new(&FaultPlan::crash_at_hit(2, false));
        assert_eq!(inj.hit("a"), Fault::Pass);
        assert_eq!(inj.hit("b"), Fault::Pass);
        assert_eq!(inj.hit("c"), Fault::Fail(FaultKind::Crash));
        assert!(inj.crashed());
        assert_eq!(inj.hit("a"), Fault::Fail(FaultKind::Crash));
        assert_eq!(inj.hit("zzz"), Fault::Fail(FaultKind::Crash));
        // Post-latch hits are not re-counted: the process is dead.
        assert_eq!(inj.hits(), 3);
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn tracing_records_the_site_sequence() {
        let inj = FaultInjector::tracing(&FaultPlan::none());
        inj.hit("journal.append.write");
        inj.hit("journal.append.flush");
        inj.hit("snapshot.tmp.write");
        assert_eq!(
            inj.trace(),
            [
                "journal.append.write",
                "journal.append.flush",
                "snapshot.tmp.write"
            ]
        );
        assert_eq!(inj.hits(), 3);
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn determinism_same_plan_same_sequence_same_outcomes() {
        let plan = FaultPlan::parse("journal.*:short@2;snapshot.*:fsync@1").unwrap();
        let run = || {
            let inj = FaultInjector::new(&plan);
            let sites = [
                "journal.append.write",
                "journal.append.flush",
                "snapshot.tmp.write",
                "snapshot.tmp.fsync",
                "journal.append.write",
                "snapshot.rename",
            ];
            sites.iter().map(|s| inj.hit(s)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        assert_eq!(
            run()[4],
            Fault::Fail(FaultKind::ShortWrite),
            "third journal hit fails short"
        );
    }

    #[test]
    fn the_none_plan_is_passive() {
        let inj = FaultInjector::new(&FaultPlan::none());
        for _ in 0..1000 {
            assert_eq!(inj.hit("journal.append.write"), Fault::Pass);
        }
        // Passive path skips all bookkeeping.
        assert_eq!(inj.hits(), 0);
        assert_eq!(inj.injected(), 0);
        assert!(inj.trace().is_empty());
    }
}
