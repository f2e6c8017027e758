//! The simulated system model.
//!
//! A [`SystemSpec`] describes a multiprocessor software system at the
//! granularity the paper's fault model needs: tasks (threads of control
//! with ⟨EST, TCD, CT⟩ or periodic timing) pinned to processors,
//! exchanging data through *media* — the concrete realisations of the
//! paper's fault factors (global variables, shared memory, message
//! channels).

use fcm_core::{FactorKind, IsolationTechnique, Probability};
use fcm_sched::Time;

use crate::error::SimError;

/// Index of a task within a [`SystemSpec`].
pub type TaskId = usize;

/// Index of a medium within a [`SystemSpec`].
pub type MediumId = usize;

/// Per-processor scheduling policy.
///
/// The paper's §4.2.3 uses this exact knob as an isolation technique:
/// under non-preemptive scheduling "a timing fault (e.g., a task in an
/// infinite loop) can cause all other tasks also to fail", whereas
/// preemption "minimizes the probability of transmission of the timing
/// fault".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulingPolicy {
    /// Preemptive earliest-deadline-first.
    #[default]
    PreemptiveEdf,
    /// Non-preemptive first-in-first-out (release order).
    NonPreemptiveFifo,
}

/// When a task activates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// A single job: released at `est`, absolute deadline `tcd`.
    OneShot {
        /// Earliest start time.
        est: Time,
        /// Absolute completion deadline.
        tcd: Time,
    },
    /// A periodic job stream: released every `period` from `offset`,
    /// each job due one period after its release.
    Periodic {
        /// Activation period (also the relative deadline).
        period: Time,
        /// First release time.
        offset: Time,
    },
}

/// The node-failure watchdog: each processor is assumed to emit a
/// heartbeat every `heartbeat_period` ticks; a failure at `t` is noticed
/// at the first heartbeat boundary strictly after `t`, plus
/// `detection_latency` processing delay. Without a watchdog node
/// failures pass silently (no detection, no recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WatchdogSpec {
    /// Heartbeat period (> 0).
    pub heartbeat_period: Time,
    /// Delay between the missed heartbeat and the detection event.
    pub detection_latency: Time,
}

impl WatchdogSpec {
    /// The time a failure at `at` is detected.
    pub fn detection_time(&self, at: Time) -> Time {
        (at / self.heartbeat_period + 1) * self.heartbeat_period + self.detection_latency
    }
}

/// Checkpoint/retry policy for jobs killed by a node failure: each
/// detected kill is retried up to `max_retries` times with bounded
/// exponential backoff (`backoff_base << attempt`, plus deterministic
/// seeded jitter in `[0, backoff_base)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Maximum retry attempts per killed job (0 = detect only).
    pub max_retries: u32,
    /// Base backoff delay (> 0); attempt `k` waits `backoff_base << k`.
    pub backoff_base: Time,
}

impl RetryPolicy {
    /// The deterministic portion of the backoff before attempt `attempt`.
    pub fn backoff(&self, attempt: u32) -> Time {
        self.backoff_base << attempt.min(32)
    }
}

/// A communication medium: one concrete fault-transmission path.
#[derive(Debug, Clone, PartialEq)]
pub struct MediumSpec {
    /// Display name.
    pub name: String,
    /// The fault-factor kind this medium realises.
    pub kind: FactorKind,
    /// Transmission probability p₂: the chance a corrupt write leaves the
    /// medium corrupt (after isolation multipliers).
    pub transmission: Probability,
}

/// A task: a thread of control pinned to one processor.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Display name.
    pub name: String,
    /// Host processor.
    pub processor: usize,
    /// Activation pattern.
    pub activation: Activation,
    /// Computation time per activation.
    pub ct: Time,
    /// Media read at each completion.
    pub reads: Vec<MediumId>,
    /// Media written at each completion.
    pub writes: Vec<MediumId>,
    /// Manifestation probability p₃: the chance a corrupt input latches a
    /// fault into this task.
    pub vulnerability: Probability,
    /// Spontaneous fault occurrence p₁: the chance each completing job
    /// latches a value fault on its own (field failure rate). Zero by
    /// default; injection campaigns force occurrence instead.
    pub fault_rate: Probability,
    /// Recovery-block acceptance test: the chance a corrupt input is
    /// detected and discarded before it can manifest (the paper's §3.2
    /// "Recovery Blocks to contain faults" at task level). Zero = none.
    pub recovery: Probability,
    /// Majority voter: when `true`, corrupt inputs manifest only if a
    /// strict majority of the task's read media are corrupt — the
    /// downstream half of TMR/N-version redundancy ("replication and
    /// design diversity", paper §1.1).
    pub voter: bool,
    /// Checkpoint interval: progress is durably saved every `interval`
    /// execution ticks, so a job killed by a node failure restarts from
    /// its last checkpoint instead of from scratch. `None` = no
    /// checkpointing (full re-execution on retry).
    pub checkpoint: Option<Time>,
}

/// A complete simulated system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// Number of processors.
    pub processors: usize,
    /// Per-processor scheduling policy (uniform across the platform).
    pub policy: SchedulingPolicy,
    /// The tasks.
    pub tasks: Vec<TaskSpec>,
    /// The media.
    pub media: Vec<MediumSpec>,
    /// Node-failure watchdog (None = failures pass undetected).
    pub watchdog: Option<WatchdogSpec>,
    /// Checkpoint/retry policy for detected kills (None = no retries).
    pub retry: Option<RetryPolicy>,
}

impl SystemSpec {
    /// The tasks hosted on `processor`.
    pub fn tasks_on(&self, processor: usize) -> impl Iterator<Item = (TaskId, &TaskSpec)> + '_ {
        self.tasks
            .iter()
            .enumerate()
            .filter(move |(_, t)| t.processor == processor)
    }

    /// Task count.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Medium count.
    pub fn medium_count(&self) -> usize {
        self.media.len()
    }

    /// Long-run CPU utilisation of `processor` from its periodic tasks
    /// (one-shot tasks contribute nothing asymptotically). Values above
    /// 1.0 mean guaranteed eventual deadline misses under any policy.
    pub fn utilisation(&self, processor: usize) -> f64 {
        self.tasks_on(processor)
            .filter_map(|(_, t)| match t.activation {
                Activation::Periodic { period, .. } => Some(t.ct as f64 / period as f64),
                Activation::OneShot { .. } => None,
            })
            .sum()
    }
}

/// Builder for [`SystemSpec`] with validation at every step.
///
/// # Example
///
/// ```
/// use fcm_sim::model::SystemSpecBuilder;
/// use fcm_core::FactorKind;
///
/// let mut b = SystemSpecBuilder::new(2);
/// let shm = b.add_medium("shm", FactorKind::SharedMemory, 0.9)?;
/// let writer = b.task("writer", 0).periodic(10, 0, 2).writes(shm).build()?;
/// let reader = b.task("reader", 1).periodic(10, 3, 2).reads(shm).vulnerability(0.4).build()?;
/// let spec = b.build()?;
/// assert_eq!(spec.task_count(), 2);
/// # let _ = (writer, reader);
/// # Ok::<(), fcm_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SystemSpecBuilder {
    processors: usize,
    policy: SchedulingPolicy,
    tasks: Vec<TaskSpec>,
    media: Vec<MediumSpec>,
    watchdog: Option<WatchdogSpec>,
    retry: Option<RetryPolicy>,
}

impl SystemSpecBuilder {
    /// Starts a system with `processors` processors and preemptive EDF.
    pub fn new(processors: usize) -> Self {
        SystemSpecBuilder {
            processors,
            policy: SchedulingPolicy::PreemptiveEdf,
            tasks: Vec::new(),
            media: Vec::new(),
            watchdog: None,
            retry: None,
        }
    }

    /// Sets the scheduling policy.
    pub fn policy(&mut self, policy: SchedulingPolicy) -> &mut Self {
        self.policy = policy;
        self
    }

    /// Enables the node-failure watchdog.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTiming`] for a zero heartbeat period.
    pub fn watchdog(
        &mut self,
        heartbeat_period: Time,
        detection_latency: Time,
    ) -> Result<&mut Self, SimError> {
        if heartbeat_period == 0 {
            return Err(SimError::InvalidTiming {
                task: "watchdog".into(),
            });
        }
        self.watchdog = Some(WatchdogSpec {
            heartbeat_period,
            detection_latency,
        });
        Ok(self)
    }

    /// Enables checkpoint/retry of jobs killed by node failures.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTiming`] for a zero backoff base.
    pub fn retry(&mut self, max_retries: u32, backoff_base: Time) -> Result<&mut Self, SimError> {
        if backoff_base == 0 {
            return Err(SimError::InvalidTiming {
                task: "retry".into(),
            });
        }
        self.retry = Some(RetryPolicy {
            max_retries,
            backoff_base,
        });
        Ok(self)
    }

    /// Adds a medium with transmission probability `transmission`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProbability`] for an out-of-range value.
    pub fn add_medium(
        &mut self,
        name: impl Into<String>,
        kind: FactorKind,
        transmission: f64,
    ) -> Result<MediumId, SimError> {
        let transmission =
            Probability::new(transmission).map_err(|_| SimError::InvalidProbability {
                value: transmission,
            })?;
        self.media.push(MediumSpec {
            name: name.into(),
            kind,
            transmission,
        });
        Ok(self.media.len() - 1)
    }

    /// Applies an isolation technique to a medium: its transmission
    /// probability is scaled by the technique's multiplier when the
    /// technique mitigates the medium's factor kind (the paper's model of
    /// isolation, §3–§4.2).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownMedium`] for an invalid medium.
    pub fn isolate_medium(
        &mut self,
        medium: MediumId,
        technique: IsolationTechnique,
    ) -> Result<&mut Self, SimError> {
        let spec = self
            .media
            .get_mut(medium)
            .ok_or(SimError::UnknownMedium { index: medium })?;
        if technique.mitigates(spec.kind) {
            spec.transmission = Probability::clamped(
                spec.transmission.value() * technique.transmission_multiplier(),
            );
        }
        Ok(self)
    }

    /// Starts building a task pinned to `processor`.
    pub fn task(&mut self, name: impl Into<String>, processor: usize) -> TaskBuilder<'_> {
        TaskBuilder {
            owner: self,
            name: name.into(),
            processor,
            activation: None,
            ct: 1,
            reads: Vec::new(),
            writes: Vec::new(),
            vulnerability: Probability::ONE,
            fault_rate: Probability::ZERO,
            recovery: Probability::ZERO,
            voter: false,
            checkpoint: None,
        }
    }

    /// Finishes the system.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProcessor`] when the platform is empty
    /// but tasks exist.
    pub fn build(self) -> Result<SystemSpec, SimError> {
        if self.processors == 0 && !self.tasks.is_empty() {
            return Err(SimError::UnknownProcessor {
                processor: 0,
                count: 0,
            });
        }
        Ok(SystemSpec {
            processors: self.processors,
            policy: self.policy,
            tasks: self.tasks,
            media: self.media,
            watchdog: self.watchdog,
            retry: self.retry,
        })
    }
}

/// Builder for one task; finished with [`TaskBuilder::build`].
#[derive(Debug)]
pub struct TaskBuilder<'a> {
    owner: &'a mut SystemSpecBuilder,
    name: String,
    processor: usize,
    activation: Option<Activation>,
    ct: Time,
    reads: Vec<MediumId>,
    writes: Vec<MediumId>,
    vulnerability: Probability,
    fault_rate: Probability,
    recovery: Probability,
    voter: bool,
    checkpoint: Option<Time>,
}

impl TaskBuilder<'_> {
    /// One-shot activation with the paper's ⟨EST, TCD, CT⟩ triple.
    pub fn one_shot(mut self, est: Time, tcd: Time, ct: Time) -> Self {
        self.activation = Some(Activation::OneShot { est, tcd });
        self.ct = ct;
        self
    }

    /// Periodic activation: period, first release offset, computation
    /// time.
    pub fn periodic(mut self, period: Time, offset: Time, ct: Time) -> Self {
        self.activation = Some(Activation::Periodic { period, offset });
        self.ct = ct;
        self
    }

    /// Adds a medium this task reads at completion.
    pub fn reads(mut self, medium: MediumId) -> Self {
        self.reads.push(medium);
        self
    }

    /// Adds a medium this task writes at completion.
    pub fn writes(mut self, medium: MediumId) -> Self {
        self.writes.push(medium);
        self
    }

    /// Sets the manifestation probability p₃ (default 1.0: every corrupt
    /// input latches a fault).
    pub fn vulnerability(mut self, p: f64) -> Self {
        self.vulnerability = Probability::clamped(p);
        self
    }

    /// Sets the spontaneous per-activation fault rate p₁ (default 0).
    pub fn fault_rate(mut self, p: f64) -> Self {
        self.fault_rate = Probability::clamped(p);
        self
    }

    /// Sets the recovery-block detection probability (default 0): a
    /// corrupt input is detected and discarded with this probability
    /// before the vulnerability roll.
    pub fn recovery(mut self, p: f64) -> Self {
        self.recovery = Probability::clamped(p);
        self
    }

    /// Makes the task a majority voter over its read media (default
    /// false): corruption manifests only when a strict majority of its
    /// inputs are corrupt.
    pub fn voter(mut self) -> Self {
        self.voter = true;
        self
    }

    /// Sets the checkpoint interval (default none): a job killed by a
    /// node failure restarts from its last multiple of `interval`
    /// executed ticks rather than from scratch. An interval of 0 is
    /// treated as no checkpointing.
    pub fn checkpoint(mut self, interval: Time) -> Self {
        self.checkpoint = (interval > 0).then_some(interval);
        self
    }

    /// Validates and registers the task, returning its id.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownProcessor`] — processor out of range;
    /// * [`SimError::UnknownMedium`] — a read/write medium is missing;
    /// * [`SimError::InvalidTiming`] — zero computation time or period,
    ///   or no activation was specified.
    pub fn build(self) -> Result<TaskId, SimError> {
        if self.processor >= self.owner.processors {
            return Err(SimError::UnknownProcessor {
                processor: self.processor,
                count: self.owner.processors,
            });
        }
        for &m in self.reads.iter().chain(&self.writes) {
            if m >= self.owner.media.len() {
                return Err(SimError::UnknownMedium { index: m });
            }
        }
        let activation = self.activation.ok_or_else(|| SimError::InvalidTiming {
            task: self.name.clone(),
        })?;
        let bad_timing = self.ct == 0
            || matches!(activation, Activation::Periodic { period, .. } if period == 0);
        if bad_timing {
            return Err(SimError::InvalidTiming { task: self.name });
        }
        self.owner.tasks.push(TaskSpec {
            name: self.name,
            processor: self.processor,
            activation,
            ct: self.ct,
            reads: self.reads,
            writes: self.writes,
            vulnerability: self.vulnerability,
            fault_rate: self.fault_rate,
            recovery: self.recovery,
            voter: self.voter,
            checkpoint: self.checkpoint,
        });
        Ok(self.owner.tasks.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_a_valid_spec() {
        let mut b = SystemSpecBuilder::new(2);
        let m = b.add_medium("gv", FactorKind::GlobalVariable, 0.7).unwrap();
        let t0 = b.task("a", 0).one_shot(0, 10, 2).writes(m).build().unwrap();
        let t1 = b
            .task("b", 1)
            .periodic(20, 5, 3)
            .reads(m)
            .vulnerability(0.3)
            .build()
            .unwrap();
        let spec = b.build().unwrap();
        assert_eq!((t0, t1), (0, 1));
        assert_eq!(spec.task_count(), 2);
        assert_eq!(spec.medium_count(), 1);
        assert_eq!(spec.tasks_on(0).count(), 1);
        assert_eq!(spec.tasks[1].vulnerability.value(), 0.3);
    }

    #[test]
    fn invalid_processor_is_rejected() {
        let mut b = SystemSpecBuilder::new(1);
        let err = b.task("x", 3).one_shot(0, 5, 1).build().unwrap_err();
        assert!(matches!(
            err,
            SimError::UnknownProcessor {
                processor: 3,
                count: 1
            }
        ));
    }

    #[test]
    fn invalid_medium_is_rejected() {
        let mut b = SystemSpecBuilder::new(1);
        let err = b
            .task("x", 0)
            .one_shot(0, 5, 1)
            .reads(7)
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownMedium { index: 7 }));
    }

    #[test]
    fn timing_must_be_positive_and_present() {
        let mut b = SystemSpecBuilder::new(1);
        assert!(matches!(
            b.task("x", 0).one_shot(0, 5, 0).build(),
            Err(SimError::InvalidTiming { .. })
        ));
        assert!(matches!(
            b.task("y", 0).periodic(0, 0, 1).build(),
            Err(SimError::InvalidTiming { .. })
        ));
        assert!(matches!(
            b.task("z", 0).build(),
            Err(SimError::InvalidTiming { .. })
        ));
    }

    #[test]
    fn medium_probability_is_validated() {
        let mut b = SystemSpecBuilder::new(1);
        assert!(matches!(
            b.add_medium("m", FactorKind::SharedMemory, 1.5),
            Err(SimError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn isolation_scales_transmission_of_matching_media_only() {
        let mut b = SystemSpecBuilder::new(1);
        let gv = b.add_medium("gv", FactorKind::GlobalVariable, 0.8).unwrap();
        let ch = b.add_medium("ch", FactorKind::MessagePassing, 0.8).unwrap();
        b.isolate_medium(gv, IsolationTechnique::InformationHiding)
            .unwrap();
        b.isolate_medium(ch, IsolationTechnique::InformationHiding)
            .unwrap();
        let spec = b.build().unwrap();
        assert!((spec.media[gv].transmission.value() - 0.16).abs() < 1e-12);
        assert_eq!(spec.media[ch].transmission.value(), 0.8);
    }

    #[test]
    fn isolate_unknown_medium_errors() {
        let mut b = SystemSpecBuilder::new(1);
        assert!(matches!(
            b.isolate_medium(0, IsolationTechnique::InformationHiding),
            Err(SimError::UnknownMedium { index: 0 })
        ));
    }

    #[test]
    fn zero_processor_platform_with_tasks_is_invalid() {
        let mut b = SystemSpecBuilder::new(0);
        // Task creation already fails with processor out of range.
        assert!(b.task("x", 0).one_shot(0, 5, 1).build().is_err());
        // An empty platform without tasks is fine.
        assert!(SystemSpecBuilder::new(0).build().is_ok());
    }

    #[test]
    fn utilisation_sums_periodic_load_per_processor() {
        let mut b = SystemSpecBuilder::new(2);
        b.task("a", 0).periodic(10, 0, 2).build().unwrap();
        b.task("b", 0).periodic(20, 0, 5).build().unwrap();
        b.task("one_shot", 0).one_shot(0, 9, 3).build().unwrap();
        b.task("c", 1).periodic(4, 0, 1).build().unwrap();
        let spec = b.build().unwrap();
        assert!((spec.utilisation(0) - 0.45).abs() < 1e-12);
        assert!((spec.utilisation(1) - 0.25).abs() < 1e-12);
        assert_eq!(spec.utilisation(7), 0.0);
    }

    #[test]
    fn watchdog_and_retry_are_validated_and_recorded() {
        let mut b = SystemSpecBuilder::new(1);
        b.watchdog(10, 2).unwrap();
        b.retry(3, 4).unwrap();
        b.task("t", 0)
            .periodic(20, 0, 5)
            .checkpoint(2)
            .build()
            .unwrap();
        let spec = b.build().unwrap();
        let wd = spec.watchdog.unwrap();
        assert_eq!(wd.heartbeat_period, 10);
        assert_eq!(wd.detection_latency, 2);
        assert_eq!(spec.retry.unwrap().max_retries, 3);
        assert_eq!(spec.tasks[0].checkpoint, Some(2));

        assert!(SystemSpecBuilder::new(1).watchdog(0, 1).is_err());
        assert!(SystemSpecBuilder::new(1).retry(1, 0).is_err());
        // Zero checkpoint interval degrades to "no checkpointing".
        let mut b2 = SystemSpecBuilder::new(1);
        b2.task("u", 0)
            .periodic(5, 0, 1)
            .checkpoint(0)
            .build()
            .unwrap();
        assert_eq!(b2.build().unwrap().tasks[0].checkpoint, None);
    }

    #[test]
    fn detection_time_rounds_up_to_the_next_heartbeat() {
        let wd = WatchdogSpec {
            heartbeat_period: 10,
            detection_latency: 3,
        };
        assert_eq!(wd.detection_time(0), 13);
        assert_eq!(wd.detection_time(9), 13);
        // A failure exactly on a heartbeat is caught by the *next* one.
        assert_eq!(wd.detection_time(10), 23);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let rp = RetryPolicy {
            max_retries: 3,
            backoff_base: 4,
        };
        assert_eq!(rp.backoff(0), 4);
        assert_eq!(rp.backoff(1), 8);
        assert_eq!(rp.backoff(2), 16);
    }

    #[test]
    fn policy_default_and_override() {
        let mut b = SystemSpecBuilder::new(1);
        b.policy(SchedulingPolicy::NonPreemptiveFifo);
        let spec = b.build().unwrap();
        assert_eq!(spec.policy, SchedulingPolicy::NonPreemptiveFifo);
        assert_eq!(SchedulingPolicy::default(), SchedulingPolicy::PreemptiveEdf);
    }
}
