//! The discrete-event execution engine.
//!
//! Execution is deterministic given a seed: events are totally ordered by
//! `(time, kind, sequence)` and all probabilistic choices (transmission,
//! manifestation) are drawn from a single seeded RNG in event order.
//!
//! Data semantics: a task reads its input media and writes its output
//! media when a job *completes*. A corrupt write transmits with the
//! medium's probability p₂ — when transmission fails, the freshly written
//! data is usable and the medium becomes clean (rewrites repair). A task
//! reading a corrupt medium latches a value fault with its vulnerability
//! p₃. Timing faults arise from deadline misses, including jobs still
//! unfinished at the horizon (starvation under non-preemptive
//! scheduling).
//!
//! Node-failure recovery: a `NodeCrash`/`NodeTransient` injection halts
//! a processor and kills its running job. With a watchdog configured the
//! failure is detected at the next heartbeat (plus detection latency);
//! with a retry policy the killed job is then re-released from its last
//! checkpoint under bounded exponential backoff — on the home node once
//! it heals, or failed over to the lowest-index surviving processor when
//! the home node is permanently dead. Jobs whose retries exhaust stay
//! outstanding and are counted by the starvation sweep.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fcm_substrate::rng::Rng;
use fcm_substrate::Bytes;

use fcm_sched::Time;

use crate::fault::{FaultKind, Injection};
use crate::model::{Activation, SchedulingPolicy, SystemSpec, TaskId};
use crate::trace::{Trace, TraceEvent};

/// Marker payload for clean data.
pub const CLEAN: Bytes = Bytes::from_static(b"CLEAN");
/// Marker payload for corrupt data.
pub const CORRUPT: Bytes = Bytes::from_static(b"CORRUPT");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Job {
    task: TaskId,
    release: Time,
    abs_deadline: Time,
    remaining: Time,
    /// Full computation demand at release (checkpoint arithmetic).
    total: Time,
    /// Time of the node failure that last killed this job, when it is a
    /// checkpoint-restarted job (recovery-time accounting).
    failed_at: Option<Time>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Injections apply before anything else at the same instant.
    Inject(usize),
    /// Node healing next, so same-instant retries see the node up.
    NodeRecover {
        node: usize,
    },
    /// Watchdog detections before completions and retries.
    Detect {
        node: usize,
    },
    /// Completions before releases so a freed processor sees new work.
    Finish {
        processor: usize,
        token: u64,
    },
    /// Checkpoint retries of killed jobs, after completions free CPU.
    Retry(usize),
    Release {
        task: TaskId,
    },
}

/// A job killed by a node failure, awaiting retry.
#[derive(Debug, Clone, Copy)]
struct KilledJob {
    job: Job,
    /// Home processor (failover may re-target the restart).
    node: usize,
    /// Index of the next retry attempt (0-based).
    attempt: u32,
    /// Whether a detection has already scheduled its retry chain.
    scheduled: bool,
}

#[derive(Debug, Default)]
struct ProcessorState {
    running: Option<(Job, Time /* slice start */)>,
    ready: Vec<(Job, u64 /* fifo order */)>,
    token: u64,
}

/// Runs one trial of `spec` with the given injections.
///
/// `horizon` bounds simulated time; jobs released but unfinished whose
/// deadline falls within the horizon are counted as deadline misses
/// (starvation). The run is fully deterministic in `seed`.
pub fn run(spec: &SystemSpec, injections: &[Injection], seed: u64, horizon: Time) -> Trace {
    let mut rng = Rng::seed_from_u64(seed);
    let mut trace = Trace::empty(spec.task_count(), spec.medium_count());

    // Mutable task state.
    let mut crashed = vec![false; spec.task_count()];
    let mut overrun = vec![1u32; spec.task_count()];
    // Medium state.
    let mut corrupt = vec![false; spec.medium_count()];

    let mut processors: Vec<ProcessorState> = (0..spec.processors)
        .map(|_| ProcessorState::default())
        .collect();
    // Node availability: `down` = currently unavailable, `dead` =
    // permanently crashed (a dead node is also down forever).
    let mut down = vec![false; spec.processors];
    let mut dead = vec![false; spec.processors];
    // Jobs killed by node failures, indexed by Retry events.
    let mut killed: Vec<KilledJob> = Vec::new();
    // Most recent failure instant per node (detection-latency histogram).
    let mut last_failure: Vec<Option<Time>> = vec![None; spec.processors];

    let mut seq: u64 = 0;
    let mut heap: BinaryHeap<Reverse<(Time, EventKind, u64)>> = BinaryHeap::new();
    let push = |heap: &mut BinaryHeap<_>, t: Time, kind: EventKind, seq: &mut u64| {
        heap.push(Reverse((t, kind, *seq)));
        *seq += 1;
    };

    for (idx, inj) in injections.iter().enumerate() {
        let target_valid = if inj.kind.is_node_fault() {
            inj.target < spec.processors
        } else {
            inj.target < spec.task_count()
        };
        if inj.at <= horizon && target_valid {
            push(&mut heap, inj.at, EventKind::Inject(idx), &mut seq);
        }
    }
    for (id, task) in spec.tasks.iter().enumerate() {
        let first = match task.activation {
            Activation::OneShot { est, .. } => est,
            Activation::Periodic { offset, .. } => offset,
        };
        if first <= horizon {
            push(&mut heap, first, EventKind::Release { task: id }, &mut seq);
        }
    }

    // Track unfinished released work for the end-of-run starvation sweep.
    let mut outstanding: Vec<(TaskId, Time /* abs deadline */)> = Vec::new();

    while let Some(Reverse((now, kind, _))) = heap.pop() {
        if now > horizon {
            break;
        }
        match kind {
            EventKind::Inject(idx) => {
                let inj = injections[idx];
                match inj.kind {
                    FaultKind::ValueCorruption => {
                        if !trace.value_faulty[inj.target] {
                            trace.value_faulty[inj.target] = true;
                            fcm_obs::hist_record("sim.fault_latch_at", now);
                            trace.events.push(TraceEvent::FaultLatched {
                                task: inj.target,
                                at: now,
                            });
                        }
                    }
                    FaultKind::TimingOverrun { factor } => overrun[inj.target] = factor.max(1),
                    FaultKind::Crash => crashed[inj.target] = true,
                    FaultKind::NodeCrash | FaultKind::NodeTransient { .. } => {
                        let node = inj.target;
                        if down[node] {
                            continue; // already down: no double failure
                        }
                        down[node] = true;
                        last_failure[node] = Some(now);
                        trace.events.push(TraceEvent::NodeFailed { node, at: now });
                        if let FaultKind::NodeTransient { downtime } = inj.kind {
                            push(
                                &mut heap,
                                now + downtime,
                                EventKind::NodeRecover { node },
                                &mut seq,
                            );
                        } else {
                            dead[node] = true;
                        }
                        // Kill the running job; preserve checkpointed
                        // progress for a later retry.
                        if let Some((mut job, slice_start)) = processors[node].running.take() {
                            processors[node].token += 1; // stale any Finish
                            job.remaining -= now - slice_start;
                            let executed = job.total - job.remaining;
                            let saved = spec.tasks[job.task]
                                .checkpoint
                                .map_or(0, |cp| (executed / cp) * cp);
                            job.remaining = job.total - saved;
                            job.failed_at = Some(now);
                            killed.push(KilledJob {
                                job,
                                node,
                                attempt: 0,
                                scheduled: false,
                            });
                        }
                        if let Some(wd) = spec.watchdog {
                            push(
                                &mut heap,
                                wd.detection_time(now),
                                EventKind::Detect { node },
                                &mut seq,
                            );
                        }
                    }
                }
            }
            EventKind::NodeRecover { node } => {
                down[node] = false;
                trace
                    .events
                    .push(TraceEvent::NodeRecovered { node, at: now });
                dispatch(spec, &mut processors[node], node, now, &mut heap, &mut seq);
            }
            EventKind::Detect { node } => {
                trace.detections += 1;
                if let Some(failed_at) = last_failure[node].take() {
                    fcm_obs::hist_record("sim.detect_latency", now - failed_at);
                }
                trace
                    .events
                    .push(TraceEvent::FailureDetected { node, at: now });
                if let Some(rp) = spec.retry {
                    if rp.max_retries > 0 {
                        for (idx, k) in killed.iter_mut().enumerate() {
                            if k.node == node && !k.scheduled {
                                k.scheduled = true;
                                let jitter = rng.gen_range(0..rp.backoff_base);
                                let delay = rp.backoff(0) + jitter;
                                fcm_obs::hist_record("sim.retry_backoff", delay);
                                push(&mut heap, now + delay, EventKind::Retry(idx), &mut seq);
                            }
                        }
                    }
                }
            }
            EventKind::Retry(idx) => {
                trace.retries += 1;
                let entry = killed[idx];
                let home = entry.node;
                // Restart on the home node when it is back up; fail over
                // to the lowest-index survivor when it is dead for good.
                let target = if !down[home] {
                    Some(home)
                } else if dead[home] {
                    (0..spec.processors).find(|&p| !down[p])
                } else {
                    None // transient outage: wait for the node
                };
                match target {
                    Some(proc) => {
                        if proc != home {
                            trace.failovers += 1;
                            if let Some(failed_at) = entry.job.failed_at {
                                fcm_obs::hist_record("sim.failover_latency", now - failed_at);
                            }
                        }
                        trace.restarts += 1;
                        trace.events.push(TraceEvent::JobRestarted {
                            task: entry.job.task,
                            attempt: entry.attempt,
                            at: now,
                        });
                        processors[proc].ready.push((entry.job, seq));
                        seq += 1;
                        dispatch(spec, &mut processors[proc], proc, now, &mut heap, &mut seq);
                    }
                    None => {
                        let rp = spec.retry.expect("retry event without a policy");
                        let next = entry.attempt + 1;
                        if next < rp.max_retries {
                            killed[idx].attempt = next;
                            let jitter = rng.gen_range(0..rp.backoff_base);
                            let delay = rp.backoff(next) + jitter;
                            fcm_obs::hist_record("sim.retry_backoff", delay);
                            push(&mut heap, now + delay, EventKind::Retry(idx), &mut seq);
                        }
                        // Retries exhausted: the job stays outstanding
                        // and the starvation sweep counts the miss.
                    }
                }
            }
            EventKind::Release { task } => {
                let t = &spec.tasks[task];
                let (abs_deadline, next_release) = match t.activation {
                    Activation::OneShot { tcd, .. } => (tcd, None),
                    Activation::Periodic { period, .. } => (now + period, Some(now + period)),
                };
                let demand = t.ct * Time::from(overrun[task]);
                let job = Job {
                    task,
                    release: now,
                    abs_deadline,
                    remaining: demand,
                    total: demand,
                    failed_at: None,
                };
                outstanding.push((task, abs_deadline));
                let proc = t.processor;
                processors[proc].ready.push((job, seq));
                seq += 1;
                if !down[proc] {
                    dispatch(spec, &mut processors[proc], proc, now, &mut heap, &mut seq);
                }
                if let Some(next) = next_release {
                    if next <= horizon {
                        push(&mut heap, next, EventKind::Release { task }, &mut seq);
                    }
                }
            }
            EventKind::Finish { processor, token } => {
                if token != processors[processor].token {
                    continue; // stale: the running job changed since
                }
                let (job, _) = processors[processor]
                    .running
                    .take()
                    .expect("finish event for an idle processor");
                processors[processor].token += 1;
                complete_job(
                    spec,
                    &job,
                    now,
                    &mut trace,
                    &mut corrupt,
                    &crashed,
                    &mut rng,
                );
                // Retire from the outstanding list (first matching entry).
                if let Some(pos) = outstanding
                    .iter()
                    .position(|&(t, d)| t == job.task && d == job.abs_deadline)
                {
                    outstanding.swap_remove(pos);
                }
                dispatch(
                    spec,
                    &mut processors[processor],
                    processor,
                    now,
                    &mut heap,
                    &mut seq,
                );
            }
        }
    }

    // Starvation sweep: released, unfinished, deadline within horizon.
    for (task, deadline) in outstanding {
        if deadline <= horizon {
            trace.deadline_misses[task] += 1;
            trace.events.push(TraceEvent::DeadlineMiss {
                task,
                deadline,
                at: horizon,
            });
        }
    }
    // Record final medium payloads.
    for (m, &c) in corrupt.iter().enumerate() {
        if trace.medium_payloads[m].is_some() {
            trace.medium_payloads[m] = Some(if c { CORRUPT } else { CLEAN });
        }
    }
    trace
}

/// (Re)selects the job to run on `proc` at `now` and schedules its finish.
fn dispatch(
    spec: &SystemSpec,
    state: &mut ProcessorState,
    proc: usize,
    now: Time,
    heap: &mut BinaryHeap<Reverse<(Time, EventKind, u64)>>,
    seq: &mut u64,
) {
    match spec.policy {
        SchedulingPolicy::PreemptiveEdf => {
            // Candidate: earliest deadline among ready ∪ running.
            let best_ready = state
                .ready
                .iter()
                .enumerate()
                .min_by_key(|(_, (j, s))| (j.abs_deadline, j.release, *s))
                .map(|(i, (j, _))| (i, *j));
            match (state.running, best_ready) {
                (None, Some((i, _))) => {
                    let (job, _) = state.ready.swap_remove(i);
                    start(state, proc, job, now, heap, seq);
                }
                (Some((running, slice_start)), Some((i, candidate)))
                    if candidate.abs_deadline < running.abs_deadline =>
                {
                    // Preempt: bank the consumed time, requeue the loser.
                    let mut loser = running;
                    loser.remaining -= now - slice_start;
                    state.ready.push((loser, *seq));
                    *seq += 1;
                    let (job, _) = state.ready.swap_remove(i);
                    state.token += 1; // invalidate the old finish event
                    start(state, proc, job, now, heap, seq);
                }
                _ => {}
            }
        }
        SchedulingPolicy::NonPreemptiveFifo => {
            if state.running.is_none() && !state.ready.is_empty() {
                let (i, _) = state
                    .ready
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (j, s))| (j.release, *s))
                    .expect("non-empty ready queue");
                let (job, _) = state.ready.swap_remove(i);
                start(state, proc, job, now, heap, seq);
            }
        }
    }
}

fn start(
    state: &mut ProcessorState,
    proc: usize,
    job: Job,
    now: Time,
    heap: &mut BinaryHeap<Reverse<(Time, EventKind, u64)>>,
    seq: &mut u64,
) {
    state.running = Some((job, now));
    heap.push(Reverse((
        now + job.remaining,
        EventKind::Finish {
            processor: proc,
            token: state.token,
        },
        *seq,
    )));
    *seq += 1;
}

fn complete_job(
    spec: &SystemSpec,
    job: &Job,
    now: Time,
    trace: &mut Trace,
    corrupt: &mut [bool],
    crashed: &[bool],
    rng: &mut Rng,
) {
    let task = &spec.tasks[job.task];
    trace.completions[job.task] += 1;
    trace.events.push(TraceEvent::Completion {
        task: job.task,
        at: now,
    });
    if let Some(failed_at) = job.failed_at {
        // A checkpoint-restarted job ran to completion: the recovery
        // interval spans from the killing node failure to now.
        trace.recovery_times.push(now - failed_at);
        fcm_obs::hist_record("sim.recovery_time", now - failed_at);
    }
    if now > job.abs_deadline {
        trace.deadline_misses[job.task] += 1;
        trace.events.push(TraceEvent::DeadlineMiss {
            task: job.task,
            deadline: job.abs_deadline,
            at: now,
        });
    }
    if crashed[job.task] {
        return; // crashed: no data effects
    }
    // Reads. A majority voter sees corruption only when a strict majority
    // of its inputs are corrupt (TMR masking); it then behaves like a task
    // reading one corrupt input. Ordinary tasks process inputs
    // independently: each corrupt input may first be caught by the
    // recovery block, otherwise it manifests with probability p₃.
    if task.voter {
        let corrupt_inputs = task.reads.iter().filter(|&&m| corrupt[m]).count();
        let outvoted = corrupt_inputs * 2 <= task.reads.len();
        if corrupt_inputs > 0 && outvoted {
            trace.recoveries[job.task] += 1; // masked by the vote
        }
        if !outvoted && !trace.value_faulty[job.task] {
            let caught = task.recovery.value() > 0.0 && rng.gen::<f64>() < task.recovery.value();
            if caught {
                trace.recoveries[job.task] += 1;
            } else if rng.gen::<f64>() < task.vulnerability.value() {
                trace.value_faulty[job.task] = true;
                fcm_obs::hist_record("sim.fault_latch_at", now);
                trace.events.push(TraceEvent::FaultLatched {
                    task: job.task,
                    at: now,
                });
            }
        }
    } else {
        for &m in &task.reads {
            if corrupt[m] && !trace.value_faulty[job.task] {
                if task.recovery.value() > 0.0 && rng.gen::<f64>() < task.recovery.value() {
                    trace.recoveries[job.task] += 1;
                    continue;
                }
                let p3 = task.vulnerability.value();
                if rng.gen::<f64>() < p3 {
                    trace.value_faulty[job.task] = true;
                    fcm_obs::hist_record("sim.fault_latch_at", now);
                    trace.events.push(TraceEvent::FaultLatched {
                        task: job.task,
                        at: now,
                    });
                }
            }
        }
    }
    // Spontaneous occurrence p₁: the task may develop a fault on its own.
    if !trace.value_faulty[job.task]
        && task.fault_rate.value() > 0.0
        && rng.gen::<f64>() < task.fault_rate.value()
    {
        trace.value_faulty[job.task] = true;
        fcm_obs::hist_record("sim.fault_latch_at", now);
        trace.events.push(TraceEvent::FaultLatched {
            task: job.task,
            at: now,
        });
    }
    // Writes: corrupt output transmits with probability p₂, otherwise the
    // rewrite repairs the medium.
    for &m in &task.writes {
        if trace.value_faulty[job.task] {
            let p2 = spec.media[m].transmission.value();
            if rng.gen::<f64>() < p2 {
                if !corrupt[m] {
                    trace.medium_corruptions[m] += 1;
                    trace.events.push(TraceEvent::MediumCorrupted {
                        medium: m,
                        writer: job.task,
                        at: now,
                    });
                }
                corrupt[m] = true;
                trace.medium_payloads[m] = Some(CORRUPT);
                continue;
            }
        }
        corrupt[m] = false;
        trace.medium_payloads[m] = Some(CLEAN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SystemSpecBuilder;
    use fcm_core::FactorKind;

    #[test]
    fn single_one_shot_task_completes_on_time() {
        let mut b = SystemSpecBuilder::new(1);
        b.task("t", 0).one_shot(2, 10, 3).build().unwrap();
        let t = run(&b.build().unwrap(), &[], 0, 100);
        assert_eq!(t.completions[0], 1);
        assert_eq!(t.deadline_misses[0], 0);
        assert!(t
            .events
            .contains(&TraceEvent::Completion { task: 0, at: 5 }));
    }

    #[test]
    fn periodic_task_activates_per_period() {
        let mut b = SystemSpecBuilder::new(1);
        b.task("t", 0).periodic(10, 0, 2).build().unwrap();
        let t = run(&b.build().unwrap(), &[], 0, 49);
        // Releases at 0, 10, 20, 30, 40: 5 completions.
        assert_eq!(t.completions[0], 5);
    }

    #[test]
    fn edf_preempts_for_earlier_deadline() {
        let mut b = SystemSpecBuilder::new(1);
        // Long low-urgency job from t=0; urgent job released at t=1.
        b.task("long", 0).one_shot(0, 50, 10).build().unwrap();
        b.task("urgent", 0).one_shot(1, 5, 2).build().unwrap();
        let t = run(&b.build().unwrap(), &[], 0, 100);
        assert_eq!(t.deadline_misses, vec![0, 0]);
        // Urgent completes at 3, long at 12 (preempted for 2 ticks).
        assert!(t
            .events
            .contains(&TraceEvent::Completion { task: 1, at: 3 }));
        assert!(t
            .events
            .contains(&TraceEvent::Completion { task: 0, at: 12 }));
    }

    #[test]
    fn fifo_does_not_preempt() {
        let mut b = SystemSpecBuilder::new(1);
        b.policy(SchedulingPolicy::NonPreemptiveFifo);
        b.task("long", 0).one_shot(0, 50, 10).build().unwrap();
        b.task("urgent", 0).one_shot(1, 5, 2).build().unwrap();
        let t = run(&b.build().unwrap(), &[], 0, 100);
        // Urgent waits for long: completes at 12, missing its deadline.
        assert_eq!(t.deadline_misses[1], 1);
        assert!(t
            .events
            .contains(&TraceEvent::Completion { task: 1, at: 12 }));
    }

    #[test]
    fn value_fault_propagates_through_reliable_medium() {
        let mut b = SystemSpecBuilder::new(1);
        let m = b.add_medium("gv", FactorKind::GlobalVariable, 1.0).unwrap();
        b.task("w", 0).one_shot(0, 10, 1).writes(m).build().unwrap();
        b.task("r", 0).one_shot(5, 10, 1).reads(m).build().unwrap();
        let spec = b.build().unwrap();
        let t = run(&spec, &[Injection::value(0, 0)], 7, 100);
        assert!(t.value_faulty(0));
        assert!(t.value_faulty(1));
        assert_eq!(t.medium_corruptions[0], 1);
        assert_eq!(t.medium_payloads[0], Some(CORRUPT));
    }

    #[test]
    fn zero_transmission_blocks_propagation() {
        let mut b = SystemSpecBuilder::new(1);
        let m = b.add_medium("gv", FactorKind::GlobalVariable, 0.0).unwrap();
        b.task("w", 0).one_shot(0, 10, 1).writes(m).build().unwrap();
        b.task("r", 0).one_shot(5, 10, 1).reads(m).build().unwrap();
        let t = run(&b.build().unwrap(), &[Injection::value(0, 0)], 7, 100);
        assert!(t.value_faulty(0));
        assert!(!t.value_faulty(1));
        // The failed transmission rewrote the medium clean.
        assert_eq!(t.medium_payloads[0], Some(CLEAN));
    }

    #[test]
    fn zero_vulnerability_blocks_manifestation() {
        let mut b = SystemSpecBuilder::new(1);
        let m = b.add_medium("gv", FactorKind::GlobalVariable, 1.0).unwrap();
        b.task("w", 0).one_shot(0, 10, 1).writes(m).build().unwrap();
        b.task("r", 0)
            .one_shot(5, 10, 1)
            .reads(m)
            .vulnerability(0.0)
            .build()
            .unwrap();
        let t = run(&b.build().unwrap(), &[Injection::value(0, 0)], 7, 100);
        assert!(!t.value_faulty(1));
        // Medium stays corrupt (the reader does not write it).
        assert_eq!(t.medium_payloads[0], Some(CORRUPT));
    }

    #[test]
    fn clean_rewrite_repairs_a_corrupt_medium() {
        let mut b = SystemSpecBuilder::new(1);
        let m = b.add_medium("gv", FactorKind::GlobalVariable, 1.0).unwrap();
        b.task("bad", 0)
            .one_shot(0, 10, 1)
            .writes(m)
            .build()
            .unwrap();
        b.task("good", 0)
            .one_shot(3, 10, 1)
            .writes(m)
            .build()
            .unwrap();
        b.task("late_reader", 0)
            .one_shot(6, 10, 1)
            .reads(m)
            .build()
            .unwrap();
        let t = run(&b.build().unwrap(), &[Injection::value(0, 0)], 7, 100);
        // The good writer overwrote the corruption before the read.
        assert!(!t.value_faulty(2));
        assert_eq!(t.medium_payloads[0], Some(CLEAN));
    }

    #[test]
    fn overrun_starves_fifo_peer_but_not_edf_peer() {
        for (policy, expect_miss) in [
            (SchedulingPolicy::NonPreemptiveFifo, true),
            (SchedulingPolicy::PreemptiveEdf, false),
        ] {
            let mut b = SystemSpecBuilder::new(1);
            b.policy(policy);
            b.task("hog", 0).one_shot(0, 100, 4).build().unwrap();
            b.task("victim", 0).one_shot(1, 30, 2).build().unwrap();
            let spec = b.build().unwrap();
            // Overrun factor 10: the hog runs 40 ticks.
            let t = run(&spec, &[Injection::overrun(0, 0, 10)], 1, 200);
            assert_eq!(t.missed_deadline(1), expect_miss, "policy {policy:?}");
            // The hog itself is not value-faulty.
            assert!(!t.value_faulty(0));
        }
    }

    #[test]
    fn crash_omits_all_writes() {
        let mut b = SystemSpecBuilder::new(1);
        let m = b.add_medium("ch", FactorKind::MessagePassing, 1.0).unwrap();
        b.task("w", 0).periodic(10, 0, 1).writes(m).build().unwrap();
        let spec = b.build().unwrap();
        let t = run(&spec, &[Injection::crash(0, 0)], 0, 50);
        // Jobs still complete (consume CPU) but never write.
        assert!(t.completions[0] >= 4);
        assert_eq!(t.medium_payloads[0], None);
    }

    #[test]
    fn starvation_sweep_counts_unfinished_jobs() {
        let mut b = SystemSpecBuilder::new(1);
        b.policy(SchedulingPolicy::NonPreemptiveFifo);
        b.task("hog", 0).one_shot(0, 1000, 5).build().unwrap();
        b.task("victim", 0).one_shot(1, 20, 2).build().unwrap();
        let spec = b.build().unwrap();
        // Overrun 100×: the hog holds the CPU past the horizon.
        let t = run(&spec, &[Injection::overrun(0, 0, 100)], 0, 50);
        assert_eq!(t.completions[1], 0);
        assert!(t.missed_deadline(1));
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let mut b = SystemSpecBuilder::new(2);
        let m = b.add_medium("gv", FactorKind::GlobalVariable, 0.5).unwrap();
        b.task("w", 0).periodic(7, 0, 2).writes(m).build().unwrap();
        b.task("r", 1)
            .periodic(5, 1, 1)
            .reads(m)
            .vulnerability(0.5)
            .build()
            .unwrap();
        let spec = b.build().unwrap();
        let inj = [Injection::value(3, 0)];
        let a = run(&spec, &inj, 1234, 500);
        let b2 = run(&spec, &inj, 1234, 500);
        assert_eq!(a, b2);
        // A different seed eventually differs in sampled outcomes.
        let c = run(&spec, &inj, 99, 500);
        assert_eq!(a.completions, c.completions); // schedule is seed-free
    }

    #[test]
    fn injection_beyond_horizon_is_ignored() {
        let mut b = SystemSpecBuilder::new(1);
        b.task("t", 0).periodic(5, 0, 1).build().unwrap();
        let spec = b.build().unwrap();
        let t = run(&spec, &[Injection::value(1000, 0)], 0, 50);
        assert!(!t.value_faulty(0));
    }

    #[test]
    fn undetected_node_crash_silently_starves_the_job() {
        let mut b = SystemSpecBuilder::new(1);
        b.task("t", 0).one_shot(0, 50, 10).build().unwrap();
        let t = run(&b.build().unwrap(), &[Injection::node_crash(3, 0)], 0, 100);
        // No watchdog: the failure passes silently.
        assert_eq!(t.completions[0], 0);
        assert_eq!(t.detections, 0);
        assert_eq!(t.restarts, 0);
        assert!(t.missed_deadline(0));
        assert!(t
            .events
            .contains(&TraceEvent::NodeFailed { node: 0, at: 3 }));
    }

    #[test]
    fn transient_outage_resumes_queued_work() {
        let mut b = SystemSpecBuilder::new(1);
        b.task("t", 0).periodic(10, 0, 2).build().unwrap();
        let spec = b.build().unwrap();
        // Down from 5 to 25 (the node is idle at 5, so nothing is
        // killed): the releases at 10 and 20 queue up and run after
        // recovery; the one released at 10 misses its deadline.
        let t = run(&spec, &[Injection::node_transient(5, 0, 20)], 0, 59);
        assert!(t
            .events
            .contains(&TraceEvent::NodeRecovered { node: 0, at: 25 }));
        assert!(t.completions[0] >= 4);
        assert!(t.deadline_misses[0] >= 1);
    }

    #[test]
    fn watchdog_detects_and_checkpoint_retry_recovers() {
        let mut b = SystemSpecBuilder::new(1);
        b.watchdog(1, 0).unwrap();
        b.retry(3, 2).unwrap();
        b.task("t", 0)
            .one_shot(0, 100, 10)
            .checkpoint(2)
            .build()
            .unwrap();
        let spec = b.build().unwrap();
        // Killed at 5 with 5 ticks executed: checkpoint saves 4, so the
        // restart owes 6. Node heals at 6, detection at 6, first retry
        // lands in [8, 10).
        let t = run(&spec, &[Injection::node_transient(5, 0, 1)], 7, 200);
        assert_eq!(t.detections, 1);
        assert_eq!(t.restarts, 1);
        assert_eq!(t.failovers, 0);
        assert_eq!(t.completions[0], 1);
        assert_eq!(t.deadline_misses[0], 0);
        assert_eq!(t.recovery_times.len(), 1);
        // Recovery spans failure (5) → restart (within [8,10)) → +6 run.
        let ttr = t.recovery_times[0];
        assert!((9..=11).contains(&ttr), "time to recover {ttr}");

        // Without a checkpoint the restart re-executes all 10 ticks.
        let mut b2 = SystemSpecBuilder::new(1);
        b2.watchdog(1, 0).unwrap();
        b2.retry(3, 2).unwrap();
        b2.task("t", 0).one_shot(0, 100, 10).build().unwrap();
        let t2 = run(
            &b2.build().unwrap(),
            &[Injection::node_transient(5, 0, 1)],
            7,
            200,
        );
        assert_eq!(t2.restarts, 1);
        assert_eq!(t2.recovery_times[0], ttr + 4);
    }

    #[test]
    fn dead_node_fails_over_to_a_survivor() {
        let mut b = SystemSpecBuilder::new(2);
        b.watchdog(5, 0).unwrap();
        b.retry(2, 4).unwrap();
        b.task("t", 0)
            .one_shot(0, 100, 10)
            .checkpoint(1)
            .build()
            .unwrap();
        let spec = b.build().unwrap();
        let t = run(&spec, &[Injection::node_crash(3, 0)], 11, 200);
        // Detection at 5; retry in [9, 13); home node dead, so the job
        // restarts on processor 1 with 3 ticks checkpointed.
        assert_eq!(t.detections, 1);
        assert_eq!(t.restarts, 1);
        assert_eq!(t.failovers, 1);
        assert_eq!(t.completions[0], 1);
        assert_eq!(t.deadline_misses[0], 0);
        assert!(t.events.iter().any(|e| matches!(
            e,
            TraceEvent::JobRestarted {
                task: 0,
                attempt: 0,
                ..
            }
        )));
    }

    #[test]
    fn retries_back_off_and_exhaust_while_the_node_is_down() {
        let mut b = SystemSpecBuilder::new(1);
        b.watchdog(1, 0).unwrap();
        b.retry(2, 2).unwrap();
        b.task("t", 0).one_shot(0, 50, 10).build().unwrap();
        let spec = b.build().unwrap();
        // Down from 2 for 1000 ticks: every retry finds the node down
        // (transient, so no failover) and the chain exhausts.
        let t = run(&spec, &[Injection::node_transient(2, 0, 1000)], 0, 400);
        assert_eq!(t.detections, 1);
        assert_eq!(t.retries, 2);
        assert_eq!(t.restarts, 0);
        assert_eq!(t.completions[0], 0);
        assert!(t.missed_deadline(0));
    }

    #[test]
    fn observability_records_recovery_histograms_without_perturbing_the_run() {
        let mut b = SystemSpecBuilder::new(2);
        b.watchdog(5, 0).unwrap();
        b.retry(2, 4).unwrap();
        b.task("t", 0)
            .one_shot(0, 100, 10)
            .checkpoint(1)
            .build()
            .unwrap();
        let spec = b.build().unwrap();
        let inj = [Injection::node_crash(3, 0)];
        let off = run(&spec, &inj, 11, 200);
        fcm_obs::init(fcm_obs::ObsConfig::default());
        let on = run(&spec, &inj, 11, 200);
        fcm_obs::set_enabled(false);
        assert_eq!(off, on, "recording must not perturb the simulation");
        let snap = fcm_obs::metrics::drain();
        for name in [
            "sim.detect_latency",
            "sim.retry_backoff",
            "sim.failover_latency",
            "sim.recovery_time",
        ] {
            let h = snap
                .hists
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(h.count() >= 1, "{name} recorded");
        }
    }

    #[test]
    fn node_fault_runs_are_deterministic_in_the_seed() {
        let mut b = SystemSpecBuilder::new(2);
        b.watchdog(3, 1).unwrap();
        b.retry(4, 2).unwrap();
        b.task("a", 0)
            .periodic(10, 0, 3)
            .checkpoint(1)
            .build()
            .unwrap();
        b.task("b", 1).periodic(7, 1, 2).build().unwrap();
        let spec = b.build().unwrap();
        let inj = [
            Injection::node_transient(4, 0, 9),
            Injection::node_crash(20, 1),
        ];
        let x = run(&spec, &inj, 42, 300);
        let y = run(&spec, &inj, 42, 300);
        assert_eq!(x, y);
        assert!(x.detections >= 2);
    }

    #[test]
    fn two_processors_run_independently() {
        let mut b = SystemSpecBuilder::new(2);
        b.task("a", 0).one_shot(0, 4, 4).build().unwrap();
        b.task("b", 1).one_shot(0, 4, 4).build().unwrap();
        let t = run(&b.build().unwrap(), &[], 0, 10);
        // Both meet deadlines: no shared CPU.
        assert_eq!(t.deadline_misses, vec![0, 0]);
        assert!(t
            .events
            .contains(&TraceEvent::Completion { task: 0, at: 4 }));
        assert!(t
            .events
            .contains(&TraceEvent::Completion { task: 1, at: 4 }));
    }
}
