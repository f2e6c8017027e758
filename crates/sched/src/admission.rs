//! Incremental admission control for one processor.
//!
//! Failover and degraded-mode operation re-place work at run time, one
//! process at a time; each candidate must be accepted only if the
//! processor's job set stays EDF-feasible with it included. [`Admission`]
//! wraps a growing job set with an exact accept/reject test, so a
//! shedding loop can probe candidates in priority order and keep exactly
//! those that fit.

use crate::edf;
use crate::job::{Job, JobId, JobSet};

/// An admission controller for one processor: a set of already-accepted
/// jobs plus an exact EDF feasibility test for each new candidate.
#[derive(Debug, Clone, Default)]
pub struct Admission {
    jobs: Vec<Job>,
}

impl Admission {
    /// An empty controller (nothing admitted).
    pub fn new() -> Self {
        Admission::default()
    }

    /// Seeds the controller with a baseline load, accepting it only when
    /// the baseline itself is feasible (returns `None` otherwise).
    pub fn with_baseline(jobs: &[Job]) -> Option<Self> {
        let set = JobSet::new(jobs.to_vec()).ok()?;
        edf::feasible(&set).then(|| Admission {
            jobs: jobs.to_vec(),
        })
    }

    /// Whether `job` *would* be admitted, without retaining it — the
    /// probe half of [`Admission::try_admit`] for callers (failover
    /// scoring, the serve layer's `admit` query) that compare candidate
    /// hosts before committing to one.
    pub fn would_admit(&self, job: Job) -> bool {
        let mut candidate = self.jobs.clone();
        candidate.push(job);
        matches!(JobSet::new(candidate), Ok(set) if edf::feasible(&set))
    }

    /// Tries to admit `job`: accepted (and retained) iff the current
    /// load plus `job` is EDF-feasible. Malformed jobs and duplicate ids
    /// are rejected.
    pub fn try_admit(&mut self, job: Job) -> bool {
        let mut candidate = self.jobs.clone();
        candidate.push(job);
        match JobSet::new(candidate) {
            Ok(set) if edf::feasible(&set) => {
                self.jobs.push(job);
                true
            }
            _ => false,
        }
    }

    /// Removes the job with `id`, returning whether it was present.
    pub fn release(&mut self, id: JobId) -> bool {
        match self.jobs.iter().position(|j| j.id == id) {
            Some(pos) => {
                self.jobs.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Renames every admitted job's id through `f`, keeping admission
    /// order — for callers whose ids are dense indices that just shifted.
    /// `f` must keep the admitted ids distinct.
    pub fn relabel(&mut self, mut f: impl FnMut(JobId) -> JobId) {
        for job in &mut self.jobs {
            job.id = f(job.id);
        }
    }

    /// The admitted jobs, in admission order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of admitted jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether nothing has been admitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Sum of admitted computation times.
    pub fn total_work(&self) -> u64 {
        self.jobs.iter().map(|j| j.ct).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_until_the_processor_is_full() {
        let mut adm = Admission::new();
        // Three jobs confined to [0, 9] needing 3 each fill the window.
        assert!(adm.try_admit(Job::new(0, 0, 9, 3)));
        assert!(adm.try_admit(Job::new(1, 0, 9, 3)));
        assert!(adm.try_admit(Job::new(2, 0, 9, 3)));
        // A fourth cannot fit.
        assert!(!adm.try_admit(Job::new(3, 0, 9, 3)));
        assert_eq!(adm.len(), 3);
        assert_eq!(adm.total_work(), 9);
        // A job with a later window still fits.
        assert!(adm.try_admit(Job::new(3, 9, 14, 3)));
    }

    #[test]
    fn rejection_leaves_the_set_unchanged() {
        let mut adm = Admission::new();
        assert!(adm.try_admit(Job::new(0, 0, 4, 4)));
        let before = adm.jobs().to_vec();
        assert!(!adm.try_admit(Job::new(1, 0, 4, 1)));
        assert_eq!(adm.jobs(), &before[..]);
    }

    #[test]
    fn would_admit_probes_without_retaining() {
        let mut adm = Admission::new();
        assert!(adm.try_admit(Job::new(0, 0, 6, 3)));
        // The probe agrees with try_admit but never commits.
        assert!(adm.would_admit(Job::new(1, 0, 6, 3)));
        assert!(adm.would_admit(Job::new(1, 0, 6, 3)));
        assert!(!adm.would_admit(Job::new(1, 0, 6, 4)));
        assert!(!adm.would_admit(Job::new(0, 10, 20, 1))); // duplicate id
        assert_eq!(adm.len(), 1);
    }

    #[test]
    fn malformed_and_duplicate_jobs_are_rejected() {
        let mut adm = Admission::new();
        assert!(!adm.try_admit(Job::new(0, 0, 4, 0))); // zero ct
        assert!(!adm.try_admit(Job::new(0, 5, 6, 3))); // window < ct
        assert!(adm.try_admit(Job::new(0, 0, 4, 1)));
        assert!(!adm.try_admit(Job::new(0, 10, 20, 1))); // duplicate id
        assert_eq!(adm.len(), 1);
    }

    #[test]
    fn release_frees_capacity() {
        let mut adm = Admission::new();
        assert!(adm.try_admit(Job::new(0, 0, 6, 3)));
        assert!(adm.try_admit(Job::new(1, 0, 6, 3)));
        assert!(!adm.try_admit(Job::new(2, 0, 6, 3)));
        assert!(adm.release(1));
        assert!(!adm.release(1));
        assert!(adm.try_admit(Job::new(2, 0, 6, 3)));
    }

    #[test]
    fn relabel_renames_ids_in_admission_order() {
        let mut adm = Admission::new();
        assert!(adm.try_admit(Job::new(4, 0, 9, 3)));
        assert!(adm.try_admit(Job::new(1, 0, 9, 3)));
        adm.relabel(|id| if id > 2 { id - 1 } else { id });
        let ids: Vec<JobId> = adm.jobs().iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![3, 1]);
        assert!(adm.release(3));
        assert!(!adm.release(4));
    }

    #[test]
    fn baseline_must_be_feasible() {
        let ok = Admission::with_baseline(&[Job::new(0, 0, 8, 4), Job::new(1, 0, 8, 4)]);
        assert_eq!(ok.expect("feasible baseline").len(), 2);
        let over = Admission::with_baseline(&[Job::new(0, 0, 4, 3), Job::new(1, 0, 4, 3)]);
        assert!(over.is_none());
        assert!(Admission::with_baseline(&[]).expect("empty").is_empty());
    }
}
