//! The parallel sweep driver.
//!
//! Every experiment in the reproduction is, at heart, a *sweep*: a grid
//! of independent cells (a graph size, a seed, an integration depth…)
//! each evaluated by a pure function of the cell plus a deterministic
//! RNG. [`SweepDriver`] fans those cells across the `fcm-substrate`
//! thread pool while keeping the output **byte-identical** to a
//! sequential run:
//!
//! * each cell `i` draws from its own split RNG stream
//!   (`Rng::stream(base_seed, i)`), so no cell's randomness depends on
//!   which worker ran it or in what order;
//! * results come back in cell order (`par_map_threads` preserves input
//!   order regardless of the thread count).
//!
//! The thread count comes from the `FCM_SWEEP_THREADS` environment
//! variable when set (a positive integer; `1` forces a fully sequential
//! sweep — `scripts/verify.sh` uses this to byte-compare sequential and
//! parallel output), otherwise from the pool's default worker count.
//! With observability enabled, cell counts land in the
//! `eval.sweep.cells` counter and per-cell wall time in the
//! `eval.sweep.cell_ns` histogram.

use fcm_substrate::pool::{par_map_threads, worker_count};
use fcm_substrate::rng::Rng;

/// Environment variable overriding the sweep thread count.
pub const SWEEP_THREADS_ENV: &str = "FCM_SWEEP_THREADS";

/// Fans sweep cells across the substrate pool with split RNG streams.
#[derive(Debug, Clone)]
pub struct SweepDriver {
    base_seed: u64,
    threads: usize,
}

impl SweepDriver {
    /// Driver with the given RNG base seed; thread count from
    /// `FCM_SWEEP_THREADS` when set, else the pool default.
    #[must_use]
    pub fn new(base_seed: u64) -> SweepDriver {
        SweepDriver {
            base_seed,
            threads: threads_from_env(std::env::var(SWEEP_THREADS_ENV).ok().as_deref()),
        }
    }

    /// Overrides the thread count (values below 1 are clamped to 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> SweepDriver {
        self.threads = threads.max(1);
        self
    }

    /// The thread count this driver fans out to.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The base seed cell streams are split from.
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Evaluates `f` on every cell, in parallel, returning results in
    /// cell order. Cell `i` receives `Rng::stream(base_seed, i)`, so the
    /// result vector is identical whatever the thread count.
    ///
    /// When observability is enabled ([`fcm_obs::init`]) each cell runs
    /// under its own `eval.sweep.cell` span, explicitly parented under
    /// the caller's current span so the fan-out renders as one tree in
    /// `obsview` even though cells execute on pool worker threads.
    pub fn run<T, R, F>(&self, cells: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, &mut Rng) -> R + Sync,
    {
        fcm_obs::counter_add("eval.sweep.cells", cells.len() as u64);
        #[allow(clippy::cast_precision_loss)]
        fcm_obs::gauge_set("eval.sweep.threads", self.threads as f64);
        let sweep_span = fcm_obs::span("eval.sweep");
        let parent = sweep_span.id();
        let indices: Vec<usize> = (0..cells.len()).collect();
        par_map_threads(&indices, self.threads, |&i| {
            let _cell = fcm_obs::span_under("eval.sweep.cell", parent, Some(i as u64));
            fcm_obs::timed("eval.sweep.cell_ns", || {
                let mut rng = Rng::stream(self.base_seed, i as u64);
                f(&cells[i], &mut rng)
            })
        })
    }
}

/// Parses a `FCM_SWEEP_THREADS` value; invalid, missing, or zero values
/// fall back to the pool's default worker count.
fn threads_from_env(value: Option<&str>) -> usize {
    match value.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => worker_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_identical_for_any_thread_count() {
        let cells: Vec<u64> = (0..97).collect();
        let eval = |&c: &u64, rng: &mut Rng| -> (u64, u64, f64) {
            // Mix cell payload with stream randomness, several draws deep.
            let a = rng.gen::<u64>() ^ c;
            let b = rng.gen_range(0..1_000_000u64);
            let x = rng.gen::<f64>();
            (a, b, x)
        };
        let sequential = SweepDriver::new(7).with_threads(1).run(&cells, eval);
        for threads in [2, 3, 8, 64] {
            let parallel = SweepDriver::new(7).with_threads(threads).run(&cells, eval);
            // Bit-exact, including the f64 draws.
            assert_eq!(sequential.len(), parallel.len());
            for (s, p) in sequential.iter().zip(&parallel) {
                assert_eq!(s.0, p.0);
                assert_eq!(s.1, p.1);
                assert_eq!(s.2.to_bits(), p.2.to_bits());
            }
        }
    }

    #[test]
    fn cell_streams_are_independent_of_each_other() {
        // Dropping a cell must not shift the streams of the others.
        let full: Vec<u64> = (0..10).collect();
        let driver = SweepDriver::new(99).with_threads(4);
        let draws = driver.run(&full, |_, rng| rng.gen::<u64>());
        let again = driver.run(&full, |_, rng| rng.gen::<u64>());
        assert_eq!(draws, again, "same seed, same streams");
        // Distinct cells see distinct streams.
        assert_ne!(draws[0], draws[1]);
        // A different base seed changes every stream.
        let other = SweepDriver::new(100).with_threads(4);
        assert_ne!(draws, other.run(&full, |_, rng| rng.gen::<u64>()));
    }

    #[test]
    fn results_are_identical_with_observability_enabled() {
        // The observation contract: recording spans/metrics must not
        // perturb a single drawn value.
        let cells: Vec<u64> = (0..50).collect();
        let eval = |&c: &u64, rng: &mut Rng| (rng.gen::<u64>() ^ c, rng.gen::<f64>().to_bits());
        let off = SweepDriver::new(3).with_threads(4).run(&cells, eval);
        fcm_obs::init(fcm_obs::ObsConfig::default());
        let on = SweepDriver::new(3).with_threads(4).run(&cells, eval);
        fcm_obs::set_enabled(false);
        assert_eq!(off, on);
        // And the sweep did leave a trace behind.
        let snap = fcm_obs::metrics::drain();
        assert!(snap.counters.get("eval.sweep.cells").copied().unwrap_or(0) >= 50);
    }

    #[test]
    fn empty_sweep_returns_empty() {
        let out: Vec<u64> = SweepDriver::new(0).run(&[] as &[u64], |_, rng| rng.gen());
        assert!(out.is_empty());
    }

    #[test]
    fn env_parsing_falls_back_to_the_pool_default() {
        assert_eq!(threads_from_env(Some("3")), 3);
        assert_eq!(threads_from_env(Some(" 2 ")), 2);
        assert_eq!(threads_from_env(Some("0")), worker_count());
        assert_eq!(threads_from_env(Some("nope")), worker_count());
        assert_eq!(threads_from_env(None), worker_count());
    }

    #[test]
    fn builder_accessors_round_trip() {
        let d = SweepDriver::new(5).with_threads(0);
        assert_eq!(d.threads(), 1, "clamped to at least one");
        assert_eq!(d.base_seed(), 5);
    }
}
