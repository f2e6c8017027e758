//! A small seeded property-test harness.
//!
//! Replaces `proptest` for this workspace's suites. A property is a pair
//! of closures: a *generator* `Fn(&mut Rng, usize) -> T` that builds a
//! random case at a given size budget, and a *predicate*
//! `Fn(&T) -> Result<(), String>` (use
//! [`prop_assert!`](crate::prop_assert) /
//! [`prop_assert_eq!`](crate::prop_assert_eq) inside it).
//!
//! The runner draws `cases` cases with sizes ramping from small to
//! [`Config::max_size`], each from its own deterministically derived
//! seed. On failure it **shrinks by bisection on the size budget**:
//! regenerating the same case seed at smaller sizes, binary-searching the
//! smallest size that still fails, then reports a replay command.
//!
//! Replay a failure exactly with environment variables:
//!
//! ```text
//! FCM_PROP_SEED=<seed> FCM_PROP_SIZE=<size> cargo test -q <test_name>
//! ```
//!
//! `FCM_PROP_SEED` pins the per-case seed (the runner then executes just
//! that one case); `FCM_PROP_SIZE` optionally pins the size budget.

use crate::rng::Rng;

/// Runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u32,
    /// Largest size budget passed to the generator (sizes ramp up to
    /// this across the run).
    pub max_size: usize,
    /// Base seed; per-case seeds derive from it. Fixed by default so CI
    /// is reproducible; override per-run with `FCM_PROP_SEED`.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            max_size: 100,
            seed: 0x5eed_cafe_f00d_0001,
        }
    }
}

impl Config {
    /// A config running `cases` cases with defaults otherwise.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }
}

/// The outcome of one case.
pub type CaseResult = Result<(), String>;

/// Runs the property `prop` over `cfg.cases` generated cases.
///
/// Panics (failing the enclosing `#[test]`) on the first failing case,
/// after shrinking, with a replay recipe in the message. The generated
/// value's `Debug` form is included for both the original and the
/// shrunken failure.
pub fn check<T: std::fmt::Debug>(
    name: &str,
    cfg: Config,
    gen: impl Fn(&mut Rng, usize) -> T,
    prop: impl Fn(&T) -> CaseResult,
) {
    // Replay mode: a pinned seed runs exactly one case, no shrinking of
    // the seed space, sizes still shrinkable unless pinned too.
    if let Ok(seed_str) = std::env::var("FCM_PROP_SEED") {
        let seed: u64 = seed_str
            .parse()
            .unwrap_or_else(|_| panic!("FCM_PROP_SEED must be a u64, got {seed_str:?}"));
        let size: usize = std::env::var("FCM_PROP_SIZE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(cfg.max_size);
        let value = gen(&mut Rng::seed_from_u64(seed), size);
        if let Err(msg) = prop(&value) {
            panic!(
                "property '{name}' failed on replay \
                 (FCM_PROP_SEED={seed} FCM_PROP_SIZE={size}):\n  {msg}\n  case: {value:?}"
            );
        }
        return;
    }

    let mut seed_source = Rng::seed_from_u64(cfg.seed ^ hash_name(name));
    for case in 0..cfg.cases {
        // Ramp sizes: early cases small (fast, catch trivial bugs with
        // trivial counterexamples), later cases up to max_size.
        let size = ramp_size(case, cfg.cases, cfg.max_size);
        let case_seed = seed_source.next_u64();
        let value = gen(&mut Rng::seed_from_u64(case_seed), size);
        if let Err(msg) = prop(&value) {
            let (min_size, min_value, min_msg) =
                shrink_by_bisection(case_seed, size, &gen, &prop, value, msg);
            panic!(
                "property '{name}' failed (case {case}/{total}).\n\
                 minimal failing size {min_size} (original size {size}):\n  {min_msg}\n  \
                 case: {min_value:?}\n\
                 replay: FCM_PROP_SEED={case_seed} FCM_PROP_SIZE={min_size}",
                total = cfg.cases,
            );
        }
    }
}

/// Convenience wrapper: run with `Config::with_cases(cases)`.
pub fn check_cases<T: std::fmt::Debug>(
    name: &str,
    cases: u32,
    gen: impl Fn(&mut Rng, usize) -> T,
    prop: impl Fn(&T) -> CaseResult,
) {
    check(name, Config::with_cases(cases), gen, prop);
}

/// Size for `case` of `total`: linear ramp from 1/8 of max to max, with
/// the first case pinned tiny.
fn ramp_size(case: u32, total: u32, max_size: usize) -> usize {
    if case == 0 {
        return (max_size / 8).max(1);
    }
    let frac = f64::from(case + 1) / f64::from(total.max(1));
    ((max_size as f64 * frac).ceil() as usize).clamp(1, max_size)
}

/// Bisects the size budget down to the smallest size (same case seed)
/// that still fails, returning `(size, value, message)` of the minimal
/// failure found.
fn shrink_by_bisection<T: std::fmt::Debug>(
    case_seed: u64,
    failing_size: usize,
    gen: &impl Fn(&mut Rng, usize) -> T,
    prop: &impl Fn(&T) -> CaseResult,
    failing_value: T,
    failing_msg: String,
) -> (usize, T, String) {
    let mut best = (failing_size, failing_value, failing_msg);
    // Invariant: best.0 fails. Search sizes in [lo, best.0).
    let mut lo = 1usize;
    while lo < best.0 {
        let mid = usize::midpoint(lo, best.0);
        let candidate = gen(&mut Rng::seed_from_u64(case_seed), mid);
        match prop(&candidate) {
            Err(msg) => {
                best = (mid, candidate, msg);
                // Keep searching below; lo unchanged.
                if mid == lo {
                    break;
                }
            }
            Ok(()) => {
                // mid passes: smallest failure is above mid.
                lo = mid + 1;
            }
        }
    }
    best
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, so each property explores a distinct seed sequence.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Asserts a condition inside a property closure, returning `Err` with
/// the condition (and optional formatted context) on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({})",
                stringify!($cond),
                format!($($fmt)+)
            ));
        }
    };
}

/// Asserts equality inside a property closure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n  right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {} ({})\n  left: {:?}\n  right: {:?}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                l,
                r
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        let counter = std::cell::Cell::new(0u32);
        check(
            "sum_commutes",
            Config::with_cases(32),
            |rng, size| {
                counter.set(counter.get() + 1);
                (rng.gen_range(0u64..size as u64 + 1), rng.gen::<u64>() % 100)
            },
            |&(a, b)| {
                prop_assert_eq!(a + b, b + a);
                Ok(())
            },
        );
        count += counter.get();
        assert_eq!(count, 32);
    }

    #[test]
    fn failing_property_panics_with_replay_recipe() {
        let result = std::panic::catch_unwind(|| {
            check(
                "always_small",
                Config::with_cases(64),
                |rng, size| rng.gen_range(0usize..=size),
                |&v| {
                    prop_assert!(v < 5, "v = {}", v);
                    Ok(())
                },
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("FCM_PROP_SEED="), "no replay recipe: {msg}");
        assert!(msg.contains("minimal failing size"), "{msg}");
    }

    #[test]
    fn known_shrink_finds_the_minimal_size() {
        // Generator: a vec of length `size`. Property: len < 10. The
        // minimal failing size is exactly 10; bisection must find it.
        let result = std::panic::catch_unwind(|| {
            check(
                "vec_shorter_than_10",
                Config {
                    cases: 64,
                    max_size: 100,
                    seed: 1,
                },
                |rng, size| (0..size).map(|_| rng.gen::<u8>()).collect::<Vec<u8>>(),
                |v| {
                    prop_assert!(v.len() < 10);
                    Ok(())
                },
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(
            msg.contains("minimal failing size 10"),
            "expected shrink to 10, got: {msg}"
        );
        assert!(msg.contains("FCM_PROP_SIZE=10"), "{msg}");
    }

    #[test]
    fn shrinking_is_deterministic() {
        // Two identical failing runs report identical messages.
        let run = || {
            std::panic::catch_unwind(|| {
                check(
                    "det",
                    Config::with_cases(16),
                    |rng, size| rng.gen_range(0usize..=size),
                    |&v| {
                        prop_assert!(v < 3);
                        Ok(())
                    },
                );
            })
            .expect_err("fails")
            .downcast::<String>()
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_property_names_draw_different_cases() {
        let first = std::cell::Cell::new(0u64);
        check(
            "name_a",
            Config::with_cases(1),
            |rng, _| rng.next_u64(),
            |&v| {
                first.set(v);
                Ok(())
            },
        );
        let second = std::cell::Cell::new(0u64);
        check(
            "name_b",
            Config::with_cases(1),
            |rng, _| rng.next_u64(),
            |&v| {
                second.set(v);
                Ok(())
            },
        );
        assert_ne!(first.get(), second.get());
    }

    #[test]
    fn prop_assert_eq_reports_both_sides() {
        let r: CaseResult = (|| {
            prop_assert_eq!(1 + 1, 3, "context {}", "here");
            Ok(())
        })();
        let msg = r.expect_err("fails");
        assert!(msg.contains("left: 2"), "{msg}");
        assert!(msg.contains("right: 3"), "{msg}");
        assert!(msg.contains("context here"), "{msg}");
    }
}
