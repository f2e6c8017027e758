//! A fleet-style mutation stream for the differential oracle
//! (`tests/fleet_oracle.rs`), which includes this file by path.
//!
//! It grows the paper model to a few hundred contracted FCMs and then
//! churns it. Every added FCM points one or two influence edges at live
//! FCMs, and many also take `influenced_by` edges from live sources, so
//! an add dirties the rows of other FCMs, not just its own. Contracts
//! carry per-edge caps, and a share of every mutation kind is built to
//! be rejected: a guarantee below the FCM's own row sum, or an in-edge
//! that pushes its source past the source's guarantee (C017), a cap
//! below the capped edge (C018), a floor above the criticality (C020), a
//! cap naming an FCM that is not there (C021), an unsatisfiable timing
//! window (C014), an unknown name or a weight outside (0, 1]. The caller
//! reports what the model accepted through [`Fleet::accepted`], so the
//! stream always draws names from the live model.

use fcm_check::Contract;
use fcm_substrate::Rng;

use super::Mutation;

/// The stream's state: the live names and a counter for fresh ones.
pub struct Fleet {
    rng: Rng,
    /// Live FCMs in the order they joined.
    live: Vec<String>,
    /// The paper model's FCMs that are still live.
    base: Vec<String>,
    /// Live FCMs whose contract keeps the set from covering the model
    /// (none) or from discharging its relies (a rely of 0.5): removals
    /// pick them first.
    blockers: Vec<String>,
    created: u64,
}

impl Fleet {
    /// A stream over a model whose FCMs are `base`.
    pub fn new(seed: u64, base: &[String]) -> Fleet {
        Fleet {
            rng: Rng::seed_from_u64(seed),
            live: base.to_vec(),
            base: base.to_vec(),
            blockers: Vec::new(),
            created: 0,
        }
    }

    fn pick(&mut self) -> String {
        self.live[self.rng.gen_range(0usize..self.live.len())].clone()
    }

    /// A live FCM that the stream added with a plain contract (never a
    /// paper FCM or a blocker), if any.
    fn pick_grown(&mut self) -> Option<String> {
        let grown: Vec<&String> = self
            .live
            .iter()
            .filter(|n| !self.base.contains(n) && !self.blockers.contains(n))
            .collect();
        (!grown.is_empty()).then(|| grown[self.rng.gen_range(0usize..grown.len())].clone())
    }

    /// One growth mutation: an add, mostly accepted and sometimes built
    /// to be rejected; once the fleet is 100 strong, now and then the
    /// removal of a paper FCM.
    pub fn grow(&mut self) -> Mutation {
        if self.created >= 100 && !self.base.is_empty() && self.rng.gen_bool(0.05) {
            return self.remove_base();
        }
        self.add(true)
    }

    fn remove_base(&mut self) -> Mutation {
        Mutation::RemoveFcm {
            name: self.base[self.rng.gen_range(0usize..self.base.len())].clone(),
        }
    }

    /// One churn mutation: adds, removes and attribute edits in equal
    /// shares, plus an occasional HW failure or restore.
    pub fn churn(&mut self) -> Mutation {
        match self.rng.gen_range(0u64..20) {
            0..=5 => {
                let contracted = self.rng.gen_bool(0.95);
                self.add(contracted)
            }
            6..=11 => {
                // Paper FCMs go first, so the contracts come to cover
                // the model and the rely (C019) and bound (C022) phases
                // run; caps naming the victim reject its removal.
                if !self.base.is_empty() && self.rng.gen_bool(0.5) {
                    return self.remove_base();
                }
                let name = if !self.blockers.is_empty() {
                    self.blockers[self.rng.gen_range(0usize..self.blockers.len())].clone()
                } else if self.rng.gen_bool(0.03) {
                    "ghost".to_string()
                } else {
                    self.pick()
                };
                Mutation::RemoveFcm { name }
            }
            12..=17 => self.set_attr(),
            18 => Mutation::FailNode {
                node: format!("hw{}", self.rng.gen_range(0u64..6)),
            },
            _ => Mutation::RestoreNode {
                node: format!("hw{}", self.rng.gen_range(0u64..6)),
            },
        }
    }

    fn set_attr(&mut self) -> Mutation {
        let name = self.pick();
        let rng = &mut self.rng;
        let timing = match rng.gen_range(0u64..10) {
            0 => Some(None),
            1 => Some(Some((0, 1000, rng.gen_range(1u64..40)))),
            // Unsatisfiable in isolation: C014 rejects it.
            2 => Some(Some((0, 5, 10))),
            _ => None,
        };
        Mutation::SetAttr {
            name,
            criticality: rng.gen_bool(0.7).then(|| rng.gen_range(0u32..4)),
            throughput: rng.gen_bool(0.2).then(|| rng.gen_range(0.0f64..0.01)),
            timing,
        }
    }

    fn add(&mut self, contracted: bool) -> Mutation {
        let name = if self.rng.gen_bool(0.02) {
            self.pick() // duplicate name: rejected
        } else {
            self.created += 1;
            format!("f{}", self.created)
        };
        let mut influences: Vec<(String, f64)> = Vec::new();
        for _ in 0..self.rng.gen_range(1usize..3) {
            let to = self.pick();
            if influences.iter().all(|(t, _)| *t != to) {
                let w = self.rng.gen_range(0.01f64..0.3);
                influences.push((to, w));
            }
        }
        let mut influenced_by: Vec<(String, f64)> = Vec::new();
        for _ in 0..self.rng.gen_range(0usize..3) {
            let from = self.pick();
            if influenced_by.iter().all(|(f, _)| *f != from) {
                let w = self.rng.gen_range(0.01f64..0.15);
                influenced_by.push((from, w));
            }
        }
        match self.rng.gen_range(0u64..100) {
            0 => influences.push(("ghost".to_string(), 0.1)),
            1 => influences[0].1 = 1.5,
            // A heavy in-edge pushes a contracted source past its
            // guarantee: the C017 lands on the source's row.
            2..=4 => {
                if let Some(from) = self.pick_grown() {
                    if influenced_by.iter().all(|(f, _)| *f != from) {
                        influenced_by.push((from, 0.95));
                    }
                }
            }
            _ => {}
        }
        let crit = self.rng.gen_range(0u32..4);
        let timing = match self.rng.gen_range(0u64..20) {
            0..=2 => Some((0, 1000, self.rng.gen_range(1u64..30))),
            3 => Some((0, 5, 10)),
            _ => None,
        };
        let row_sum: f64 = influences.iter().map(|(_, w)| w).sum();
        // Caps never name a paper FCM or a blocker, so no cap keeps one
        // from being removed.
        let cappable =
            !self.base.contains(&influences[0].0) && !self.blockers.contains(&influences[0].0);
        let contract = contracted.then(|| {
            let rng = &mut self.rng;
            let guarantee = match rng.gen_range(0u64..20) {
                0 => row_sum / 2.0, // C017
                1 => 1.25,          // no convergence: a C022 warning
                _ => 0.9,
            };
            let rely = if rng.gen_bool(0.03) { 0.5 } else { 1e9 };
            let floor = if rng.gen_bool(0.05) {
                crit + 1 // C020
            } else {
                rng.gen_range(0..=crit)
            };
            let mut c = Contract::new(name.clone(), guarantee, rely, floor);
            if cappable && rng.gen_bool(0.3) {
                let (to, w) = influences[0].clone();
                // Mostly at or above the edge (C018 stays quiet), once
                // in five below it.
                let cap = if rng.gen_bool(0.2) { w / 2.0 } else { w + 0.05 };
                c = c.with_cap(to, cap);
            }
            c
        });
        let contract = contract.map(|c| {
            if self.rng.gen_bool(0.2) {
                match self.pick_grown() {
                    Some(t) => c.with_cap(t, 0.5),
                    None => c,
                }
            } else if self.rng.gen_bool(0.02) {
                c.with_cap("ghost", 0.5) // C021
            } else {
                c
            }
        });
        Mutation::AddFcm {
            name,
            criticality: crit,
            throughput: 0.0,
            security: 0,
            timing,
            influences,
            influenced_by,
            contract,
        }
    }

    /// Records that the model accepted `m`.
    pub fn accepted(&mut self, m: &Mutation) {
        match m {
            Mutation::AddFcm { name, contract, .. } => {
                self.live.push(name.clone());
                if contract.as_ref().is_none_or(|c| c.rely < 1.0) {
                    self.blockers.push(name.clone());
                }
            }
            Mutation::RemoveFcm { name } => {
                for names in [&mut self.live, &mut self.base, &mut self.blockers] {
                    names.retain(|n| n != name);
                }
            }
            _ => {}
        }
    }
}
