//! Request logs: every workload's requests are a pure function of the
//! seed, generated before the load starts.
//!
//! Each client stream only adds, removes and re-attributes FCMs it owns
//! and only points new edges at FCMs that already exist when its request
//! is applied (base FCMs or its own earlier ones), so every request is
//! valid whatever order the daemon interleaves the streams in.

use fcm_substrate::Rng;

use crate::net::{Kind, Req};

fn mutation(line: String) -> Req {
    Req {
        line,
        kind: Kind::Mutation,
    }
}

fn query(line: String) -> Req {
    Req {
        line,
        kind: Kind::Query,
    }
}

fn pick<'a>(rng: &mut Rng, pool: &'a [String]) -> &'a str {
    &pool[rng.gen_range(0usize..pool.len())]
}

/// A point query (influence or separation between two FCMs) or `stats`.
fn read_request(rng: &mut Rng, targets: &[String], stats_pct: u64) -> Req {
    let roll = rng.gen_range(0u64..100);
    let from = pick(rng, targets);
    let to = pick(rng, targets);
    if roll < stats_pct {
        query(r#"{"op":"stats"}"#.to_string())
    } else if roll.is_multiple_of(2) {
        query(format!(
            r#"{{"op":"influence","from":"{from}","to":"{to}"}}"#
        ))
    } else {
        query(format!(
            r#"{{"op":"separation","from":"{from}","to":"{to}"}}"#
        ))
    }
}

/// The `serve_mix` client: the servegen steady-state mix. 20% mutations
/// (adds capped at 8 owned FCMs per client, removes, and mostly
/// `set_attr`), 80% influence/separation/stats queries on base FCMs.
pub struct ServeMix {
    rng: Rng,
    client: usize,
    own: Vec<String>,
    base: Vec<String>,
    created: u64,
}

/// Owned-FCM cap per client: keeps the model at a steady size.
const OWN_CAP: usize = 8;

impl ServeMix {
    pub fn new(seed: u64, client: usize, base: &[String]) -> ServeMix {
        ServeMix {
            rng: Rng::stream(seed, client as u64),
            client,
            own: Vec::new(),
            base: base.to_vec(),
            created: 0,
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<Req> {
        (0..n).map(|_| self.next()).collect()
    }

    fn next(&mut self) -> Req {
        if self.rng.gen_range(0u64..100) >= 20 {
            return read_request(&mut self.rng, &self.base, 10);
        }
        let roll = self.rng.gen_range(0u64..100);
        if roll < 10 {
            if self.own.len() >= OWN_CAP {
                return self.remove_own();
            }
            let name = format!("g{}_{}", self.client, self.created);
            self.created += 1;
            let to = pick(&mut self.rng, &self.base).to_string();
            let w = self.rng.gen_range(0.01f64..0.5);
            let crit = self.rng.gen_range(0u64..3);
            self.own.push(name.clone());
            mutation(format!(
                r#"{{"op":"add_fcm","name":"{name}","criticality":{crit},"influences":[["{to}",{w}]]}}"#
            ))
        } else if roll < 20 && !self.own.is_empty() {
            self.remove_own()
        } else if let Some(name) = self.own.last() {
            let crit = self.rng.gen_range(0u64..3);
            mutation(format!(
                r#"{{"op":"set_attr","name":"{name}","criticality":{crit}}}"#
            ))
        } else {
            let name = pick(&mut self.rng, &self.base).to_string();
            let t = self.rng.gen_range(0.0f64..0.001);
            mutation(format!(
                r#"{{"op":"set_attr","name":"{name}","throughput":{t}}}"#
            ))
        }
    }

    fn remove_own(&mut self) -> Req {
        let name = self.own.pop().expect("caller checked non-empty");
        mutation(format!(r#"{{"op":"remove_fcm","name":"{name}"}}"#))
    }
}

/// The `fleet_evolve` client: grows its share of the fleet, then churns.
pub struct Fleet {
    rng: Rng,
    client: usize,
    base: Vec<String>,
    /// FCMs this client added while growing (never removed).
    grown: Vec<String>,
    /// FCMs this client added while churning and has not removed.
    churned: Vec<String>,
    created: u64,
}

impl Fleet {
    pub fn new(seed: u64, client: usize, base: &[String]) -> Fleet {
        Fleet {
            rng: Rng::stream(seed ^ 0xf1ee_7000, client as u64),
            client,
            base: base.to_vec(),
            grown: Vec::new(),
            churned: Vec::new(),
            created: 0,
        }
    }

    /// An `add_fcm` with zero throughput (capacity never rejects it), a
    /// contract, and one or two influence edges to existing FCMs.
    fn add(&mut self, name: &str, targets_from_grown: bool) -> Req {
        let edges = self.rng.gen_range(1usize..3);
        let mut influences = Vec::with_capacity(edges);
        for _ in 0..edges {
            let use_grown =
                targets_from_grown || !self.grown.is_empty() && self.rng.gen_range(0u64..4) > 0;
            let to = if use_grown && !self.grown.is_empty() {
                pick(&mut self.rng, &self.grown).to_string()
            } else {
                pick(&mut self.rng, &self.base).to_string()
            };
            if influences.iter().any(|(t, _): &(String, f64)| *t == to) {
                continue;
            }
            influences.push((to, self.rng.gen_range(0.01f64..0.3)));
        }
        let crit = self.rng.gen_range(0u64..3);
        let edges: Vec<String> = influences
            .iter()
            .map(|(t, w)| format!(r#"["{t}",{w}]"#))
            .collect();
        mutation(format!(
            r#"{{"op":"add_fcm","name":"{name}","criticality":{crit},"throughput":0,"influences":[{}],"contract":{{"guarantee":0.9,"rely":1000000000,"floor":0}}}}"#,
            edges.join(",")
        ))
    }

    /// `n` growth adds.
    pub fn grow(&mut self, n: usize) -> Vec<Req> {
        (0..n)
            .map(|_| {
                let name = format!("f{}_{}", self.client, self.created);
                self.created += 1;
                let r = self.add(&name, false);
                self.grown.push(name);
                r
            })
            .collect()
    }

    /// `n` churn requests: half balanced add/remove/set_attr mutations,
    /// half influence/separation/stats queries over the grown fleet.
    pub fn churn(&mut self, n: usize, targets: &[String]) -> Vec<Req> {
        (0..n)
            .map(|_| {
                if self.rng.gen_range(0u64..2) == 0 {
                    return read_request(&mut self.rng, targets, 20);
                }
                match self.rng.gen_range(0u64..3) {
                    1 if !self.churned.is_empty() => {
                        let i = self.rng.gen_range(0usize..self.churned.len());
                        let name = self.churned.swap_remove(i);
                        mutation(format!(r#"{{"op":"remove_fcm","name":"{name}"}}"#))
                    }
                    2 => {
                        let name = if self.churned.is_empty() {
                            pick(&mut self.rng, &self.grown).to_string()
                        } else {
                            pick(&mut self.rng, &self.churned).to_string()
                        };
                        let crit = self.rng.gen_range(0u64..3);
                        mutation(format!(
                            r#"{{"op":"set_attr","name":"{name}","criticality":{crit}}}"#
                        ))
                    }
                    _ => {
                        let name = format!("k{}_{}", self.client, self.created);
                        self.created += 1;
                        let r = self.add(&name, true);
                        self.churned.push(name);
                        r
                    }
                }
            })
            .collect()
    }

    pub fn grown(&self) -> &[String] {
        &self.grown
    }
}
