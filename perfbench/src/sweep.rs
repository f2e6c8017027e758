//! The `design_sweep` workload: seeded random models at E1's parameters
//! run through the `fcm-check` catalog, the Eq. 3 separation series and
//! every allocation heuristic, fanned out over `SweepDriver`; and each
//! model's contracts restored from their persisted text and re-certified.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use fcm_alloc::heuristics::{h1, h1_pair_all, h2, h2_source_target, h3};
use fcm_alloc::replication::expand_replicas;
use fcm_alloc::{Clustering, SwGraph};
use fcm_check::{CertView, Certification, Certifier, ContractSet, Dirty};
use fcm_core::separation::SeparationAnalysis;
use fcm_core::ImportanceWeights;
use fcm_eval::SweepDriver;
use fcm_graph::algo::BisectPolicy;
use fcm_graph::{InfluenceMatrix, Matrix};
use fcm_substrate::Json;
use fcm_workloads::random::RandomWorkload;

use crate::layers;
use crate::net;
use crate::stats::{median, pct, scaled, Outcome};
use crate::Settings;

/// Model sizes: SW nodes after replica expansion. Every model of a size
/// has exactly that many nodes, so a run's work does not swing with the
/// number of replicas a seed happens to draw (H3 alone grows with about
/// the fifth power of the node count). Largest first: the pool claims
/// cells in order, so the slowest cells start first and the threads end
/// together.
const SIZES: [usize; 3] = [48, 32, 16];
/// Catalog checks per model and sweep; each is one query sample.
const CATALOG_REPS: usize = 10;
/// Heuristics run on every model, in table order; each span is named
/// after its layer and entry point.
const HEURISTICS: [&str; 6] = [
    "alloc.h1",
    "alloc.h1_pair_all",
    "alloc.h2_largest",
    "alloc.h2_heaviest",
    "alloc.h2_st",
    "alloc.h3",
];
/// Grids in the design pool: the run's own grid, which is swept, and
/// grids of seeds derived from it, whose contracts are restored with it.
/// A model's cost varies with its seed; a pool of several grids keeps
/// the set-up and restore figures from following one seed's draw.
const POOL: u64 = 12;
/// Set-up samples: `setup_s` is their median, each the time to generate
/// the whole pool on `nproc` threads. The first is the run's own set-up;
/// `SETUP_PER_SWEEP` more follow each sweep, so the samples span the run.
const SETUP_PER_SWEEP: usize = 2;
/// Restore samples: `recover_s` is their median, each the mean time of
/// `RESTORE_BATCH` restores of the whole pool on `nproc` threads. Some
/// are taken before the sweeps and some after each sweep, so the samples
/// span the run rather than one moment of the host's load.
const RESTORE_FIRST: usize = 3;
const RESTORE_PER_SWEEP: usize = 2;
const RESTORE_BATCH: usize = 4;
/// Screening samples: `capacity_rps` is their median, each the rate at
/// which the whole pool passes the catalog and the cheap heuristics on
/// `nproc` threads; taken like the restore samples.
const SCREEN_FIRST: usize = 2;
const SCREEN_PER_SWEEP: usize = 1;

/// One grid cell: a model, the clustering target every heuristic aims
/// for, and the model's contracts in persisted form.
pub struct Cell {
    pub n: usize,
    pub seed: u64,
    pub graph: SwGraph,
    pub target: usize,
    /// FCM names and criticalities in matrix row order.
    pub names: Vec<String>,
    pub crits: Vec<u32>,
    /// The Eq. 2 influence matrix of the model.
    pub influence: InfluenceMatrix,
    /// The model's synthesized contracts as `fcm-contracts/v1` text.
    pub contracts: String,
}

/// The largest replica group: anti-affinity needs at least that many
/// clusters, so any smaller target is provably infeasible.
fn min_clusters(g: &SwGraph) -> usize {
    let mut sizes: BTreeMap<u32, usize> = BTreeMap::new();
    for (_, n) in g.nodes() {
        if let Some(rg) = n.replica_group {
            *sizes.entry(rg).or_default() += 1;
        }
    }
    sizes.values().copied().max().unwrap_or(1)
}

/// One E1 model (density 0.25, 15% replicated processes) with exactly
/// `nodes` SW nodes after replica expansion: the process count is
/// stepped toward the target and the sub-seed advanced until the expanded
/// graph has the requested size.
fn model(nodes: usize, seed: u64) -> SwGraph {
    let mut processes = nodes;
    for attempt in 0u64.. {
        let g = RandomWorkload {
            processes,
            density: 0.25,
            replicated_fraction: 0.15,
            seed: seed.wrapping_add(attempt.wrapping_mul(0x2545_f491_4f6c_dd1d)),
            ..RandomWorkload::default()
        }
        .generate();
        let g = expand_replicas(&g).graph;
        match g.node_count().cmp(&nodes) {
            std::cmp::Ordering::Equal => return g,
            std::cmp::Ordering::Greater => processes = processes.saturating_sub(1).max(1),
            std::cmp::Ordering::Less => processes += 1,
        }
    }
    unreachable!("the attempt counter is unbounded")
}

/// The design pool for `seed`: `grids` grids, the first for `seed` itself,
/// generated on `threads` threads.
pub fn pool(seed: u64, seeds: u64, grids: u64, threads: usize) -> Vec<Vec<Cell>> {
    let ks: Vec<u64> = (0..grids).collect();
    SweepDriver::new(0).with_threads(threads).run(&ks, |&k, _| {
        grid(
            seed.wrapping_add(k.wrapping_mul(0x5851_f42d_4c95_7f2d)),
            seeds,
        )
    })
}

/// The grid for `seed`: `seeds` models per size, target n/3 (never below
/// the largest replica group).
pub fn grid(seed: u64, seeds: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &n in &SIZES {
        for s in 0..seeds {
            let model_seed = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(s.wrapping_mul(7919))
                .wrapping_add(n as u64);
            let graph = model(n, model_seed);
            let target = (n / 3).max(min_clusters(&graph));
            let influence = InfluenceMatrix::Dense(Matrix::from_graph(&graph));
            let contracts = fcm_workloads::contracts::for_graph(&graph, &influence)
                .to_json()
                .to_string_compact();
            cells.push(Cell {
                n,
                seed: model_seed,
                names: graph.nodes().map(|(_, v)| v.name.clone()).collect(),
                crits: graph
                    .nodes()
                    .map(|(_, v)| v.attributes.criticality.0)
                    .collect(),
                graph,
                target,
                influence,
                contracts,
            });
        }
    }
    cells
}

/// Everything one cell produced.
pub struct CellOut {
    /// The cell's line of the per-seed table (deterministic).
    pub row: String,
    pub catalog_ns: Vec<u64>,
    pub heuristic_ns: Vec<u64>,
    /// Heuristic runs that found no feasible clustering.
    pub infeasible: u64,
    /// Runs whose target is below the largest replica group.
    pub expected_infeasible: u64,
    /// Clusterings that are not a partition with the target count.
    pub bad_partitions: u64,
}

fn is_partition(c: &Clustering, n: usize, target: usize) -> bool {
    let mut seen = vec![false; n];
    for v in c.clusters().iter().flatten() {
        if v.index() >= n || std::mem::replace(&mut seen[v.index()], true) {
            return false;
        }
    }
    c.len() == target && seen.iter().all(|&s| s)
}

fn run_cell(cell: &Cell, idx: u64) -> CellOut {
    let g = &cell.graph;
    let mut catalog_ns = Vec::with_capacity(CATALOG_REPS);
    let mut report = None;
    for _ in 0..CATALOG_REPS {
        let t0 = Instant::now();
        report = Some({
            let _s = fcm_obs::span_idx("check.catalog", idx);
            fcm_check::gates::check_sw_graph(g)
        });
        catalog_ns.push(t0.elapsed().as_nanos() as u64);
    }
    let report = report.expect("at least one catalog run");
    let separation = {
        let _s = fcm_obs::span_idx("core.separation", idx);
        SeparationAnalysis::from_graph(g).map(|s| s.pairwise(4))
    };
    let sep_sum: f64 = separation.as_ref().map_or(f64::NAN, |m| {
        (0..m.rows())
            .flat_map(|i| (0..m.cols()).map(move |j| (i, j)))
            .map(|ij| m[ij])
            .sum()
    });
    let total: f64 = g
        .edges()
        .map(|(_, e)| e.weight.influence())
        .sum::<f64>()
        .max(1e-9);
    let weights = ImportanceWeights::default();
    let mut out = CellOut {
        row: format!(
            "n={} seed={} nodes={} target={} catalog_errors={} sep_sum={sep_sum:.9}",
            cell.n,
            cell.seed,
            g.node_count(),
            cell.target,
            report.count(fcm_check::Severity::Error)
        ),
        catalog_ns,
        heuristic_ns: Vec::with_capacity(HEURISTICS.len()),
        infeasible: 0,
        expected_infeasible: 0,
        bad_partitions: 0,
    };
    for (k, name) in HEURISTICS.iter().enumerate() {
        let t = Instant::now();
        let result = {
            let _s = fcm_obs::span_idx(name, idx);
            match k {
                0 => h1(g, cell.target),
                1 => h1_pair_all(g, cell.target),
                2 => h2(g, cell.target, BisectPolicy::LargestPart),
                3 => h2(g, cell.target, BisectPolicy::HeaviestPart),
                4 => h2_source_target(g, cell.target, &weights),
                _ => h3(g, cell.target, &weights),
            }
        };
        out.heuristic_ns.push(t.elapsed().as_nanos() as u64);
        if cell.target < min_clusters(g) {
            out.expected_infeasible += 1;
        }
        match result {
            Ok(c) => {
                if !is_partition(&c, g.node_count(), cell.target) {
                    out.bad_partitions += 1;
                }
                out.row.push_str(&format!(
                    " {}={:.9}",
                    &name[6..],
                    c.cross_influence(g) / total
                ));
            }
            Err(_) => {
                out.infeasible += 1;
                out.row.push_str(&format!(" {}=infeasible", &name[6..]));
            }
        }
    }
    black_box(&separation);
    out
}

/// One sweep over the grid on `threads` threads: the per-cell outputs and
/// the wall time.
pub fn sweep(cells: &[Cell], threads: usize) -> (Vec<CellOut>, f64) {
    let t = Instant::now();
    let idx: Vec<usize> = (0..cells.len()).collect();
    let outs = SweepDriver::new(0)
        .with_threads(threads)
        .run(&idx, |&i, _| run_cell(&cells[i], i as u64));
    (outs, t.elapsed().as_secs_f64())
}

/// Restores a cell's contract verdicts from its persisted contracts:
/// parse the text, rebuild the contract set and certify it from scratch.
pub fn restore(cell: &Cell) -> Result<(ContractSet, Certification), String> {
    let doc = Json::parse(&cell.contracts).map_err(|e| format!("contracts: {e}"))?;
    let set = ContractSet::from_json(&doc)?;
    let cert = Certifier::new().certify(
        &CertView {
            model: "design_sweep",
            names: &cell.names,
            crits: &cell.crits,
            influence: &cell.influence,
            contracts: &set,
        },
        Dirty::Full,
        1,
    );
    Ok((set, cert))
}

/// Screens one model the way a designer triages candidates before H3:
/// the `fcm-check` catalog, then H1 and H2 (largest part). Returns how
/// many of the two clusterings are not a partition with the target count.
fn screen(cell: &Cell) -> u64 {
    let g = &cell.graph;
    black_box(fcm_check::gates::check_sw_graph(g));
    [
        h1(g, cell.target),
        h2(g, cell.target, BisectPolicy::LargestPart),
    ]
    .iter()
    .filter(|r| !matches!(r, Ok(c) if is_partition(c, g.node_count(), cell.target)))
    .count() as u64
}

/// Correctness of the restore: every cell's restored contracts hold on
/// its model (no error; E1 models' rows may sum past 1, so convergence
/// is not certified and its warning is expected) and serialize back to
/// the persisted text.
pub fn check_restore(out: &mut Outcome, cells: &[&Cell]) -> Result<(), String> {
    let mut bad = 0u64;
    for cell in cells {
        let (set, cert) = restore(cell)?;
        let errors = cert.report.count(fcm_check::Severity::Error);
        if errors > 0 || set.to_json().to_string_compact() != cell.contracts {
            bad += 1;
        }
    }
    out.count(cells.len() as u64, bad);
    out.check(
        "restored_contracts_hold",
        bad == 0,
        format!("{bad} of {} restored models fail", cells.len()),
    );
    Ok(())
}

pub fn table(outs: &[CellOut]) -> String {
    outs.iter().map(|o| format!("{}\n", o.row)).collect()
}

/// Correctness of one sweep: partitions, infeasible count, and the table
/// against the single-thread reference.
pub fn check_sweep(out: &mut Outcome, outs: &[CellOut], reference: &str) {
    let bad: u64 = outs.iter().map(|o| o.bad_partitions).sum();
    let infeasible: u64 = outs.iter().map(|o| o.infeasible).sum();
    let expected: u64 = outs.iter().map(|o| o.expected_infeasible).sum();
    let runs = (outs.len() * HEURISTICS.len()) as u64;
    out.count(
        runs + (outs.len() * CATALOG_REPS) as u64,
        bad + infeasible.abs_diff(expected),
    );
    out.check(
        "clusterings_are_partitions",
        bad == 0,
        format!("{bad} of {runs} clusterings malformed"),
    );
    out.check(
        "infeasible_as_expected",
        infeasible == expected,
        format!("{infeasible} infeasible, {expected} expected"),
    );
    let t = table(outs);
    out.check(
        "table_identical_across_threads",
        t == reference,
        format!("{} vs {} bytes", t.len(), reference.len()),
    );
}

pub fn design_sweep(s: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seeds = if s.quick { 1 } else { 3 };
    let threads = net::budget();
    let grids = if s.quick { 2 } else { POOL };
    let make_pool = |setup: &mut Vec<f64>| {
        let t = Instant::now();
        let designs = pool(s.seed, seeds, grids, threads);
        setup.push(t.elapsed().as_secs_f64());
        designs
    };
    let mut setup = Vec::new();
    let designs = make_pool(&mut setup);
    let models: Vec<&Cell> = designs.iter().flatten().collect();

    let restorer = SweepDriver::new(0).with_threads(threads);
    let restore_sample = |restores: &mut Vec<f64>, n: usize| -> Result<(), String> {
        for _ in 0..n {
            let t = Instant::now();
            for _ in 0..RESTORE_BATCH {
                for r in restorer.run(&models, |cell, _| restore(cell)) {
                    black_box(r?);
                }
            }
            restores.push(t.elapsed().as_secs_f64() / RESTORE_BATCH as f64);
        }
        Ok(())
    };
    let mut restores = Vec::new();
    restore_sample(&mut restores, RESTORE_FIRST)?;
    check_restore(&mut out, &models)?;
    let mut screen_bad = 0;
    let mut screen_sample = |rates: &mut Vec<f64>, n: usize| {
        for _ in 0..n {
            let t = Instant::now();
            screen_bad += restorer
                .run(&models, |cell, _| screen(cell))
                .iter()
                .sum::<u64>();
            rates.push(models.len() as f64 / t.elapsed().as_secs_f64());
        }
    };
    let mut rates = Vec::new();
    screen_sample(&mut rates, SCREEN_FIRST);
    let cells: &[Cell] = &designs[0];

    // The single-thread sweep is the reference table.
    let (reference, _) = sweep(cells, 1);
    let reference_table = table(&reference);

    let mut walls = Vec::new();
    let mut design_ms = Vec::new();
    let mut catalog_ms = Vec::new();
    let start = Instant::now();
    let min_reps = if s.quick { 1 } else { 3 };
    while walls.len() < min_reps || (start.elapsed().as_secs_f64() < s.seconds && walls.len() < 20)
    {
        let (outs, wall) = sweep(cells, threads);
        check_sweep(&mut out, &outs, &reference_table);
        for o in &outs {
            design_ms.push(o.heuristic_ns.iter().sum::<u64>() as f64 / 1e6);
            catalog_ms.extend(scaled(&o.catalog_ns, 1e6));
        }
        walls.push(wall);
        if walls.len() == 1 {
            // The workload's peak, before any repeated set-up sample
            // holds a second pool.
            out.put(
                "peak_rss_mb",
                net::proc_info("self").vm_hwm_kb as f64 / 1024.0,
                "MB",
                1,
            );
        }
        restore_sample(&mut restores, RESTORE_PER_SWEEP)?;
        screen_sample(&mut rates, SCREEN_PER_SWEEP);
        for _ in 0..SETUP_PER_SWEEP {
            black_box(make_pool(&mut setup));
        }
    }
    out.put_note(
        "setup_s",
        median(&setup),
        "s",
        setup.len() as u64,
        format!(
            "generation of a pool of {grids} grids, {} models, on {threads} threads",
            models.len()
        ),
    );
    out.put_note(
        "recover_s",
        median(&restores),
        "s",
        (restores.len() * RESTORE_BATCH) as u64,
        format!(
            "contracts of all {} pool models parsed from persisted text and re-certified on {threads} threads; median over {} samples of the mean of {RESTORE_BATCH}",
            models.len(),
            restores.len()
        ),
    );
    let wall = median(&walls);
    out.put("work_s", wall, "s", walls.len() as u64);
    out.put_note(
        "capacity_rps",
        median(&rates),
        "1/s",
        rates.len() as u64,
        format!(
            "pool models screened per second (catalog, H1, H2) on {threads} threads; median over samples"
        ),
    );
    let screened = (rates.len() * models.len() * 2) as u64;
    out.count(screened, screen_bad);
    out.check(
        "screened_clusterings_are_partitions",
        screen_bad == 0,
        format!("{screen_bad} of {screened} screening clusterings malformed or infeasible"),
    );
    let note = "one model through all six heuristics".to_string();
    out.put_note(
        "mutation_p50_ms",
        median(&design_ms),
        "ms",
        design_ms.len() as u64,
        note.clone(),
    );
    out.put_note(
        "mutation_p99_ms",
        pct(&design_ms, 99.0),
        "ms",
        design_ms.len() as u64,
        note,
    );
    out.put(
        "query_p50_ms",
        median(&catalog_ms),
        "ms",
        catalog_ms.len() as u64,
    );
    out.put(
        "query_p99_ms",
        pct(&catalog_ms, 99.0),
        "ms",
        catalog_ms.len() as u64,
    );

    if s.trace {
        layers::sweep_layers(
            "design_sweep",
            cells,
            threads,
            wall,
            &reference_table,
            &mut out,
        )?;
    }
    Ok(out)
}

/// The check, core, alloc and eval layers on one model per size: the
/// reference probe a serving workload's traced run uses for the layers
/// it does not drive.
pub fn reference_probe(s: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cells = grid(s.seed, 1);
    let threads = net::budget();
    let (outs, wall) = sweep(&cells, threads);
    layers::sweep_layers(
        "design_sweep-probe",
        &cells,
        threads,
        wall,
        &table(&outs),
        &mut out,
    )?;
    Ok(out)
}
