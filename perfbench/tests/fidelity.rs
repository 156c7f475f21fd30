//! The traced driver must reproduce `IoStack` exactly: every cell of
//! every workload, at reduced size, on the default seed and on the
//! held-out seed. The traced crash enumeration must reproduce both the
//! untraced one and `bio_bench::crash::run`.

use perfbench::bench::{crash_round, run_cell};
use perfbench::cells::{cells, device_capacity, WorkloadKind};
use perfbench::crashenum::{diff_stacks, divergences, trace_cell, TraceRun};
use perfbench::refclock::RefKernel;
use perfbench::tracer::Tracer;

/// Fraction of the benchmark's cell sizes the tests run.
const SCALE: f64 = 0.02;

/// The default seed and the held-out seed.
const SEEDS: [u64; 2] = [1, 2];

fn traced_matches_iostack(kind: WorkloadKind) {
    for seed in SEEDS {
        let cells = cells(kind, seed, SCALE);
        assert!(!cells.is_empty());
        for cell in &cells {
            let plain = run_cell(cell, None);
            let mut tr = Tracer::new(false);
            let traced = run_cell(cell, Some(&mut tr));
            let cap = device_capacity(&cell.cfg);
            assert_eq!(
                plain.failures(cell.within_capacity, cap),
                Vec::<String>::new(),
                "{} seed {seed}",
                cell.name
            );
            assert_eq!(
                traced.failures(cell.within_capacity, cap),
                Vec::<String>::new(),
                "{} seed {seed} (traced)",
                cell.name
            );
            assert!(plain.report.is_some() && plain.txns_done > 0);
            assert_eq!(
                plain.fingerprint(),
                traced.fingerprint(),
                "{} seed {seed}: traced report differs from IoStack's",
                cell.name
            );
            let counters = traced.counters.expect("traced run has counters");
            assert_eq!(counters.txns, plain.txns_done);
            assert!(counters.events > 0);
        }
    }
}

#[test]
fn durable_cells_traced_match_iostack() {
    traced_matches_iostack(WorkloadKind::Durable);
}

#[test]
fn ordered_cells_traced_match_iostack() {
    traced_matches_iostack(WorkloadKind::Ordered);
}

#[test]
fn device_fill_cells_traced_match_iostack() {
    traced_matches_iostack(WorkloadKind::DeviceFill);
}

fn totals(runs: &[TraceRun]) -> [u64; 6] {
    let mut t = [0u64; 6];
    for r in runs {
        t[0] += r.points.len() as u64;
        for p in &r.points {
            t[1] += p.images;
            t[2] += p.duplicates;
            t[3] += p.sampled_images;
            t[4] += p.fs_violations;
            t[5] += p.epoch_violations;
        }
    }
    t
}

#[test]
fn crash_traces_match_crash_run() {
    const TRACES: u64 = 2;
    let report = bio_bench::crash::run(TRACES);
    let stacks = diff_stacks();
    let seeds: Vec<u64> = (0..TRACES).collect();
    let mut kernel = RefKernel::new();
    let plain = crash_round(&stacks, &seeds, &mut kernel, None).runs;
    let mut tr = Tracer::new(false);
    let traced = crash_round(&stacks, &seeds, &mut kernel, Some(&mut tr)).runs;
    assert_eq!(report.rows.len(), stacks.len());
    let mut images = 0;
    for ((row, s), (p, t)) in report
        .rows
        .iter()
        .zip(&stacks)
        .zip(plain.iter().zip(&traced))
    {
        assert_eq!(row.label, s.label);
        let got = totals(p);
        let want = [
            row.fork_points,
            row.images,
            row.duplicates,
            row.sampled_images,
            row.fs_violations,
            row.epoch_violations,
        ];
        assert_eq!(got, want, "{}", s.label);
        for (a, b) in p.iter().zip(t) {
            assert_eq!(a.points, b.points, "{}: traced outcomes differ", s.label);
            assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
        }
        images += got[1];
    }
    assert_eq!(report.total_points, images);
    assert_eq!(
        report.divergences.len() as u64,
        divergences(&stacks, &plain)
    );
}

#[test]
fn crash_traces_pass_on_both_seeds() {
    let stacks = diff_stacks();
    let mut kernel = RefKernel::new();
    for seed in SEEDS {
        let seeds = perfbench::bench::crash_seeds(seed, 2);
        let runs = crash_round(&stacks, &seeds, &mut kernel, None).runs;
        assert_eq!(divergences(&stacks, &runs), 0, "seed {seed}");
        for r in runs.iter().flatten() {
            assert_eq!(r.violations(), 0, "seed {seed}");
            assert!(r.images() > 0);
        }
    }
}

#[test]
fn crash_trace_simulation_traced_matches_iostack() {
    for s in &diff_stacks() {
        for seed in SEEDS {
            let cell = trace_cell(s, seed);
            let plain = run_cell(&cell, None);
            let mut tr = Tracer::new(false);
            let traced = run_cell(&cell, Some(&mut tr));
            let cap = device_capacity(&cell.cfg);
            assert_eq!(
                plain.failures(true, cap),
                Vec::<String>::new(),
                "{}",
                cell.name
            );
            assert_eq!(
                traced.failures(true, cap),
                Vec::<String>::new(),
                "{}",
                cell.name
            );
            assert_eq!(plain.fingerprint(), traced.fingerprint(), "{}", cell.name);
        }
    }
}
