//! The `crash_enum` workload: the differential crash enumeration that
//! `figures --crash-enum` runs, driven trace by trace from outside
//! `bio-bench` so set-up, stepping, capture and enumeration can be timed
//! apart.
//!
//! [`run_trace`] repeats `bio_bench::crash`'s private trace driver step
//! for step through its public pieces (`IoStack::step`,
//! `CaptureCursor::capture`, `crash::enumerate_point`); the fidelity test
//! checks its totals against `crash::run`.

use std::collections::{BTreeMap, BTreeSet};

use barrier_io::{DeviceProfile, FileRef, IoStack, StackConfig, StackReport, Topology};
use bio_bench::crash::{enumerate_point, CaptureCursor, PointOutcome};
use bio_sim::SimDuration;
use bio_workloads::{RandWrite, SyncMode, WriteMode};

use crate::cells::{Cell, Driver, TxnPerSync};
use crate::tracer::{Site, Tracer};

/// Write+sync pairs per trace (as in `bio_bench::crash`).
const TRACE_OPS: u64 = 100;
/// Steps without a new commit after which a trace is cut off.
const STALE_STEP_LIMIT: u64 = 200_000;

/// One differential stack: label, configuration, sync call.
pub struct DiffStack {
    /// Row label (`EXT4-DR`, `BFS-OD/2x2`, ...).
    pub label: &'static str,
    /// Topology group; divergences are compared within a group.
    pub group: usize,
    /// Stack configuration.
    pub cfg: StackConfig,
    /// Sync call after every write.
    pub sync: SyncMode,
}

/// The six stacks `crash::run` compares: EXT4-DR, BFS-DR and BFS-OD over
/// the barrier UFS, at 1q×1dev and at 2q×2dev.
pub fn diff_stacks() -> Vec<DiffStack> {
    let ufs = DeviceProfile::ufs;
    let mq = Topology::new(2, 2, 16);
    let base = [
        ("EXT4-DR", StackConfig::ext4_dr(ufs()), SyncMode::Fsync),
        ("BFS-DR", StackConfig::bfs(ufs()), SyncMode::Fsync),
        (
            "BFS-OD",
            StackConfig::bfs(ufs()).ordering_only(),
            SyncMode::Fbarrier,
        ),
    ];
    let mq_labels = ["EXT4-DR/2x2", "BFS-DR/2x2", "BFS-OD/2x2"];
    let mut out = Vec::new();
    for (label, cfg, sync) in base.iter().cloned() {
        out.push(DiffStack {
            label,
            group: 0,
            cfg: cfg.with_history(),
            sync,
        });
    }
    for ((_, cfg, sync), label) in base.into_iter().zip(mq_labels) {
        out.push(DiffStack {
            label,
            group: 1,
            cfg: cfg.with_history().with_topology(mq),
            sync,
        });
    }
    out
}

/// Result of one (stack, seed) trace.
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// Capture-point outcomes in commit order.
    pub points: Vec<PointOutcome>,
    /// The trace stack's own report (simulated Tx/s and sync latency).
    pub report: StackReport,
    /// Host ns spent building the stack.
    pub setup_ns: u64,
}

impl TraceRun {
    /// Distinct crash images built and recovery-checked.
    pub fn images(&self) -> u64 {
        self.points
            .iter()
            .map(|p| p.images + p.sampled_images)
            .sum()
    }

    /// Filesystem plus epoch-order violations over every image.
    pub fn violations(&self) -> u64 {
        self.points
            .iter()
            .map(|p| p.fs_violations + p.epoch_violations)
            .sum()
    }
}

/// A trace's configuration: the stack's, seeded, with a 1 µs journal tick.
fn trace_config(s: &DiffStack, seed: u64) -> StackConfig {
    let mut cfg = s.cfg.clone();
    cfg.seed = seed;
    cfg.fs.timer_tick = SimDuration::from_micros(1);
    cfg
}

/// The simulation a trace drives, as a cell: same stack, seed and ops,
/// run to completion without crash capture, each write + sync marked as
/// one transaction. The traced `crash_enum` run times its layers with it.
pub fn trace_cell(s: &DiffStack, seed: u64) -> Cell {
    let sync = s.sync;
    Cell {
        name: format!("trace/{} seed {seed}", s.label),
        cfg: trace_config(s, seed),
        planned_txns: TRACE_OPS,
        within_capacity: true,
        populate: Box::new(move |d: &mut dyn Driver| {
            let f = d.create_global_file();
            d.add_thread(Box::new(TxnPerSync::new(RandWrite::new(
                FileRef::Global(f),
                64,
                WriteMode::SyncEach(sync),
                TRACE_OPS,
            ))));
        }),
    }
}

/// The per-point sampling seed `crash::enumerate_trace` uses.
fn sample_seed(trace_seed: u64, commit_idx: usize) -> u64 {
    trace_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(commit_idx as u64)
}

/// Runs one trace: one thread of write+sync pairs over a 64-block region,
/// captured at every journal commit, each capture enumerated at once.
/// With a tracer, stepping, capture and enumeration are timed apart.
pub fn run_trace(s: &DiffStack, seed: u64, mut tr: Option<&mut Tracer>) -> TraceRun {
    let t0 = std::time::Instant::now();
    let setup = tr.as_ref().map(|t| t.begin());
    let mut stack = IoStack::new(trace_config(s, seed));
    let f = stack.create_global_file();
    stack.add_thread(Box::new(RandWrite::new(
        FileRef::Global(f),
        64,
        WriteMode::SyncEach(s.sync),
        TRACE_OPS,
    )));
    stack.enable_capture_tracking();
    let setup_ns = t0.elapsed().as_nanos() as u64;
    if let (Some(t), Some(m)) = (tr.as_deref_mut(), setup) {
        t.end(Site::Setup, m, None);
    }

    let mut cursor = CaptureCursor::new();
    let mut points = Vec::new();
    let mut commits = 0usize;
    let mut stale = 0u64;
    let mut drive = tr.as_ref().map(|t| t.begin());
    while stack.step() {
        let n = stack.fs().records().len();
        if n > commits {
            commits = n;
            stale = 0;
            let point = match tr.as_deref_mut() {
                Some(t) => {
                    if let Some(m) = drive {
                        t.end(Site::Drive, m, None);
                    }
                    let m = t.begin();
                    let p = cursor.capture(&mut stack);
                    t.end(Site::Capture, m, None);
                    p
                }
                None => cursor.capture(&mut stack),
            };
            let outcome = match tr.as_deref_mut() {
                Some(t) => {
                    let m = t.begin();
                    let o = enumerate_point(&point, sample_seed(seed, point.commit_idx));
                    t.end(Site::Enumerate, m, None);
                    drive = Some(t.begin());
                    o
                }
                None => enumerate_point(&point, sample_seed(seed, point.commit_idx)),
            };
            points.push(outcome);
        } else {
            stale += 1;
            if stale > STALE_STEP_LIMIT {
                break;
            }
            if stack.workloads_finished() && stack.fs().journal_quiescent() {
                break;
            }
        }
    }
    if let (Some(t), Some(m)) = (tr, drive) {
        t.end(Site::Drive, m, None);
    }
    TraceRun {
        points,
        report: stack.report(),
        setup_ns,
    }
}

/// Cross-stack divergences: aligned (group, seed, commit) points where
/// some stacks of a topology group violate and others stay clean. Each
/// violating stack at such a point counts once. `runs[i][k]` is stack
/// `i`'s trace for the `k`-th seed.
pub fn divergences(stacks: &[DiffStack], runs: &[Vec<TraceRun>]) -> u64 {
    let verdicts = |r: &TraceRun| -> BTreeMap<usize, bool> {
        r.points
            .iter()
            .map(|p| (p.commit_idx, p.worst.is_some()))
            .collect()
    };
    let groups: BTreeSet<usize> = stacks.iter().map(|s| s.group).collect();
    let mut found = 0u64;
    for g in groups {
        let members: Vec<&Vec<TraceRun>> = stacks
            .iter()
            .zip(runs)
            .filter(|(s, _)| s.group == g)
            .map(|(_, r)| r)
            .collect();
        let seeds = members.first().map_or(0, |r| r.len());
        for k in 0..seeds {
            let per_stack: Vec<BTreeMap<usize, bool>> =
                members.iter().map(|r| verdicts(&r[k])).collect();
            for commit in per_stack[0].keys() {
                let aligned: Option<Vec<bool>> =
                    per_stack.iter().map(|m| m.get(commit).copied()).collect();
                let Some(v) = aligned else { continue };
                if v.iter().any(|&x| x) && v.iter().any(|&x| !x) {
                    found += v.iter().filter(|&&x| x).count() as u64;
                }
            }
        }
    }
    found
}
