//! Runs one workload for a time budget and turns what it saw into the
//! end-to-end metrics (untraced) or the per-layer metrics (traced).
//!
//! A run is a warm-up round followed by measured rounds until the budget
//! is spent. A round runs every cell (or every crash trace) once, on
//! fresh stacks, with the same inputs; a wall-clock metric is the median
//! over rounds. Every round must reproduce the warm-up round's results
//! exactly, and in a traced run every traced cell must reproduce the
//! untraced one.

use std::cell::{Cell as StdCell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use barrier_io::{IoStack, Op, SimDuration, StackReport, Workload};
use bio_sim::SimRng;

use crate::alloc;
use crate::cells::{cells, device_capacity, Cell, Driver, WorkloadKind, CAP, WARMUP};
use crate::crashenum::{diff_stacks, divergences, run_trace, trace_cell, DiffStack, TraceRun};
use crate::refclock::RefKernel;
use crate::traced::{TraceCounters, TracedStack};
use crate::tracer::{ratio, LayerCosts, Site, Tracer};

/// Reference-kernel runs on each side of an application cell (a crash
/// trace, ten times shorter, gets one).
const KERNEL_RUNS_PER_SIDE: usize = 3;

/// Crash traces per differential stack in one round.
pub const CRASH_TRACES: u64 = 12;

/// One metric as printed: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The result line of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted (transactions, or crash images).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Printed metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Chrome trace JSON of the traced run.
    pub spans: Option<String>,
}

impl Outcome {
    /// The one-line JSON result object.
    pub fn json(&self) -> String {
        result_json(
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.iter().map(|x| (x.name.to_string(), x)),
        )
    }
}

/// A JSON result object: `correct`, `attempted`, `failed` and the
/// metrics under the given keys, each as `{"value", "unit"}`.
pub fn result_json<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, &'a Metric)>,
) -> String {
    let metrics: Vec<String> = metrics
        .map(|(key, x)| {
            format!(
                "\"{key}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

// ---------------------------------------------------------------------
// One cell.
// ---------------------------------------------------------------------

/// Everything one run of one cell produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Cell name.
    pub name: String,
    /// Planned transactions.
    pub planned: u64,
    /// Transactions completed, warm-up included.
    pub txns_done: u64,
    /// Transactions completed during the warm-up.
    pub warmup_txns: u64,
    /// The measured window's report (none when even that panicked).
    pub report: Option<StackReport>,
    /// Panic message and location, when the cell panicked.
    pub panic: Option<String>,
    /// Every thread finished within the cap.
    pub finished: bool,
    /// Host ns to build, populate and warm up the stack.
    pub setup_ns: u64,
    /// Heap allocations while building, populating and warming up.
    pub setup_allocs: u64,
    /// Host ns of the measured window.
    pub measured_ns: u64,
    /// Heap allocations in the measured window.
    pub measured_allocs: u64,
    /// Traced-driver counters (traced runs only).
    pub counters: Option<TraceCounters>,
}

impl CellRun {
    /// What must repeat exactly between runs of the same cell.
    pub fn fingerprint(&self) -> String {
        format!(
            "{:?}|{:?}|{}|{}",
            self.report, self.panic, self.txns_done, self.finished
        )
    }

    /// Why the cell failed (empty when it passed).
    pub fn failures(&self, within_capacity: bool, capacity: u64) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(p) = &self.panic {
            out.push(format!(
                "panicked after {} of {} transactions: {p}",
                self.txns_done, self.planned
            ));
        }
        if self.panic.is_none() {
            if !self.finished {
                out.push("threads did not finish within the simulated cap".into());
            }
            if self.txns_done != self.planned {
                out.push(format!(
                    "completed {} of {} transactions",
                    self.txns_done, self.planned
                ));
            }
        }
        if let Some(r) = &self.report {
            for (name, v) in [
                (
                    "FsStats.dropped_journal_events",
                    r.fs.dropped_journal_events,
                ),
                ("FsStats.dropped_data_pages", r.fs.dropped_data_pages),
                ("BlockStats.dropped_events", r.block.dropped_events),
            ] {
                if v > 0 {
                    out.push(format!("{name} = {v}"));
                }
            }
            if within_capacity {
                for (i, d) in r.per_device.iter().enumerate() {
                    if d.blocks_written > capacity {
                        out.push(format!(
                            "device {i} wrote {} blocks, more than one capacity ({capacity})",
                            d.blocks_written
                        ));
                    }
                }
            }
        }
        if let Some(c) = &self.counters {
            if c.forged_completions > 0 {
                out.push(format!(
                    "{} ReqDone events without a block completion",
                    c.forged_completions
                ));
            }
            if c.dropped_wakeups > 0 {
                out.push(format!("Metrics.dropped_wakeups = {}", c.dropped_wakeups));
            }
        }
        out
    }

    /// Operations counted as failed, given the cell's failures.
    pub fn failed_ops(&self, failures: &[String]) -> u64 {
        if failures.is_empty() {
            0
        } else if self.panic.is_some() || !self.finished {
            self.planned.saturating_sub(self.txns_done)
        } else {
            self.planned
        }
    }
}

/// Counts the transactions a thread issues (each `TxnMark` is one).
struct CountTxns {
    inner: Box<dyn Workload>,
    done: Rc<StdCell<u64>>,
}

impl Workload for CountTxns {
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
        let op = self.inner.next_op(rng);
        if op == Some(Op::TxnMark) {
            self.done.set(self.done.get() + 1);
        }
        op
    }
}

/// Wraps every thread a cell adds in [`CountTxns`].
struct Counting<'a> {
    d: &'a mut dyn Driver,
    done: Rc<StdCell<u64>>,
}

impl Driver for Counting<'_> {
    fn create_global_file(&mut self) -> usize {
        self.d.create_global_file()
    }
    fn add_thread(&mut self, w: Box<dyn Workload>) {
        self.d.add_thread(Box::new(CountTxns {
            inner: w,
            done: self.done.clone(),
        }));
    }
    fn run_for(&mut self, d: SimDuration) {
        self.d.run_for(d);
    }
    fn start_measuring(&mut self) {
        self.d.start_measuring();
    }
    fn run_until_done(&mut self, cap: SimDuration) -> bool {
        self.d.run_until_done(cap)
    }
    fn report(&self) -> StackReport {
        self.d.report()
    }
}

thread_local! {
    static PANIC_AT: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Replaces the default panic printer: a cell's panic is a result, kept
/// with its location and reported in the run's output.
pub fn install_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let at = info
            .location()
            .map(|l| format!("{}:{}", l.file(), l.line()))
            .unwrap_or_default();
        PANIC_AT.with(|p| *p.borrow_mut() = Some(at));
    }));
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    match PANIC_AT.with(|p| p.borrow_mut().take()) {
        Some(at) if !at.is_empty() => format!("{msg} (at {at})"),
        _ => msg,
    }
}

/// Populates, warms up and measures one cell on `d`; `t0`/`a0` are the
/// host clock and allocation count from before the stack was built.
fn drive_cell(
    cell: &Cell,
    d: &mut dyn Driver,
    done: &Rc<StdCell<u64>>,
    run: &mut CellRun,
    (t0, a0): (Instant, u64),
) {
    (cell.populate)(&mut Counting {
        d: &mut *d,
        done: done.clone(),
    });
    d.run_for(WARMUP);
    run.setup_ns = t0.elapsed().as_nanos() as u64;
    run.setup_allocs = alloc::allocs() - a0;
    run.warmup_txns = done.get();
    let (t1, a1) = (Instant::now(), alloc::allocs());
    d.start_measuring();
    // A panic in the measured window is a result: keep the time and the
    // transactions up to it, and the report of the stack as it stood.
    let result = catch_unwind(AssertUnwindSafe(|| d.run_until_done(CAP)));
    run.measured_ns = t1.elapsed().as_nanos() as u64;
    run.measured_allocs = alloc::allocs() - a1;
    match result {
        Ok(finished) => run.finished = finished,
        Err(payload) => run.panic = Some(panic_message(payload.as_ref())),
    }
    run.report = catch_unwind(AssertUnwindSafe(|| d.report())).ok();
}

/// Runs one cell on an `IoStack`, or on the traced driver when `tr` is
/// given. A panic is caught and recorded; the run still returns.
pub fn run_cell(cell: &Cell, tr: Option<&mut Tracer>) -> CellRun {
    run_cell_with(cell, tr, |_| {})
}

/// [`run_cell`] with a hook that runs on the traced stack after the
/// measured window, before its counters are read (tests use it to inject
/// forged events).
pub fn run_cell_with(
    cell: &Cell,
    tr: Option<&mut Tracer>,
    after: impl FnOnce(&mut TracedStack<'_>),
) -> CellRun {
    let done = Rc::new(StdCell::new(0));
    let mut run = CellRun {
        name: cell.name.clone(),
        planned: cell.planned_txns,
        txns_done: 0,
        warmup_txns: 0,
        report: None,
        panic: None,
        finished: false,
        setup_ns: 0,
        setup_allocs: 0,
        measured_ns: 0,
        measured_allocs: 0,
        counters: None,
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        let start = (Instant::now(), alloc::allocs());
        match tr {
            None => {
                let mut s = IoStack::new(cell.cfg.clone());
                drive_cell(cell, &mut s, &done, &mut run, start);
            }
            Some(tr) => {
                let mut s = TracedStack::new(cell.cfg.clone(), &mut *tr);
                drive_cell(cell, &mut s, &done, &mut run, start);
                after(&mut s);
                run.counters = Some(s.counters());
                drop(s);
                tr.record(Site::Setup, run.setup_ns, run.setup_allocs);
            }
        }
    }));
    if let Err(payload) = result {
        run.panic = Some(panic_message(payload.as_ref()));
    }
    run.txns_done = done.get();
    run
}

// ---------------------------------------------------------------------
// Rounds and metrics.
// ---------------------------------------------------------------------

/// Run parameters.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload to run.
    pub workload: WorkloadKind,
    /// Workload seed.
    pub seed: u64,
    /// Measured host seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Median of a non-empty list (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() || v.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Per-round host totals.
#[derive(Debug, Clone, Copy, Default)]
struct Round {
    ops: u64,
    /// Wall ns of the measured windows.
    measured_ns: u64,
    /// Wall ns of set-up.
    setup_ns: u64,
    /// `measured_ns` and `setup_ns` scaled to the reference speed.
    ref_measured_ns: f64,
    ref_setup_ns: f64,
    allocs: u64,
    /// Setup plus measured host ns (trace-overhead comparison).
    wall_ns: u64,
}

/// Failure bookkeeping shared by every round of a run.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ledger {
    /// A failed check outside the workload's own ops: one failed op.
    fn fail_check(&mut self, msg: String) {
        self.failed += 1;
        self.fail(msg);
    }

    fn fail(&mut self, msg: String) {
        if self.failures.len() < 20 && !self.failures.contains(&msg) {
            self.failures.push(msg);
        }
    }
}

/// One workload's simulated results, the same in every round.
struct SimSummary {
    /// (name, txns/sim-s, sync p50 us, sync p99 us, sync samples)
    rows: Vec<(String, f64, f64, f64, u64)>,
}

impl SimSummary {
    fn from_reports<'a>(
        reports: impl Iterator<Item = (String, &'a StackReport, f64)>,
    ) -> SimSummary {
        let rows = reports
            .map(|(name, r, tps)| {
                let s = &r.run.sync_latency;
                (
                    name,
                    tps,
                    s.p50.as_nanos() as f64 / 1000.0,
                    s.p99.as_nanos() as f64 / 1000.0,
                    s.count,
                )
            })
            .collect();
        SimSummary { rows }
    }

    fn metrics(&self, lines: &mut Vec<String>) -> [Metric; 3] {
        let tps: Vec<f64> = self.rows.iter().map(|r| r.1).collect();
        let worst = |col: fn(&(String, f64, f64, f64, u64)) -> f64| {
            self.rows
                .iter()
                .max_by(|a, b| col(a).total_cmp(&col(b)))
                .cloned()
        };
        let (mut p50, mut p99) = (0.0, 0.0);
        if let Some(r) = worst(|r| r.2) {
            lines.push(format!(
                "worst sync p50: {} us in {} ({} samples)",
                r.2, r.0, r.4
            ));
            p50 = r.2;
        }
        if let Some(r) = worst(|r| r.3) {
            lines.push(format!(
                "worst sync p99: {} us in {} ({} samples)",
                r.3, r.0, r.4
            ));
            p99 = r.3;
        }
        [
            m("sim_txns_per_s", geomean(&tps), "txn/sim-s"),
            m("sim_sync_p50_us", p50, "sim-us"),
            m("sim_sync_p99_us", p99, "sim-us"),
        ]
    }
}

/// Runs one workload per `opts` and returns its result.
pub fn run(opts: &Options) -> Outcome {
    alloc::reset_peak();
    match opts.workload {
        WorkloadKind::CrashEnum => run_crash(opts),
        kind => run_app(kind, opts),
    }
}

fn run_app(kind: WorkloadKind, opts: &Options) -> Outcome {
    let cells = cells(kind, opts.seed, 1.0);
    let mut lines = vec![format!(
        "perfbench workload={} seed={} seconds={} trace={} cells={}",
        kind.name(),
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        cells.len()
    )];
    let mut ledger = Ledger::default();
    let check = |ledger: &mut Ledger, cell: &Cell, run: &CellRun, reference: Option<&CellRun>| {
        let mut f = run.failures(cell.within_capacity, device_capacity(&cell.cfg));
        if let Some(r) = reference {
            if r.fingerprint() != run.fingerprint() {
                f.push("result differs from the reference run of the same cell".into());
            }
        }
        ledger.attempted += run.planned;
        ledger.failed += run.failed_ops(&f);
        for msg in f {
            ledger.fail(format!("{}: {msg}", cell.name));
        }
    };

    // Warm-up round: the reference every later round must reproduce.
    let reference: Vec<CellRun> = cells.iter().map(|c| run_cell(c, None)).collect();
    for (c, r) in cells.iter().zip(&reference) {
        check(&mut ledger, c, r, None);
    }

    let mut tracer = Tracer::new(opts.trace);
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut cell_costs = vec![LayerCosts::default(); cells.len()];
    let mut cell_counters = vec![TraceCounters::default(); cells.len()];
    // The crash layer is measured on every workload: a traced application
    // run also enumerates one crash trace per round.
    let probe_stack = &diff_stacks()[0];
    let probe_ref = opts
        .trace
        .then(|| trace_fingerprint(&run_trace(probe_stack, opts.seed, None)));
    let mut probe_costs = LayerCosts::default();
    let mut probe_totals = CrashTotals::default();
    let (mut kernel, kernel_bytes) = RefKernel::new_measured();
    let start = Instant::now();
    loop {
        if opts.trace {
            let mut round = Round::default();
            for (i, c) in cells.iter().enumerate() {
                let run = run_cell(c, Some(&mut tracer));
                check(&mut ledger, c, &run, Some(&reference[i]));
                cell_costs[i].merge(&tracer.take_costs());
                if traced.is_empty() {
                    cell_counters[i] = run.counters.unwrap_or_default();
                }
                round.wall_ns += run.setup_ns + run.measured_ns;
            }
            let probe = run_trace(probe_stack, opts.seed, Some(&mut tracer));
            if probe.violations() > 0 || Some(trace_fingerprint(&probe)) != probe_ref {
                ledger.fail_check(format!(
                    "crash probe {} seed {}: violations or a result that differs from its reference",
                    probe_stack.label, opts.seed
                ));
            }
            probe_costs.merge_where(&tracer.take_costs(), |s| {
                matches!(s, Site::Drive | Site::Capture | Site::Enumerate)
            });
            probe_totals.add(&probe);
            tracer.stop_keeping_spans();
            traced.push(round);
        }
        let mut round = Round::default();
        let mut before = kernel.runs(KERNEL_RUNS_PER_SIDE);
        for (c, r) in cells.iter().zip(&reference) {
            let run = run_cell(c, None);
            // Kernel runs bracket each cell; the cell is scaled by their
            // median.
            let after = kernel.runs(KERNEL_RUNS_PER_SIDE);
            let kernel_ns = RefKernel::median(&[before, after.clone()].concat());
            before = after;
            check(&mut ledger, c, &run, Some(r));
            round.ops += run.txns_done - run.warmup_txns;
            round.measured_ns += run.measured_ns;
            round.setup_ns += run.setup_ns;
            round.ref_measured_ns += RefKernel::scale(run.measured_ns, kernel_ns);
            round.ref_setup_ns += RefKernel::scale(run.setup_ns, kernel_ns);
            round.allocs += run.measured_allocs;
            round.wall_ns += run.setup_ns + run.measured_ns;
        }
        untraced.push(round);
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    for r in &reference {
        let rep = r.report.as_ref();
        lines.push(format!(
            "cell {}: txns={} sim_txns_per_s={} sync_p50_us={} sync_p99_us={} sync_samples={} mean_qd={} blocks_written={} gc_runs={} setup_ms={} host_ms={}{}",
            r.name,
            r.txns_done,
            rep.map_or(0.0, |x| x.run.txns_per_sec()),
            rep.map_or(0.0, |x| x.run.sync_latency.p50.as_nanos() as f64 / 1000.0),
            rep.map_or(0.0, |x| x.run.sync_latency.p99.as_nanos() as f64 / 1000.0),
            rep.map_or(0, |x| x.run.sync_latency.count),
            rep.map_or(0.0, |x| x.mean_qd),
            rep.map_or(0, |x| x.device.blocks_written),
            rep.map_or(0, |x| x.ftl.gc_runs),
            r.setup_ns as f64 / 1e6,
            r.measured_ns as f64 / 1e6,
            r.panic.as_ref().map_or(String::new(), |p| format!(" PANIC: {p}")),
        ));
    }
    let sim = SimSummary::from_reports(reference.iter().filter_map(|r| {
        r.report
            .as_ref()
            .map(|x| (r.name.clone(), x, x.run.txns_per_sec()))
    }));
    let metrics = if opts.trace {
        let reports: Vec<Option<&StackReport>> =
            reference.iter().map(|r| r.report.as_ref()).collect();
        for (i, c) in cells.iter().enumerate() {
            let per = layer_metrics(
                &cell_costs[i],
                &[reports[i]],
                &[cell_counters[i]],
                CrashTotals::default(),
                overhead_pct(&traced, &untraced),
            );
            lines.push(format_layer_line(&c.name, &per));
        }
        let mut total = probe_costs;
        for c in &cell_costs {
            total.merge(c);
        }
        layer_metrics(
            &total,
            &reports,
            &cell_counters,
            probe_totals,
            overhead_pct(&traced, &untraced),
        )
    } else {
        e2e_metrics(
            &untraced,
            "txns_per_s",
            "allocs_per_txn",
            &sim,
            kernel_bytes,
            &mut lines,
        )
    };
    let tracer = opts.trace.then_some(&tracer);
    finish(lines, ledger, metrics, tracer, untraced.len(), traced.len())
}

fn overhead_pct(traced: &[Round], untraced: &[Round]) -> f64 {
    let t = median(&traced.iter().map(|r| r.wall_ns as f64).collect::<Vec<_>>());
    let u = median(
        &untraced
            .iter()
            .map(|r| r.wall_ns as f64)
            .collect::<Vec<_>>(),
    );
    if u > 0.0 {
        (t / u - 1.0) * 100.0
    } else {
        0.0
    }
}

fn e2e_metrics(
    rounds: &[Round],
    ops_name: &str,
    allocs_name: &str,
    sim: &SimSummary,
    kernel_bytes: usize,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let col = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let ops_per_s = col(|r| r.ops as f64 / r.ref_measured_ns * 1e9);
    let wall_ops_per_s = col(|r| ratio(r.ops, r.measured_ns) * 1e9);
    let allocs_per_op = col(|r| ratio(r.allocs, r.ops));
    let setup_s = col(|r| r.ref_setup_ns / 1e9);
    let wall_setup_s = col(|r| r.setup_ns as f64 / 1e9);
    lines.push(format!(
        "{ops_name} = {ops_per_s} at reference speed, {wall_ops_per_s} by wall clock (medians of {} rounds)",
        rounds.len()
    ));
    lines.push(format!(
        "setup_s = {setup_s} at reference speed, {wall_setup_s} by wall clock"
    ));
    let per_round: Vec<String> = rounds
        .iter()
        .map(|r| {
            format!(
                "{:.0}/{:.3}",
                ratio(r.ops, r.measured_ns) * 1e9,
                r.measured_ns as f64 / r.ref_measured_ns
            )
        })
        .collect();
    lines.push(format!(
        "per round (wall ops/s / wall-to-reference ratio): {}",
        per_round.join(" ")
    ));
    lines.push(format!("{allocs_name} = {allocs_per_op}"));
    let peak_mb = alloc::peak_bytes().saturating_sub(kernel_bytes) as f64 / (1024.0 * 1024.0);
    let [sim_tps, p50, p99] = sim.metrics(lines);
    vec![
        m("ops_per_ref_s", ops_per_s, "op/s"),
        m("setup_s", setup_s, "s"),
        m("peak_heap_mb", peak_mb, "MiB"),
        m("allocs_per_op", allocs_per_op, "count"),
        sim_tps,
        p50,
        p99,
    ]
}

fn finish(
    mut lines: Vec<String>,
    ledger: Ledger,
    metrics: Vec<Metric>,
    tracer: Option<&Tracer>,
    rounds: usize,
    traced_rounds: usize,
) -> Outcome {
    let spans = tracer.map(|t| {
        lines.push(format!("spans kept for the span file: {}", t.span_count()));
        t.chrome_json()
    });
    lines.push(format!(
        "rounds: {rounds} untraced, {traced_rounds} traced; attempted={} failed={} error_rate={}",
        ledger.attempted,
        ledger.failed,
        ratio(ledger.failed, ledger.attempted)
    ));
    for f in &ledger.failures {
        lines.push(format!("FAILED {f}"));
    }
    for x in &metrics {
        lines.push(format!("metric {} = {} {}", x.name, x.value, x.unit));
    }
    Outcome {
        correct: ledger.failed == 0 && ledger.failures.is_empty(),
        attempted: ledger.attempted.max(1),
        failed: ledger.failed,
        metrics,
        lines,
        spans,
    }
}

fn format_layer_line(name: &str, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| format!("{}={}", x.name, x.value))
        .collect();
    format!("layers {name}: {}", body.join(" "))
}

/// Names and units of the end-to-end metrics, in output order.
pub fn e2e_metric_units() -> Vec<(&'static str, &'static str)> {
    let sim = SimSummary { rows: Vec::new() };
    e2e_metrics(&[], "", "", &sim, 0, &mut Vec::new())
        .into_iter()
        .map(|x| (x.name, x.unit))
        .collect()
}

/// Names and units of the per-layer metrics, in output order.
pub fn layer_metric_units() -> Vec<(&'static str, &'static str)> {
    layer_metrics(
        &LayerCosts::default(),
        &[],
        &[],
        CrashTotals::default(),
        0.0,
    )
    .into_iter()
    .map(|x| (x.name, x.unit))
    .collect()
}

/// Crash-side totals feeding the `crash.*` per-layer metrics.
#[derive(Debug, Clone, Copy, Default)]
struct CrashTotals {
    points: u64,
    images: u64,
    duplicates: u64,
}

impl CrashTotals {
    fn add(&mut self, t: &TraceRun) {
        self.points += t.points.len() as u64;
        self.images += t.images();
        self.duplicates += t
            .points
            .iter()
            .map(|p| p.duplicates + p.sampled_duplicates)
            .sum::<u64>();
    }
}

/// Builds the full per-layer metric list from costs, reports and
/// counters; metrics of layers the workload does not touch read 0.
fn layer_metrics(
    c: &LayerCosts,
    reports: &[Option<&StackReport>],
    counters: &[TraceCounters],
    crash: CrashTotals,
    overhead: f64,
) -> Vec<Metric> {
    let s = |x: Site| *c.site(x);
    let txns: u64 = counters.iter().map(|k| k.txns).sum();
    let events: u64 = counters.iter().map(|k| k.events).sum();
    let ctx: u64 = counters.iter().map(|k| k.ctx_switches).sum();
    let reps: Vec<&StackReport> = reports.iter().flatten().copied().collect();
    let sum = |f: fn(&StackReport) -> u64| reps.iter().map(|r| f(r)).sum::<u64>();
    let (pop, push) = (s(Site::QueuePop), s(Site::QueuePush));
    let q_calls = pop.calls + push.calls;
    let ev = s(Site::Event);
    let cmds = sum(|r| r.device.write_cmds + r.device.read_cmds + r.device.flush_cmds);
    let host = sum(|r| r.ftl.host_appends);
    let gc = sum(|r| r.ftl.gc_appends);
    let mean_qd = if reps.is_empty() {
        0.0
    } else {
        reps.iter().map(|r| r.mean_qd).sum::<f64>() / reps.len() as f64
    };
    let epochs = sum(|r| r.lanes.iter().map(|l| l.epochs_released).sum());
    let setup = s(Site::Setup);
    let enumerate = s(Site::Enumerate);
    let capture = s(Site::Capture);
    vec![
        m("sim.queue.ops_per_event", ratio(q_calls, ev.calls), "count"),
        m(
            "sim.queue.ns_per_op",
            ratio(pop.ns + push.ns, q_calls),
            "ns",
        ),
        m("workloads.ns_per_op", s(Site::NextOp).ns_per_call(), "ns"),
        m(
            "workloads.allocs_per_op",
            s(Site::NextOp).allocs_per_call(),
            "count",
        ),
        m(
            "fs.syscall.ns_per_call",
            s(Site::Syscall).ns_per_call(),
            "ns",
        ),
        m(
            "fs.syscall.allocs_per_call",
            s(Site::Syscall).allocs_per_call(),
            "count",
        ),
        m("fs.commit.ns_per_call", s(Site::Commit).ns_per_call(), "ns"),
        m(
            "fs.commit.allocs_per_call",
            s(Site::Commit).allocs_per_call(),
            "count",
        ),
        m(
            "fs.req_done.ns_per_call",
            s(Site::ReqDone).ns_per_call(),
            "ns",
        ),
        m(
            "fs.commits_per_txn",
            ratio(sum(|r| r.fs.commits), txns),
            "count",
        ),
        m(
            "fs.journal_blocks_per_txn",
            ratio(sum(|r| r.fs.journal_blocks), txns),
            "count",
        ),
        m("fs.ctx_switches_per_txn", ratio(ctx, txns), "count"),
        m(
            "block.submit.ns_per_call",
            s(Site::Submit).ns_per_call(),
            "ns",
        ),
        m(
            "block.submit.allocs_per_call",
            s(Site::Submit).allocs_per_call(),
            "count",
        ),
        m(
            "block.retry_ratio",
            ratio(sum(|r| r.block.busy_retries), sum(|r| r.block.dispatched)),
            "ratio",
        ),
        m(
            "block.dispatched_per_submitted",
            ratio(sum(|r| r.block.dispatched), sum(|r| r.block.submitted)),
            "ratio",
        ),
        m("block.epochs_per_txn", ratio(epochs, txns), "count"),
        m(
            "flash.event.ns_per_call",
            s(Site::DevEvent).ns_per_call(),
            "ns",
        ),
        m(
            "flash.event.allocs_per_call",
            s(Site::DevEvent).allocs_per_call(),
            "count",
        ),
        m("flash.mean_qd", mean_qd, "count"),
        m(
            "flash.queue_full_ratio",
            ratio(sum(|r| r.device.queue_full_rejections), cmds),
            "ratio",
        ),
        m(
            "flash.write_amp",
            if host == 0 {
                0.0
            } else {
                (host + gc) as f64 / host as f64
            },
            "ratio",
        ),
        m("flash.gc_runs", sum(|r| r.ftl.gc_runs) as f64, "count"),
        m("core.events_per_txn", ratio(events, txns), "count"),
        m("core.ns_per_event", ev.ns_per_call(), "ns"),
        m(
            "core.route.self_ns_per_event",
            ratio(c.event_self_ns, ev.calls),
            "ns",
        ),
        m("core.allocs_per_event", ev.allocs_per_call(), "count"),
        m("core.setup_ns_per_cell", setup.ns_per_call(), "ns"),
        m(
            "crash.drive.ns_per_point",
            ratio(s(Site::Drive).ns, capture.calls),
            "ns",
        ),
        m("crash.capture.ns_per_call", capture.ns_per_call(), "ns"),
        m(
            "crash.capture.allocs_per_call",
            capture.allocs_per_call(),
            "count",
        ),
        m(
            "crash.enumerate.ns_per_image",
            ratio(enumerate.ns, crash.images),
            "ns",
        ),
        m(
            "crash.images_per_point",
            ratio(crash.images, crash.points),
            "count",
        ),
        m(
            "crash.dedup_ratio",
            ratio(crash.duplicates, crash.images + crash.duplicates),
            "ratio",
        ),
        m("trace_overhead_pct", overhead, "%"),
    ]
}

// ---------------------------------------------------------------------
// crash_enum.
// ---------------------------------------------------------------------

/// The trace seeds of one round: `CRASH_TRACES` consecutive seeds chosen
/// by the benchmark seed (seed 0 gives the seeds `figures` starts with).
pub fn crash_seeds(seed: u64, traces: u64) -> Vec<u64> {
    (0..traces).map(|i| seed.wrapping_mul(traces) + i).collect()
}

/// One round of crash traces.
pub struct CrashRound {
    /// `runs[i][k]`: stack `i`, seed `k`.
    pub runs: Vec<Vec<TraceRun>>,
    /// Wall ns of each trace, same indexing.
    pub walls: Vec<Vec<u64>>,
    /// Heap allocations inside the traces (kernel runs excluded).
    pub allocs: u64,
    /// Reference-kernel ns for each stack's batch of traces: the median of
    /// the runs before, between and after them.
    pub kernel_ns: Vec<u64>,
}

/// Runs every stack over every seed, with a reference-kernel run between
/// consecutive traces.
pub fn crash_round(
    stacks: &[DiffStack],
    seeds: &[u64],
    kernel: &mut RefKernel,
    mut tr: Option<&mut Tracer>,
) -> CrashRound {
    let mut round = CrashRound {
        runs: Vec::new(),
        walls: Vec::new(),
        allocs: 0,
        kernel_ns: Vec::new(),
    };
    let mut k = vec![kernel.run()];
    for s in stacks {
        let (mut r, mut w) = (Vec::new(), Vec::new());
        for &seed in seeds {
            let (t0, a0) = (Instant::now(), alloc::allocs());
            r.push(run_trace(s, seed, tr.as_deref_mut()));
            w.push(t0.elapsed().as_nanos() as u64);
            round.allocs += alloc::allocs() - a0;
            k.push(kernel.run());
        }
        round.runs.push(r);
        round.walls.push(w);
        round.kernel_ns.push(RefKernel::median(&k));
        // The batch's last sample also opens the next batch.
        k.drain(..k.len() - 1);
    }
    round
}

fn trace_fingerprint(t: &TraceRun) -> String {
    format!("{:?}|{:?}", t.points, t.report)
}

fn run_crash(opts: &Options) -> Outcome {
    let stacks = diff_stacks();
    let seeds = crash_seeds(opts.seed, CRASH_TRACES);
    let mut lines = vec![format!(
        "perfbench workload=crash_enum seed={} seconds={} trace={} stacks={} traces_per_stack={} seeds={}..={}",
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        stacks.len(),
        seeds.len(),
        seeds[0],
        seeds[seeds.len() - 1]
    )];
    let mut ledger = Ledger::default();
    let (mut kernel, kernel_bytes) = RefKernel::new_measured();
    let shadows: Vec<Cell> = if opts.trace {
        stacks
            .iter()
            .flat_map(|s| seeds.iter().map(move |&k| trace_cell(s, k)))
            .collect()
    } else {
        Vec::new()
    };
    let shadow_ref: Vec<CellRun> = shadows.iter().map(|c| run_cell(c, None)).collect();
    let mut shadow_counters = vec![TraceCounters::default(); shadows.len()];
    let mut crash_costs = LayerCosts::default();
    let mut crash_totals = CrashTotals::default();
    let reference = crash_round(&stacks, &seeds, &mut kernel, None).runs;
    let ref_prints: Vec<Vec<String>> = reference
        .iter()
        .map(|r| r.iter().map(trace_fingerprint).collect())
        .collect();
    let diverged = divergences(&stacks, &reference);
    let check = |ledger: &mut Ledger, runs: &[Vec<TraceRun>]| {
        for (i, (s, per_seed)) in stacks.iter().zip(runs).enumerate() {
            for (k, t) in per_seed.iter().enumerate() {
                let images = t.images();
                ledger.attempted += images;
                let mut bad = Vec::new();
                if t.violations() > 0 {
                    bad.push(format!("{} violations", t.violations()));
                }
                if trace_fingerprint(t) != ref_prints[i][k] {
                    bad.push("result differs from the reference run of the same trace".into());
                }
                if !bad.is_empty() {
                    ledger.failed += images;
                    ledger.fail(format!("{} seed {}: {}", s.label, seeds[k], bad.join("; ")));
                }
            }
        }
    };
    check(&mut ledger, &reference);
    if diverged > 0 {
        ledger.failed += diverged;
        ledger.fail(format!("{diverged} cross-stack divergences"));
    }

    let mut tracer = Tracer::new(opts.trace);
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let start = Instant::now();
    let round_of = |c: &CrashRound| {
        let mut r = Round {
            allocs: c.allocs,
            ..Round::default()
        };
        for ((per_seed, w), &k) in c.runs.iter().zip(&c.walls).zip(&c.kernel_ns) {
            for (t, &ns) in per_seed.iter().zip(w) {
                let measured = ns - t.setup_ns.min(ns);
                r.ops += t.images();
                r.setup_ns += t.setup_ns;
                r.measured_ns += measured;
                r.ref_setup_ns += RefKernel::scale(t.setup_ns, k);
                r.ref_measured_ns += RefKernel::scale(measured, k);
                r.wall_ns += ns;
            }
        }
        r
    };
    loop {
        if opts.trace {
            let c = crash_round(&stacks, &seeds, &mut kernel, Some(&mut tracer));
            check(&mut ledger, &c.runs);
            crash_costs.merge(&tracer.take_costs());
            for t in c.runs.iter().flatten() {
                crash_totals.add(t);
            }
            // The simulation layers are measured on the traces' own
            // simulation, rerun on the traced driver.
            for (i, (cell, r)) in shadows.iter().zip(&shadow_ref).enumerate() {
                let run = run_cell(cell, Some(&mut tracer));
                let mut f = run.failures(true, device_capacity(&cell.cfg));
                if run.fingerprint() != r.fingerprint() {
                    f.push("traced result differs from IoStack's".into());
                }
                for msg in f {
                    ledger.fail_check(format!("{}: {msg}", cell.name));
                }
                crash_costs.merge_where(&tracer.take_costs(), |s| s != Site::Setup);
                if traced.is_empty() {
                    shadow_counters[i] = run.counters.unwrap_or_default();
                }
            }
            tracer.stop_keeping_spans();
            traced.push(round_of(&c));
        }
        let c = crash_round(&stacks, &seeds, &mut kernel, None);
        check(&mut ledger, &c.runs);
        untraced.push(round_of(&c));
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    let mut round_images = 0;
    for (s, per_seed) in stacks.iter().zip(&reference) {
        let mut t = CrashTotals::default();
        for trace in per_seed {
            t.add(trace);
        }
        lines.push(format!(
            "stack {}: traces={} capture_points={} images={} dedup_skipped={} violations={}",
            s.label,
            per_seed.len(),
            t.points,
            t.images,
            t.duplicates,
            per_seed.iter().map(TraceRun::violations).sum::<u64>()
        ));
        round_images += t.images;
    }
    lines.push(format!(
        "crash images per round: {round_images}; cross-stack divergences: {diverged}"
    ));
    // Each trace's write+sync pair is its transaction: the sync calls per
    // simulated second stand in for Tx/s.
    let sim = SimSummary::from_reports(stacks.iter().zip(&reference).flat_map(|(s, per_seed)| {
        per_seed.iter().zip(&seeds).map(move |(t, seed)| {
            (
                format!("{} seed {seed}", s.label),
                &t.report,
                t.report.run.syncs_per_sec(),
            )
        })
    }));
    let metrics = if opts.trace {
        let reports: Vec<Option<&StackReport>> =
            shadow_ref.iter().map(|r| r.report.as_ref()).collect();
        layer_metrics(
            &crash_costs,
            &reports,
            &shadow_counters,
            crash_totals,
            overhead_pct(&traced, &untraced),
        )
    } else {
        e2e_metrics(
            &untraced,
            "crash_images_per_s",
            "allocs_per_image",
            &sim,
            kernel_bytes,
            &mut lines,
        )
    };
    let tracer = opts.trace.then_some(&tracer);
    finish(lines, ledger, metrics, tracer, untraced.len(), traced.len())
}
