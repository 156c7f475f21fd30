//! The benchmark's workloads and the simulated cells each one runs.
//!
//! A cell is one simulated stack: a configuration, the files and threads
//! it starts with, a warm-up and a planned number of application
//! transactions. Threads are simulated clients in a closed loop (each
//! issues its next operation only after the previous one returned); the
//! host runs every cell serially on one OS thread.

use barrier_io::{
    DeviceProfile, FileRef, IoStack, Op, SimDuration, StackConfig, StackReport, Topology, Workload,
};
use bio_sim::SimRng;
use bio_workloads::{
    Dwsl, OltpInsert, RandWrite, Sqlite, SqliteJournalMode, SyncMode, Varmail, WriteMode,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Durability-mode paper apps: every commit waits on transfer and flush.
    Durable,
    /// The ordering-only columns of the same apps: barriers never wait.
    Ordered,
    /// The differential crash enumeration, one worker.
    CrashEnum,
    /// Random overwrites until FTL garbage collection must run.
    DeviceFill,
}

impl WorkloadKind {
    /// Every workload, in report order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Durable,
        WorkloadKind::Ordered,
        WorkloadKind::CrashEnum,
        WorkloadKind::DeviceFill,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Durable => "durable",
            WorkloadKind::Ordered => "ordered",
            WorkloadKind::CrashEnum => "crash_enum",
            WorkloadKind::DeviceFill => "device_fill",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What a cell needs from the stack that runs it: the public surface of
/// [`IoStack`], implemented by the stack itself and by the traced driver.
pub trait Driver {
    /// Creates a shared file, visible as `FileRef::Global(index)`.
    fn create_global_file(&mut self) -> usize;
    /// Adds a simulated client thread.
    fn add_thread(&mut self, w: Box<dyn Workload>);
    /// Runs for a simulated duration.
    fn run_for(&mut self, d: SimDuration);
    /// Starts the measured window.
    fn start_measuring(&mut self);
    /// Runs until every thread finished or `cap` passed; true if finished.
    fn run_until_done(&mut self, cap: SimDuration) -> bool;
    /// The measured window's report.
    fn report(&self) -> StackReport;
}

impl Driver for IoStack {
    fn create_global_file(&mut self) -> usize {
        IoStack::create_global_file(self)
    }
    fn add_thread(&mut self, w: Box<dyn Workload>) {
        IoStack::add_thread(self, w);
    }
    fn run_for(&mut self, d: SimDuration) {
        IoStack::run_for(self, d);
    }
    fn start_measuring(&mut self) {
        IoStack::start_measuring(self);
    }
    fn run_until_done(&mut self, cap: SimDuration) -> bool {
        IoStack::run_until_done(self, cap)
    }
    fn report(&self) -> StackReport {
        IoStack::report(self)
    }
}

/// Creates a cell's files and threads on a fresh stack.
pub type Populate = Box<dyn Fn(&mut dyn Driver)>;

/// One simulated stack of a workload.
pub struct Cell {
    /// Report name, e.g. `sqlite-persist/EXT4-DR@plain-SSD`.
    pub name: String,
    /// Stack configuration, seeded from the benchmark seed.
    pub cfg: StackConfig,
    /// Application transactions the threads issue in total.
    pub planned_txns: u64,
    /// False where the workload is meant to exceed one device capacity.
    pub within_capacity: bool,
    /// Builds the cell's files and threads.
    pub populate: Populate,
}

/// Wraps a workload that marks no transactions so that every sync call
/// ends one (`write` + sync = one transaction).
pub struct TxnPerSync<W> {
    inner: W,
    mark_next: bool,
}

impl<W: Workload> TxnPerSync<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> TxnPerSync<W> {
        TxnPerSync {
            inner,
            mark_next: false,
        }
    }
}

impl<W: Workload> Workload for TxnPerSync<W> {
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
        if std::mem::take(&mut self.mark_next) {
            return Some(Op::TxnMark);
        }
        let op = self.inner.next_op(rng)?;
        self.mark_next = matches!(
            op,
            Op::Fsync { .. } | Op::Fdatasync { .. } | Op::Fbarrier { .. } | Op::Fdatabarrier { .. }
        );
        Some(op)
    }
}

/// Mixes the benchmark seed with a cell index into a stack seed.
fn cell_seed(seed: u64, index: usize) -> u64 {
    (seed ^ 0x5EED_BA5E_0000_0000).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index as u64
}

/// Physical pages of one device of `cfg`: one device capacity.
pub fn device_capacity(cfg: &StackConfig) -> u64 {
    (cfg.device.segments * cfg.device.pages_per_segment) as u64
}

fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale).round() as u64).max(1)
}

/// Simulated warm-up of every cell before its measured window.
pub const WARMUP: SimDuration = SimDuration::from_millis(5);
/// Simulated-time cap on a cell's measured window.
pub const CAP: SimDuration = SimDuration::from_secs(3600);

fn sqlite_cell(
    name: &str,
    cfg: StackConfig,
    mode: SqliteJournalMode,
    mk: fn(SqliteJournalMode, FileRef, FileRef, u64) -> Sqlite,
    inserts: u64,
) -> Cell {
    Cell {
        name: format!("{name}/{}", cfg.label()),
        cfg,
        planned_txns: inserts,
        within_capacity: true,
        populate: Box::new(move |d: &mut dyn Driver| {
            let db = d.create_global_file();
            let journal = d.create_global_file();
            d.add_thread(Box::new(mk(
                mode,
                FileRef::Global(db),
                FileRef::Global(journal),
                inserts,
            )));
        }),
    }
}

fn varmail_cell(cfg: StackConfig, sync: SyncMode, threads: usize, iters: u64) -> Cell {
    Cell {
        name: format!("varmail-x{threads}/{}", cfg.label()),
        cfg,
        planned_txns: threads as u64 * iters,
        within_capacity: true,
        populate: Box::new(move |d: &mut dyn Driver| {
            d.create_global_file();
            for _ in 0..threads {
                d.add_thread(Box::new(Varmail::new(sync, iters, 8)));
            }
        }),
    }
}

fn oltp_cell(cfg: StackConfig, sync: SyncMode, threads: usize, txns: u64) -> Cell {
    Cell {
        name: format!("oltp-insert-x{threads}/{}", cfg.label()),
        cfg,
        planned_txns: threads as u64 * txns,
        within_capacity: true,
        populate: Box::new(move |d: &mut dyn Driver| {
            let table = d.create_global_file();
            let redo = d.create_global_file();
            let binlog = d.create_global_file();
            for _ in 0..threads {
                d.add_thread(Box::new(OltpInsert::new(
                    sync,
                    FileRef::Global(table),
                    FileRef::Global(redo),
                    FileRef::Global(binlog),
                    txns,
                )));
            }
        }),
    }
}

fn dwsl_cell(cfg: StackConfig, sync: SyncMode, threads: usize, writes: u64) -> Cell {
    Cell {
        name: format!("dwsl-x{threads}/{}", cfg.label()),
        cfg,
        planned_txns: threads as u64 * writes,
        within_capacity: true,
        populate: Box::new(move |d: &mut dyn Driver| {
            d.create_global_file();
            for _ in 0..threads {
                d.add_thread(Box::new(Dwsl::new(sync, writes)));
            }
        }),
    }
}

fn randwrite_cell(
    name: &str,
    cfg: StackConfig,
    sync: SyncMode,
    threads: usize,
    region: u64,
    writes: u64,
) -> Cell {
    Cell {
        name: format!("{name}-x{threads}/{}", cfg.label()),
        cfg,
        planned_txns: threads as u64 * writes,
        within_capacity: true,
        populate: Box::new(move |d: &mut dyn Driver| {
            let f = d.create_global_file();
            for _ in 0..threads {
                d.add_thread(Box::new(TxnPerSync::new(RandWrite::new(
                    FileRef::Global(f),
                    region,
                    WriteMode::SyncEach(sync),
                    writes,
                ))));
            }
        }),
    }
}

/// The cells of an application workload at `scale` (1.0 = benchmark size;
/// the fidelity tests run a small fraction). Empty for `crash_enum`,
/// which runs traces, not cells.
pub fn cells(kind: WorkloadKind, seed: u64, scale: f64) -> Vec<Cell> {
    use SqliteJournalMode::{Persist, Wal};
    let ssd = DeviceProfile::plain_ssd;
    let ufs = DeviceProfile::ufs;
    let mq = Topology::new(2, 2, 8);
    let mut out = match kind {
        WorkloadKind::Durable => vec![
            sqlite_cell(
                "sqlite-persist",
                StackConfig::ext4_dr(ssd()),
                Persist,
                Sqlite::durability,
                scaled(4_000, scale),
            ),
            sqlite_cell(
                "sqlite-persist",
                StackConfig::bfs(ufs()),
                Persist,
                Sqlite::barrier_durability,
                scaled(4_000, scale),
            ),
            varmail_cell(
                StackConfig::bfs(ssd()),
                SyncMode::Fsync,
                16,
                scaled(180, scale),
            ),
            oltp_cell(
                StackConfig::ext4_dr(ssd()),
                SyncMode::Fsync,
                8,
                scaled(450, scale),
            ),
            dwsl_cell(
                StackConfig::ext4_dr(ssd()).with_topology(mq),
                SyncMode::Fsync,
                64,
                scaled(120, scale),
            ),
        ],
        WorkloadKind::Ordered => vec![
            sqlite_cell(
                "sqlite-wal",
                StackConfig::bfs(ssd()).ordering_only(),
                Wal,
                Sqlite::ordering,
                scaled(3_000, scale),
            ),
            oltp_cell(
                StackConfig::bfs(ssd()).ordering_only(),
                SyncMode::Fbarrier,
                8,
                scaled(300, scale),
            ),
            randwrite_cell(
                "randwrite-fdatabarrier",
                StackConfig::bfs(ssd()).ordering_only(),
                SyncMode::Fdatabarrier,
                4,
                16_384,
                scaled(1_500, scale),
            ),
            dwsl_cell(
                StackConfig::bfs(ssd()).ordering_only().with_topology(mq),
                SyncMode::Fbarrier,
                64,
                scaled(40, scale),
            ),
        ],
        WorkloadKind::DeviceFill => {
            // Overwrites over 40% of the device, three device capacities in
            // total: only a working garbage collector sustains this.
            let cap = device_capacity(&StackConfig::ext4_dr(ssd()));
            let region = cap * 2 / 5;
            let writes = scaled(3 * cap, scale);
            [StackConfig::ext4_dr(ssd()), StackConfig::bfs(ssd())]
                .into_iter()
                .map(|cfg| {
                    let mut c = randwrite_cell(
                        "fill-fdatasync",
                        cfg,
                        SyncMode::Fdatasync,
                        1,
                        region,
                        writes,
                    );
                    c.within_capacity = false;
                    c
                })
                .collect()
        }
        WorkloadKind::CrashEnum => Vec::new(),
    };
    for (i, c) in out.iter_mut().enumerate() {
        c.cfg.seed = cell_seed(seed, i);
    }
    out
}
