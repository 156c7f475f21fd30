//! The traced driver: `IoStack`'s event loop rebuilt from the layers'
//! public functions, with a span around every call into a layer.
//!
//! Routing follows `IoStack` exactly (one event per pop, which `IoStack`
//! documents as bit-identical to its batched loop), so a cell run here
//! must produce the same [`StackReport`] as the same cell on an
//! [`barrier_io::IoStack`]; the fidelity check compares the two. The
//! driver also audits completions: every `FsEvent::ReqDone` it delivers
//! must match a block-layer completion it routed.
//!
//! This file is a stand-in until the stack carries its own spans; it
//! reads no private state.

use std::collections::HashSet;

use barrier_io::{
    FileRef, Metrics, Op, OpKind, SimDuration, SimTime, StackConfig, StackReport, Workload,
};
use bio_block::{BlockAction, BlockConfig, BlockEvent, BlockLayer};
use bio_flash::{Device, DeviceStats, FtlStats};
use bio_fs::{FileId, Filesystem, FsAction, FsEvent, SyscallOutcome, ThreadId};
use bio_sim::{ActionSink, EventQueue, SimRng};

use crate::cells::Driver;
use crate::tracer::{Site, Tracer};

/// Events of the traced stack (mirrors `IoStack`'s private event type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Fs(FsEvent),
    Block(BlockEvent),
    ThreadNext(ThreadId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Ready,
    InSyscall,
    Congested,
    Finished,
}

struct Thread {
    workload: Box<dyn Workload>,
    slots: Vec<FileId>,
    state: ThreadState,
    rng: SimRng,
    current_kind: OpKind,
    op_started: SimTime,
}

/// Counters only the traced driver can see.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Events popped.
    pub events: u64,
    /// Application transactions (TxnMark ops) issued.
    pub txns: u64,
    /// Context switches routed.
    pub ctx_switches: u64,
    /// `ReqDone` events delivered without a matching block completion.
    pub forged_completions: u64,
    /// `Metrics::dropped_wakeups` at the end of the run.
    pub dropped_wakeups: u64,
}

/// `IoStack` rebuilt over the public layer APIs, traced.
pub struct TracedStack<'t> {
    cfg: StackConfig,
    q: EventQueue<Event>,
    fs: Filesystem,
    block: BlockLayer,
    threads: Vec<Thread>,
    metrics: Metrics,
    congested: Vec<ThreadId>,
    global_files: Vec<FileId>,
    measure_start: SimTime,
    dev_blocks_at_start: u64,
    fs_sink: ActionSink<FsAction>,
    block_sink: ActionSink<BlockAction>,
    finished_threads: usize,
    /// Block completions routed upward but not yet delivered to the fs.
    awaiting_delivery: HashSet<u64>,
    counters: TraceCounters,
    tr: &'t mut Tracer,
}

/// Times one expression as a child span of the open event.
macro_rules! timed {
    ($tr:expr, $site:expr, $req:expr, $e:expr) => {{
        let m = $tr.begin();
        let r = $e;
        $tr.end($site, m, $req);
        r
    }};
}

impl<'t> TracedStack<'t> {
    /// Builds the stack exactly as `IoStack::new` does.
    pub fn new(cfg: StackConfig, tr: &'t mut Tracer) -> TracedStack<'t> {
        let devices = (0..cfg.topology.nr_devices)
            .map(|i| {
                let seed = cfg.seed ^ 0xA076_1D64_78BD_642Fu64.wrapping_mul(i as u64);
                let mut device = Device::new(cfg.device.clone(), seed);
                device.record_history(cfg.record_history);
                device
            })
            .collect();
        let block = BlockLayer::new(
            devices,
            BlockConfig {
                scheduler: cfg.scheduler,
                dispatch: cfg.dispatch,
                topology: cfg.topology,
                routing: cfg.routing,
            },
        );
        let fs = Filesystem::new(cfg.fs.clone());
        let mut stack = TracedStack {
            q: EventQueue::new(),
            block,
            fs,
            threads: Vec::new(),
            metrics: Metrics::new(),
            congested: Vec::new(),
            global_files: Vec::new(),
            measure_start: SimTime::ZERO,
            dev_blocks_at_start: 0,
            fs_sink: ActionSink::new(),
            block_sink: ActionSink::new(),
            finished_threads: 0,
            awaiting_delivery: HashSet::new(),
            counters: TraceCounters::default(),
            tr,
            cfg,
        };
        stack.fs.start(&mut stack.fs_sink);
        stack.route_fs_actions();
        stack
    }

    /// Counters only this driver sees.
    pub fn counters(&self) -> TraceCounters {
        TraceCounters {
            dropped_wakeups: self.metrics.dropped_wakeups,
            ..self.counters
        }
    }

    /// Schedules a filesystem event now, as if a layer had emitted it
    /// (used to show that forged completions are caught).
    pub fn inject_fs_event(&mut self, ev: FsEvent) {
        self.q.push_now(Event::Fs(ev));
    }

    fn push_at(&mut self, at: SimTime, ev: Event) {
        timed!(self.tr, Site::QueuePush, None, self.q.push(at, ev));
    }

    fn push_after(&mut self, d: SimDuration, ev: Event) {
        timed!(self.tr, Site::QueuePush, None, self.q.push_after(d, ev));
    }

    fn push_now(&mut self, ev: Event) {
        timed!(self.tr, Site::QueuePush, None, self.q.push_now(ev));
    }

    fn route_fs_actions(&mut self) {
        let mut actions = self.fs_sink.take_buf();
        for a in actions.drain(..) {
            match a {
                FsAction::Submit(req) => {
                    let now = self.q.now();
                    let id = req.id.0;
                    timed!(
                        self.tr,
                        Site::Submit,
                        Some(id),
                        self.block.submit(req, now, &mut self.block_sink)
                    );
                    self.route_block_actions();
                }
                FsAction::Wake(tid) => self.complete_op(tid),
                FsAction::CtxSwitch(tid) => {
                    let kind = self.threads[tid.0 as usize].current_kind;
                    self.metrics.record_ctx_switch(kind);
                    self.counters.ctx_switches += 1;
                }
                FsAction::After(d, ev) => self.push_after(d, Event::Fs(ev)),
            }
        }
        self.fs_sink.restore(actions);
    }

    fn route_block_actions(&mut self) {
        let mut actions = std::mem::take(&mut self.block_sink);
        for a in actions.drain() {
            match a {
                BlockAction::Complete(rid, _at) => {
                    self.awaiting_delivery.insert(rid.0);
                    self.push_now(Event::Fs(FsEvent::ReqDone(rid)));
                }
                BlockAction::After(d, ev) => self.push_after(d, Event::Block(ev)),
            }
        }
        self.block_sink = actions;
        while let Some(buf) = self.block.pop_reclaimed_payload() {
            self.fs.restore_payload_buf(buf);
        }
    }

    fn complete_op(&mut self, tid: ThreadId) {
        let now = self.q.now();
        let Some(th) = self.threads.get_mut(tid.0 as usize) else {
            self.metrics.note_dropped_wakeup();
            return;
        };
        th.state = ThreadState::Ready;
        let latency = now.saturating_since(th.op_started);
        self.metrics.record_op(th.current_kind, latency);
        self.push_after(self.cfg.cpu_per_op, Event::ThreadNext(tid));
    }

    fn resolve(&self, tid: ThreadId, r: FileRef) -> FileId {
        match r {
            FileRef::Global(i) => self.global_files[i],
            FileRef::Slot(i) => self.threads[tid.0 as usize].slots[i],
        }
    }

    fn thread_issue(&mut self, tid: ThreadId, now: SimTime) {
        let idx = tid.0 as usize;
        if self.threads[idx].state == ThreadState::Finished {
            return;
        }
        if self.block.queued() >= self.cfg.congestion_limit {
            self.threads[idx].state = ThreadState::Congested;
            if !self.congested.contains(&tid) {
                self.congested.push(tid);
            }
            return;
        }
        let op = {
            let th = &mut self.threads[idx];
            th.state = ThreadState::Ready;
            timed!(
                self.tr,
                Site::NextOp,
                None,
                th.workload.next_op(&mut th.rng)
            )
        };
        let Some(op) = op else {
            self.threads[idx].state = ThreadState::Finished;
            self.finished_threads += 1;
            return;
        };
        let kind = op.kind();
        {
            let th = &mut self.threads[idx];
            th.current_kind = kind;
            th.op_started = now;
        }
        let outcome = match op {
            Op::Think { dur } => {
                self.metrics.record_op(OpKind::Think, dur);
                self.push_after(dur, Event::ThreadNext(tid));
                return;
            }
            Op::TxnMark => {
                self.metrics.record_op(OpKind::TxnMark, SimDuration::ZERO);
                self.counters.txns += 1;
                self.push_now(Event::ThreadNext(tid));
                return;
            }
            Op::Create { slot } => {
                let fid = timed!(
                    self.tr,
                    Site::Syscall,
                    None,
                    self.fs.create(tid, &mut self.fs_sink)
                );
                let th = &mut self.threads[idx];
                if th.slots.len() <= slot {
                    th.slots.resize(slot + 1, fid);
                }
                th.slots[slot] = fid;
                SyscallOutcome::Done
            }
            Op::Unlink { file } => {
                let f = self.resolve(tid, file);
                timed!(
                    self.tr,
                    Site::Syscall,
                    None,
                    self.fs.unlink(tid, f, &mut self.fs_sink)
                );
                SyscallOutcome::Done
            }
            Op::Write {
                file,
                offset,
                blocks,
            } => {
                let f = self.resolve(tid, file);
                timed!(
                    self.tr,
                    Site::Syscall,
                    None,
                    self.fs
                        .write(tid, f, offset, blocks, now, &mut self.fs_sink)
                )
            }
            Op::Read {
                file,
                offset,
                blocks,
            } => {
                let f = self.resolve(tid, file);
                timed!(
                    self.tr,
                    Site::Syscall,
                    None,
                    self.fs.read(tid, f, offset, blocks, &mut self.fs_sink)
                )
            }
            Op::Fsync { file } => {
                let f = self.resolve(tid, file);
                timed!(
                    self.tr,
                    Site::Syscall,
                    None,
                    self.fs.fsync(tid, f, now, &mut self.fs_sink)
                )
            }
            Op::Fdatasync { file } => {
                let f = self.resolve(tid, file);
                timed!(
                    self.tr,
                    Site::Syscall,
                    None,
                    self.fs.fdatasync(tid, f, now, &mut self.fs_sink)
                )
            }
            Op::Fbarrier { file } => {
                let f = self.resolve(tid, file);
                timed!(
                    self.tr,
                    Site::Syscall,
                    None,
                    self.fs.fbarrier(tid, f, now, &mut self.fs_sink)
                )
            }
            Op::Fdatabarrier { file } => {
                let f = self.resolve(tid, file);
                timed!(
                    self.tr,
                    Site::Syscall,
                    None,
                    self.fs.fdatabarrier(tid, f, now, &mut self.fs_sink)
                )
            }
        };
        self.route_fs_actions();
        match outcome {
            SyscallOutcome::Done => {
                self.metrics.record_op(kind, SimDuration::ZERO);
                self.push_after(self.cfg.cpu_per_op, Event::ThreadNext(tid));
            }
            SyscallOutcome::Blocked => {
                self.threads[idx].state = ThreadState::InSyscall;
            }
        }
    }

    fn maybe_uncongest(&mut self) {
        if self.congested.is_empty() || self.block.queued() >= self.cfg.congestion_limit / 2 {
            return;
        }
        let woken = std::mem::take(&mut self.congested);
        for tid in woken {
            if self.threads[tid.0 as usize].state == ThreadState::Congested {
                self.threads[tid.0 as usize].state = ThreadState::Ready;
                self.push_now(Event::ThreadNext(tid));
            }
        }
    }

    fn dispatch_event(&mut self, ev: Event, now: SimTime) {
        match ev {
            Event::Fs(fe) => {
                let (site, req) = match fe {
                    FsEvent::ReqDone(rid) => {
                        if !self.awaiting_delivery.remove(&rid.0) {
                            self.counters.forged_completions += 1;
                        }
                        (Site::ReqDone, Some(rid.0))
                    }
                    FsEvent::CommitRun => (Site::Commit, None),
                    FsEvent::Step(_) => (Site::FsStep, None),
                    FsEvent::Pdflush => (Site::Pdflush, None),
                    FsEvent::OptfsFlush => (Site::FsOther, None),
                };
                timed!(
                    self.tr,
                    site,
                    req,
                    self.fs.handle(fe, now, &mut self.fs_sink)
                );
                self.route_fs_actions();
            }
            Event::Block(be) => {
                let site = match be {
                    BlockEvent::Dev { .. } => Site::DevEvent,
                    BlockEvent::Retry { .. } => Site::Retry,
                };
                timed!(
                    self.tr,
                    site,
                    None,
                    self.block.handle(be, now, &mut self.block_sink)
                );
                self.route_block_actions();
            }
            Event::ThreadNext(tid) => self.thread_issue(tid, now),
        }
    }

    /// The single-pop run loop `IoStack` documents its batched loop as
    /// equivalent to.
    fn drive(&mut self, deadline: SimTime, until_done: bool) -> bool {
        loop {
            if until_done && self.finished_threads == self.threads.len() {
                return true;
            }
            let root = self.tr.begin_event();
            let popped = timed!(
                self.tr,
                Site::QueuePop,
                None,
                self.q.pop_at_or_before(deadline)
            );
            let Some((now, ev)) = popped else {
                self.tr.abandon_event();
                return false;
            };
            self.counters.events += 1;
            self.dispatch_event(ev, now);
            self.maybe_uncongest();
            self.tr.end_event(root);
        }
    }
}

impl Driver for TracedStack<'_> {
    fn create_global_file(&mut self) -> usize {
        let fid = timed!(
            self.tr,
            Site::Syscall,
            None,
            self.fs.create(ThreadId(0), &mut self.fs_sink)
        );
        self.route_fs_actions();
        self.global_files.push(fid);
        self.global_files.len() - 1
    }

    fn add_thread(&mut self, workload: Box<dyn Workload>) {
        let tid = ThreadId(self.threads.len() as u32);
        let seed = self.cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tid.0 as u64 + 1));
        self.threads.push(Thread {
            workload,
            slots: Vec::new(),
            state: ThreadState::Ready,
            rng: SimRng::new(seed),
            current_kind: OpKind::Think,
            op_started: SimTime::ZERO,
        });
        let at = self.q.now() + SimDuration::from_micros(tid.0 as u64 + 1);
        self.push_at(at, Event::ThreadNext(tid));
    }

    fn run_for(&mut self, d: SimDuration) {
        let deadline = self.q.now() + d;
        self.drive(deadline, false);
    }

    fn start_measuring(&mut self) {
        self.measure_start = self.q.now();
        self.metrics.reset(self.q.now());
        self.dev_blocks_at_start = self
            .block
            .devices()
            .iter()
            .map(|d| d.stats().blocks_written)
            .sum();
    }

    fn run_until_done(&mut self, cap: SimDuration) -> bool {
        let deadline = self.q.now() + cap;
        self.drive(deadline, true)
    }

    /// Same arithmetic as `IoStack::report`.
    fn report(&self) -> StackReport {
        let now = self.q.now();
        let run = self.metrics.report(now);
        let secs = now.saturating_since(self.measure_start).as_secs_f64();
        let per_device: Vec<DeviceStats> = self.block.devices().iter().map(|d| d.stats()).collect();
        let mut dev = DeviceStats::default();
        for s in &per_device {
            dev.write_cmds += s.write_cmds;
            dev.read_cmds += s.read_cmds;
            dev.flush_cmds += s.flush_cmds;
            dev.blocks_written += s.blocks_written;
            dev.programs += s.programs;
            dev.cache_hit_reads += s.cache_hit_reads;
            dev.queue_full_rejections += s.queue_full_rejections;
        }
        let mut ftl = FtlStats::default();
        for d in self.block.devices() {
            let f = d.ftl_stats();
            ftl.host_appends += f.host_appends;
            ftl.gc_appends += f.gc_appends;
            ftl.gc_runs += f.gc_runs;
            ftl.erases += f.erases;
        }
        let blocks = dev.blocks_written - self.dev_blocks_at_start;
        let mut mean_qd = 0.0;
        let mut peak_qd = 0.0f64;
        for d in self.block.devices() {
            let qd = d.qd_series();
            mean_qd += qd.weighted_mean(self.measure_start, now);
            peak_qd = peak_qd.max(qd.max_in(self.measure_start, now));
        }
        mean_qd /= self.block.devices().len() as f64;
        StackReport {
            run,
            write_kiops: if secs > 0.0 {
                blocks as f64 / secs / 1000.0
            } else {
                0.0
            },
            mean_qd,
            peak_qd,
            device: dev,
            per_device,
            lanes: self.block.lane_stats(),
            ftl,
            fs: self.fs.stats(),
            block: self.block.stats(),
        }
    }
}
