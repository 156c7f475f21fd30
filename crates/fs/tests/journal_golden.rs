//! Golden digests of the journal's observable behaviour.
//!
//! Fixed `SimRng`-seeded syscall traces are driven through one
//! filesystem per `FsMode` under a deterministic mini event loop. Every
//! observable — the full timed action log, aggregate statistics, and the
//! ground-truth transaction records the crash checker consumes — is
//! folded into one FNV-1a digest per `(mode, seed)` and compared with
//! `golden/journal_digests.txt`. The fixture was captured while the dense
//! `SeqTable<Txn>` journal was still checked against the original
//! `HashMap` transaction table, and both produced these digests; any
//! change to commit semantics, ordering or statistics moves a line.

use bio_fs::{
    ActionSink, Filesystem, FsAction, FsConfig, FsEvent, FsMode, SyscallOutcome, ThreadId,
};
use bio_sim::{SimDuration, SimRng, SimTime};

const THREADS: u32 = 4;
const REQ_LATENCY: SimDuration = SimDuration::from_micros(80);
/// Traces per mode.
const SEEDS: u64 = 64;
const MODES: [FsMode; 4] = [
    FsMode::Ext4,
    FsMode::Ext4NoBarrier,
    FsMode::BarrierFs,
    FsMode::OptFs,
];

/// One generated syscall: `(op, file, offset, blocks, burst)`.
type OpTuple = (u8, u8, u64, u64, u8);

/// Deterministic mini event loop around one filesystem instance.
struct Driver {
    fs: Filesystem,
    /// Pending `(time, seq, event)`; popped in `(time, seq)` order.
    pending: Vec<(u128, u64, FsEvent)>,
    next_seq: u64,
    now: SimTime,
    free: Vec<ThreadId>,
    /// Timed log of everything the filesystem emitted.
    log: Vec<String>,
}

impl Driver {
    fn new(fs: Filesystem) -> Driver {
        Driver {
            fs,
            pending: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            free: (0..THREADS).map(ThreadId).collect(),
            log: Vec::new(),
        }
    }

    fn absorb(&mut self, out: &mut ActionSink<FsAction>) {
        let actions: Vec<FsAction> = out.iter().cloned().collect();
        out.clear();
        for a in actions {
            self.log.push(format!("{:?} {:?}", self.now, a));
            match a {
                FsAction::Submit(r) => {
                    let at = (self.now + REQ_LATENCY).as_nanos() as u128;
                    self.pending
                        .push((at, self.next_seq, FsEvent::ReqDone(r.id)));
                    self.next_seq += 1;
                }
                FsAction::After(d, ev) => {
                    let at = (self.now + d).as_nanos() as u128;
                    self.pending.push((at, self.next_seq, ev));
                    self.next_seq += 1;
                }
                FsAction::Wake(tid) => {
                    if !self.free.contains(&tid) {
                        self.free.push(tid);
                    }
                }
                FsAction::CtxSwitch(_) => {}
            }
        }
    }

    /// Handles the earliest pending event; false when none remain.
    fn step(&mut self) -> bool {
        let Some(best) = (0..self.pending.len()).min_by_key(|&i| {
            let (t, s, _) = self.pending[i];
            (t, s)
        }) else {
            return false;
        };
        let (t, _, ev) = self.pending.remove(best);
        self.now = SimTime::from_nanos(t as u64);
        let mut out = ActionSink::new();
        self.fs.handle(ev, self.now, &mut out);
        self.absorb(&mut out);
        true
    }

    /// Claims a free thread, draining events until one frees up.
    fn claim_thread(&mut self) -> ThreadId {
        loop {
            if let Some(tid) = self.free.pop() {
                return tid;
            }
            assert!(
                self.step(),
                "all threads blocked with no pending events: lost wake"
            );
        }
    }

    fn drain(&mut self) {
        let mut guard = 0;
        while self.step() {
            guard += 1;
            assert!(guard < 100_000, "event loop failed to quiesce");
        }
    }
}

/// Runs one full trace against a filesystem and returns its observables.
fn run_trace(mut fs: Filesystem, ops: &[OpTuple]) -> (Vec<String>, String, String) {
    let mut out = ActionSink::new();
    let files = [
        fs.create(ThreadId(0), &mut out),
        fs.create(ThreadId(0), &mut out),
        fs.create(ThreadId(0), &mut out),
    ];
    let mut d = Driver::new(fs);
    d.absorb(&mut out);
    for &(op, file_sel, offset, blocks, burst) in ops {
        let file = files[(file_sel % 3) as usize];
        let tid = d.claim_thread();
        let mut out = ActionSink::new();
        let now = d.now;
        let outcome = match op % 7 {
            // Writes dominate so transactions actually fill up.
            0 | 1 => {
                d.fs.write(tid, file, offset % 48, 1 + blocks % 4, now, &mut out)
            }
            2 => d.fs.fsync(tid, file, now, &mut out),
            3 => d.fs.fdatasync(tid, file, now, &mut out),
            4 => d.fs.fbarrier(tid, file, now, &mut out),
            5 => d.fs.fdatabarrier(tid, file, now, &mut out),
            _ => d.fs.read(tid, file, offset % 64, 1 + blocks % 2, &mut out),
        };
        d.log
            .push(format!("{:?} op{} -> {:?}", now, op % 7, outcome));
        if outcome == SyscallOutcome::Done {
            d.free.push(tid);
        }
        d.absorb(&mut out);
        // Interleave: let a random-sized burst of completions land before
        // the next syscall so commits overlap with new work.
        for _ in 0..burst % 4 {
            if !d.step() {
                break;
            }
        }
    }
    d.drain();
    let stats = format!("{:?}", d.fs.stats());
    let records = format!("{:?}", d.fs.records());
    (d.log, stats, records)
}

/// 5..=59 syscalls with the field ranges of `OpTuple`.
fn ops_for(seed: u64) -> Vec<OpTuple> {
    let mut rng = SimRng::new(seed);
    let len = rng.range(5, 59);
    (0..len)
        .map(|_| {
            (
                rng.below(7) as u8,
                rng.below(3) as u8,
                rng.below(48),
                rng.below(4),
                rng.below(4) as u8,
            )
        })
        .collect()
}

fn cfg(mode: FsMode) -> FsConfig {
    // A 1 µs tick makes every sync re-dirty metadata, maximising commit
    // traffic through the transaction table.
    FsConfig::new(mode).with_timer_tick(SimDuration::from_micros(1))
}

/// 64-bit FNV-1a over the log lines, stats and records, each followed
/// by a newline so field boundaries count.
fn digest((log, stats, records): &(Vec<String>, String, String)) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in log.iter().chain([stats, records]) {
        for &b in part.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn journal_matches_golden_digests() {
    let mut got = String::new();
    for mode in MODES {
        for seed in 0..SEEDS {
            let obs = run_trace(Filesystem::new(cfg(mode)), &ops_for(seed));
            got += &format!("{mode:?} {seed} {:016x}\n", digest(&obs));
        }
    }
    assert_eq!(
        got,
        include_str!("golden/journal_digests.txt"),
        "journal observables drifted from the golden digests"
    );
}
