//! Allocation gate for the device's steady-state event path.
//!
//! A counting global allocator tallies the heap allocations (and
//! reallocations) made *inside* `Device::submit` and `Device::handle`
//! while a plain-SSD device runs at queue depth 32 with its writeback cache
//! above the destage watermark — the regime order-preserving dispatch
//! keeps the device in. The host side of the loop (building commands,
//! scheduling events) is not counted. The count is deterministic, so the
//! bound is exact rather than statistical.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bio_flash::{
    BlockTag, CmdId, Command, DevAction, DevEvent, Device, DeviceProfile, Lba, WriteFlags,
};
use bio_sim::EventQueue;

struct CountingAlloc;

thread_local! {
    /// True while the test thread is inside a counted device call.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs during thread teardown, after
    // the thread-locals are gone.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            COUNT.with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting armed on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> R {
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    r
}

const QUEUE_DEPTH: usize = 32;
const LBA_SPAN: u64 = 8_192;
const WARMUP_EVENTS: u64 = 100_000;
const MEASURED_EVENTS: u64 = 200_000;
const MAX_ALLOCS: u64 = 16;

/// Closed-loop host: keeps `QUEUE_DEPTH` one-block writes outstanding,
/// every 4th a barrier write, spread over `LBA_SPAN` addresses.
struct Host {
    dev: Device,
    q: EventQueue<DevEvent>,
    out: Vec<DevAction>,
    next_id: u64,
    completed: u64,
}

impl Host {
    fn new() -> Host {
        let mut host = Host {
            dev: Device::new(DeviceProfile::plain_ssd(), 1),
            q: EventQueue::new(),
            out: Vec::with_capacity(1_024),
            next_id: 0,
            completed: 0,
        };
        for _ in 0..QUEUE_DEPTH {
            host.submit_next();
        }
        host
    }

    fn submit_next(&mut self) {
        let i = self.next_id;
        self.next_id += 1;
        let flags = if i % 4 == 3 {
            WriteFlags::BARRIER
        } else {
            WriteFlags::NONE
        };
        // An odd stride walks every address of the span.
        let lba = Lba(i * 2_477 % LBA_SPAN);
        let cmd = Command::write(CmdId(i), lba, vec![BlockTag(i + 1)], flags);
        let now = self.q.now();
        let (dev, out) = (&mut self.dev, &mut self.out);
        counted(|| dev.submit(cmd, now, out)).expect("closed loop never overfills the queue");
        self.apply();
    }

    fn apply(&mut self) {
        let mut done = 0;
        for a in self.out.drain(..) {
            match a {
                DevAction::Complete(_) => done += 1,
                DevAction::After(d, ev) => self.q.push_after(d, ev),
            }
        }
        self.completed += done;
        for _ in 0..done {
            self.submit_next();
        }
    }

    fn step(&mut self) {
        let (now, ev) = self.q.pop().expect("closed loop never runs dry");
        let (dev, out) = (&mut self.dev, &mut self.out);
        counted(|| dev.handle(ev, now, out));
        self.apply();
    }
}

#[test]
fn steady_state_device_path_does_not_allocate() {
    let mut host = Host::new();
    for _ in 0..WARMUP_EVENTS {
        host.step();
    }
    let cache_blocks = host.dev.profile().cache_blocks;
    assert!(
        host.dev.cache().dirty_count() * 2 > cache_blocks,
        "load must keep the cache above its destage watermark ({} dirty of {cache_blocks})",
        host.dev.cache().dirty_count()
    );
    let before = COUNT.with(Cell::get);
    let completed_before = host.completed;
    for _ in 0..MEASURED_EVENTS {
        host.step();
    }
    let allocs = COUNT.with(Cell::get) - before;
    assert!(
        host.completed - completed_before > MEASURED_EVENTS / 4,
        "writes must keep completing"
    );
    assert!(
        allocs <= MAX_ALLOCS,
        "{allocs} allocations inside Device::submit/handle over {MEASURED_EVENTS} events (bound {MAX_ALLOCS})"
    );
}
