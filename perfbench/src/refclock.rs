//! Host time scaled to a reference machine speed.
//!
//! Wall time on a shared machine drifts with the load of its neighbours
//! by tens of percent within seconds. Runs of a fixed reference kernel are
//! therefore taken around every measured stretch, and the stretch's wall
//! time is scaled by `REF_NS / median kernel time`: a machine that runs
//! the kernel in exactly `REF_NS` reads its wall time unchanged, a machine
//! (or a moment) twice as slow reads half. The kernel mixes operations the
//! simulator's hot paths perform (ordered-map lookups, a binary-heap event
//! queue, hash-map updates, small short-lived allocations) over warm data.
//! It belongs to the benchmark, never to the program under test, so a
//! faster program still reads faster.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::time::Instant;

/// Nominal kernel time: the scale's unit.
pub const REF_NS: f64 = 1_500_000.0;

/// Iterations per kernel run (about 1.5 ms on a 2 GHz Xeon core).
const ITERS: u32 = 2_000;

/// Live small buffers in the kernel's allocation churn.
const RING: usize = 64;

/// The reference kernel and its warm data.
pub struct RefKernel {
    tree: BTreeMap<u64, u64>,
    /// A hold-model timer queue: pop the earliest, push it back later.
    heap: BinaryHeap<Reverse<u64>>,
    map: HashMap<u64, u64>,
    /// Small buffers, each replaced (freed and reallocated) in turn.
    ring: Vec<Vec<u64>>,
    x: u64,
}

impl Default for RefKernel {
    fn default() -> RefKernel {
        RefKernel::new()
    }
}

impl RefKernel {
    /// Builds the kernel's data (64 Ki map entries, a 4 Ki-entry heap).
    pub fn new() -> RefKernel {
        let mut k = RefKernel {
            tree: BTreeMap::new(),
            heap: BinaryHeap::with_capacity(8192),
            map: HashMap::with_capacity(1 << 17),
            ring: (0..RING).map(|_| Vec::with_capacity(2)).collect(),
            x: 0x9E37_79B9_7F4A_7C15,
        };
        for i in 0..(1u64 << 16) {
            let key = k.next() >> 44;
            k.tree.insert(key, i);
            k.map.insert(i, key);
        }
        for _ in 0..4096 {
            let t = k.next() >> 50;
            k.heap.push(Reverse(t));
        }
        k
    }

    /// [`RefKernel::new`] plus the heap bytes its data holds, so that
    /// heap figures can leave them out.
    pub fn new_measured() -> (RefKernel, usize) {
        let before = crate::alloc::live_bytes();
        let k = RefKernel::new();
        (k, crate::alloc::live_bytes().saturating_sub(before))
    }

    fn next(&mut self) -> u64 {
        self.x = self
            .x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.x
    }

    /// Runs the kernel once; returns its wall time in ns.
    pub fn run(&mut self) -> u64 {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..ITERS {
            let x = self.next();
            if let Some((_, v)) = self.tree.range_mut((x >> 44)..).next() {
                *v = v.wrapping_add(acc);
                acc = acc.wrapping_add(*v);
            }
            let Reverse(t) = self.heap.pop().unwrap_or(Reverse(0));
            self.heap.push(Reverse(t + (x >> 50)));
            acc ^= t;
            if let Some(v) = self.map.get_mut(&((x >> 20) & 0xFFFF)) {
                *v = v.rotate_left(1) ^ acc;
            }
            let mut buf = Vec::with_capacity(2 + (x >> 61) as usize);
            buf.push(acc);
            self.ring[(t % RING as u64) as usize] = buf;
        }
        std::hint::black_box(acc);
        (t0.elapsed().as_nanos() as u64).max(1)
    }

    /// Wall times of `n` kernel runs, in ns.
    pub fn runs(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.run()).collect()
    }

    /// The median of kernel wall times: one slow sample (an interrupt, a
    /// page fault) does not move it.
    pub fn median(samples: &[u64]) -> u64 {
        let mut s = samples.to_vec();
        s.sort_unstable();
        match s.len() {
            0 => REF_NS as u64,
            n => s[n / 2],
        }
    }

    /// Scales `ns` of wall time, measured right after a kernel run that
    /// took `kernel_ns`, to reference ns.
    pub fn scale(ns: u64, kernel_ns: u64) -> f64 {
        ns as f64 * REF_NS / kernel_ns.max(1) as f64
    }
}
