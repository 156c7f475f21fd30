//! Property test: delta capture equals a full read of the live stack, and
//! capture tracking does not perturb the simulation.
//!
//! For random trace seeds across the differential stacks (all three
//! filesystem disciplines, at 1q×1dev and 2q×2dev), two copies of the
//! same trace run in lockstep: one with capture tracking armed, captured
//! through a [`CaptureCursor`] at every commit exactly as the crash engine
//! does, and one untracked, read in full with [`extract_point`]. Both
//! must advance through identical simulated instants, and at every commit
//! the two crash points must be equal field for field.

use barrier_io::{DeviceProfile, StackConfig, Topology};
use bio_bench::crash::{extract_point, trace_stack, CaptureCursor};
use bio_workloads::SyncMode;
use proptest::prelude::*;

/// Step budget per trace (the crash engine's own traces quiesce far
/// sooner; this only stops a runaway loop).
const STEP_LIMIT: u64 = 2_000_000;

/// The six differential cells: (config, sync flavour).
fn cell(stack: u8) -> (StackConfig, SyncMode) {
    let mq = |cfg: StackConfig| cfg.with_topology(Topology::new(2, 2, 16));
    match stack {
        0 => (
            StackConfig::ext4_dr(DeviceProfile::ufs()).with_history(),
            SyncMode::Fsync,
        ),
        1 => (
            StackConfig::bfs(DeviceProfile::ufs()).with_history(),
            SyncMode::Fsync,
        ),
        2 => (
            StackConfig::bfs(DeviceProfile::ufs())
                .ordering_only()
                .with_history(),
            SyncMode::Fbarrier,
        ),
        3 => (
            mq(StackConfig::ext4_dr(DeviceProfile::ufs()).with_history()),
            SyncMode::Fsync,
        ),
        4 => (
            mq(StackConfig::bfs(DeviceProfile::ufs()).with_history()),
            SyncMode::Fsync,
        ),
        _ => (
            mq(StackConfig::bfs(DeviceProfile::ufs())
                .ordering_only()
                .with_history()),
            SyncMode::Fbarrier,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delta_capture_equals_live_extraction(seed in 0u64..10_000, stack in 0u8..6) {
        let (cfg, sync) = cell(stack);
        let mut tracked = trace_stack(cfg.clone(), sync, seed);
        tracked.enable_capture_tracking();
        let mut live = trace_stack(cfg, sync, seed);
        let mut cursor = CaptureCursor::new();
        let mut commits = 0usize;
        let mut steps = 0u64;
        loop {
            let more = tracked.step();
            prop_assert_eq!(more, live.step(), "event streams diverge");
            prop_assert_eq!(tracked.now(), live.now(), "clocks diverge");
            if !more {
                break;
            }
            let n = tracked.fs().records().len();
            prop_assert_eq!(n, live.fs().records().len(), "commit counts diverge");
            if n > commits {
                commits = n;
                let delta = cursor.capture(&mut tracked);
                let full = extract_point(&live);
                prop_assert_eq!(delta, full, "capture diverges at commit {}", n);
            } else if tracked.workloads_finished() && tracked.fs().journal_quiescent() {
                break;
            }
            steps += 1;
            prop_assert!(steps < STEP_LIMIT, "trace failed to quiesce");
        }
        prop_assert!(commits > 0, "trace produced no capture points");
    }
}
