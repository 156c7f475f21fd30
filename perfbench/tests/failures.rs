//! Failure accounting must be able to fail: a panicking cell and a
//! forged completion are both counted as failed operations.

use barrier_io::{DeviceProfile, FileRef, FnWorkload, Op, SimDuration, StackConfig};
use bio_block::ReqId;
use bio_fs::FsEvent;
use perfbench::bench::{run_cell, run_cell_with};
use perfbench::cells::{cells, device_capacity, Cell, Driver, WorkloadKind};
use perfbench::tracer::Tracer;

/// A cell whose only thread panics on its 31st operation, after ten
/// write + fsync + TxnMark transactions.
fn panicking_cell() -> Cell {
    Cell {
        name: "deliberate-panic".into(),
        cfg: StackConfig::bfs(DeviceProfile::ufs()),
        planned_txns: 100,
        within_capacity: true,
        populate: Box::new(|d: &mut dyn Driver| {
            let f = FileRef::Global(d.create_global_file());
            let mut n = 0u64;
            d.add_thread(Box::new(FnWorkload(move |_: &mut bio_sim::SimRng| {
                n += 1;
                assert!(n <= 30, "deliberate panic in op {n}");
                Some(match n % 3 {
                    1 => Op::Write {
                        file: f,
                        offset: n,
                        blocks: 1,
                    },
                    2 => Op::Fsync { file: f },
                    _ => Op::TxnMark,
                })
            })));
        }),
    }
}

#[test]
fn panicking_cell_counts_its_missing_transactions_as_failed() {
    let cell = panicking_cell();
    let mut tr = Tracer::new(false);
    for run in [run_cell(&cell, None), run_cell(&cell, Some(&mut tr))] {
        let msg = run.panic.as_deref().expect("the panic is recorded");
        assert!(msg.contains("deliberate panic in op 31"), "{msg}");
        assert_eq!(run.txns_done, 10);
        let failures = run.failures(cell.within_capacity, device_capacity(&cell.cfg));
        assert!(failures.iter().any(|f| f.contains("deliberate panic")));
        assert_eq!(run.failed_ops(&failures), 90);
    }
}

#[test]
fn forged_req_done_is_counted_as_a_failure() {
    let cell = cells(WorkloadKind::Durable, 1, 0.01).remove(0);
    let cap = device_capacity(&cell.cfg);
    let mut tr = Tracer::new(false);

    let clean = run_cell(&cell, Some(&mut tr));
    let clean_failures = clean.failures(cell.within_capacity, cap);
    assert_eq!(clean_failures, Vec::<String>::new());
    assert_eq!(clean.failed_ops(&clean_failures), 0);

    let forged = run_cell_with(&cell, Some(&mut tr), |s| {
        s.inject_fs_event(FsEvent::ReqDone(ReqId(u64::MAX / 2)));
        s.run_for(SimDuration::ZERO);
    });
    assert_eq!(forged.counters.map(|c| c.forged_completions), Some(1));
    let failures = forged.failures(cell.within_capacity, cap);
    assert!(
        failures.iter().any(|f| f.contains("ReqDone")),
        "{failures:?}"
    );
    assert_eq!(forged.failed_ops(&failures), cell.planned_txns);
}
