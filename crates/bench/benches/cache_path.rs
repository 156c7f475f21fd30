//! Criterion micro-benchmarks of the writeback cache — the structure every
//! transferred block enters and every destage drains. Covers the
//! insert→candidates→mark→complete cycle (the device's per-block hot
//! loop), same-epoch coalescing, full candidate scans on a populated
//! cache, and the destage pump's bounded scan.

use bio_flash::{BlockTag, Lba, WritebackCache};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Steady-state destage cycle: keep `depth` entries resident; each round
/// inserts a batch (with a barrier closing the epoch), scans candidates,
/// and completes them in transfer order — the per-block path of
/// `Device::destage_pump` / `on_program_done`.
fn insert_destage_cycle(depth: u64, rounds: u64) -> u64 {
    let mut c = WritebackCache::new(depth as usize * 2);
    let mut acc = 0u64;
    let mut tag = 1u64;
    let mut cands = Vec::new();
    for r in 0..rounds {
        for i in 0..depth {
            let barrier = i + 1 == depth;
            let seq = c.insert(Lba((r * depth + i) % (depth * 4)), BlockTag(tag), barrier);
            tag += 1;
            acc = acc.wrapping_add(seq);
        }
        // Every resident entry is dirty here, so the candidates are the
        // whole cache in transfer order.
        c.destage_candidates(None, false, None, usize::MAX, &mut cands);
        for &seq in &cands {
            c.mark_destaging(seq).expect("candidate is dirty");
        }
        for &seq in &cands {
            let e = c.complete(seq).expect("pending entry is resident");
            acc = acc.wrapping_add(e.tag.0);
        }
    }
    acc
}

/// Same-epoch coalescing: repeated overwrites of a small hot set, the
/// page-cache-absorbs-rewrites path (latest-index lookup + in-place tag
/// update, no new version).
fn coalesce_hot(hot: u64, ops: u64) -> u64 {
    let mut c = WritebackCache::new(hot as usize * 2);
    let mut acc = 0u64;
    for i in 0..ops {
        let seq = c.insert(Lba(i % hot), BlockTag(i + 1), false);
        acc = acc.wrapping_add(seq);
    }
    acc
}

/// Unlimited candidate scans over a populated cache with per-LBA ordering
/// (the in-place engines' destage pick), plus epoch-bounded scans.
fn candidate_scans(entries: u64, scans: u64) -> u64 {
    let mut c = WritebackCache::new(entries as usize);
    for i in 0..entries {
        // Two versions per LBA across epochs: half the entries are held
        // back by per-LBA ordering.
        let barrier = i % 8 == 7;
        c.insert(Lba(i / 2), BlockTag(i + 1), barrier);
    }
    let mut acc = 0u64;
    let mut out = Vec::new();
    for _ in 0..scans {
        c.destage_candidates(None, true, None, usize::MAX, &mut out);
        acc = acc.wrapping_add(out.len() as u64);
        c.destage_candidates(c.min_pending_epoch(), true, None, usize::MAX, &mut out);
        acc = acc.wrapping_add(out.len() as u64);
    }
    acc
}

/// The destage pump's real shape on a plain SSD: `destaging` programs in
/// flight at the front of the cache, `dirty` entries behind them, and a
/// scan limited to one candidate per chip plus one.
fn pump_scans(destaging: u64, dirty: u64, limit: usize, scans: u64) -> u64 {
    let mut c = WritebackCache::new((destaging + dirty) as usize);
    for i in 0..destaging + dirty {
        let seq = c.insert(Lba(i), BlockTag(i + 1), i % 4 == 3);
        if i < destaging {
            c.mark_destaging(seq).expect("fresh entry is dirty");
        }
    }
    let mut acc = 0u64;
    let mut out = Vec::new();
    for _ in 0..scans {
        c.destage_candidates(None, false, None, limit, &mut out);
        acc = acc.wrapping_add(out.len() as u64);
    }
    acc
}

fn bench_cache_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_path");
    g.bench_function("insert_destage_cycle_256x400", |b| {
        b.iter(|| insert_destage_cycle(black_box(256), 400))
    });
    g.bench_function("coalesce_hot_64_lbas_200k_ops", |b| {
        b.iter(|| coalesce_hot(black_box(64), 200_000))
    });
    g.bench_function("candidate_scans_4k_entries_100", |b| {
        b.iter(|| candidate_scans(black_box(4_096), 100))
    });
    g.bench_function(
        "pump_scan_2k_dirty_behind_32_destaging_limit_33_x1000",
        |b| b.iter(|| pump_scans(32, black_box(2_048), 33, 1_000)),
    );
    g.finish();
}

criterion_group!(benches, bench_cache_path);
criterion_main!(benches);
