//! Crash-consistency checking: journal replay over a persisted image and
//! the storage-order invariants of §2.3.
//!
//! The filesystem records every committed transaction as a [`TxnRecord`]
//! (ground truth). Given a crash [`PersistedImage`] from the device, the
//! checker verifies:
//!
//! 1. **Commit order** — transactions become durable in commit order: a
//!    later transaction must never survive a crash that destroyed an
//!    earlier one.
//! 2. **Intra-transaction order** — JC must never persist without its
//!    JD/log blocks ("the filesystem may recover incorrectly").
//! 3. **Ordered-mode data** — a surviving transaction's ordered data pages
//!    must have persisted (data before journal in ordered journaling).
//! 4. **Durability claims** — if an `fsync` returned success, its
//!    transaction and data must survive.
//!
//! Content versions are compared by tag: tags are handed out
//! monotonically, so "the image holds version ≥ X at this block" is just a
//! numeric comparison, and overwritten (superseded) blocks are not false
//! positives.

use bio_flash::{BlockTag, ImageView, Lba, PersistedImage};

/// Ground truth of one committed journal transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRecord {
    /// Transaction id (commit order).
    pub id: u64,
    /// First journal block of the descriptor+logs chunk.
    pub jd_lba: Lba,
    /// Tags of the descriptor and log blocks (contiguous from `jd_lba`).
    pub jd_tags: Vec<BlockTag>,
    /// Commit block location.
    pub jc_lba: Lba,
    /// Commit block tag.
    pub jc_tag: BlockTag,
    /// In-place metadata homes (checkpoint writes).
    pub meta_home: Vec<(Lba, BlockTag)>,
    /// OptFS journaled data homes (checkpoint writes).
    pub data_home: Vec<(Lba, BlockTag)>,
    /// Data pages ordered before this commit.
    pub ordered_data: Vec<(Lba, BlockTag)>,
    /// An fsync returned success for this transaction.
    pub durability_claimed: bool,
}

/// A detected crash-consistency violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsViolation {
    /// Transaction `later` survived while `earlier` was lost.
    CommitOrder {
        /// The lost earlier transaction.
        earlier: u64,
        /// The surviving later transaction.
        later: u64,
    },
    /// The commit block persisted without all of its log blocks.
    TornTransaction {
        /// The transaction with a dangling commit block.
        txn: u64,
    },
    /// A surviving transaction's ordered data page was lost.
    OrderedData {
        /// The transaction.
        txn: u64,
        /// The lost data block.
        lba: Lba,
    },
    /// An fsync-acknowledged transaction did not survive.
    DurabilityLoss {
        /// The transaction whose durability was promised.
        txn: u64,
    },
}

/// The crash-consistency checker with its record-only tables hoisted out
/// of the per-image loop: last-writer resolution and checkability depend
/// only on the records, so the crash enumerator builds one checker per
/// capture point and replays hundreds of images through it instead of
/// rebuilding the tables every time.
///
/// Only *checkable* transactions participate: a transaction whose journal
/// blocks were later reused (circular log wrap) cannot be distinguished
/// from a legitimately overwritten one, so it is skipped — by the time the
/// journal wraps it has long been checkpointed.
pub struct ConsistencyCheck<'a> {
    records: &'a [TxnRecord],
    /// Per record: all of its journal blocks still name it as last writer.
    checkable: Vec<bool>,
}

impl<'a> ConsistencyCheck<'a> {
    /// Precomputes the record-only tables.
    pub fn new(records: &'a [TxnRecord]) -> ConsistencyCheck<'a> {
        // Last writer per journal lba (for checkability).
        use std::collections::HashMap;
        let mut last_writer: HashMap<Lba, u64> = HashMap::new();
        for r in records {
            for (i, _) in r.jd_tags.iter().enumerate() {
                last_writer.insert(Lba(r.jd_lba.0 + i as u64), r.id);
            }
            last_writer.insert(r.jc_lba, r.id);
        }
        let checkable = records
            .iter()
            .map(|r| {
                r.jd_tags
                    .iter()
                    .enumerate()
                    .all(|(i, _)| last_writer[&Lba(r.jd_lba.0 + i as u64)] == r.id)
                    && last_writer[&r.jc_lba] == r.id
            })
            .collect();
        ConsistencyCheck { records, checkable }
    }

    /// Replays the records against one crash image and returns all
    /// violations.
    pub fn violations<V: ImageView>(&self, image: &V) -> Vec<FsViolation> {
        let mut violations = Vec::new();
        let records = self.records;
        let checkable = |i: usize| self.checkable[i];
        let jd_intact = |r: &TxnRecord| -> bool {
            r.jd_tags
                .iter()
                .enumerate()
                .all(|(i, &t)| image.tag(Lba(r.jd_lba.0 + i as u64)) == t)
        };
        let jc_intact = |r: &TxnRecord| -> bool { image.tag(r.jc_lba) == r.jc_tag };
        // "Version at lba is at least `tag`": tags are globally monotonic,
        // so a bigger tag at the same block is a newer version of it.
        let present_or_superseded = |lba: Lba, tag: BlockTag| -> bool { image.tag(lba).0 >= tag.0 };

        // Pass 1: classify.
        let mut valid: Vec<bool> = Vec::with_capacity(records.len());
        for (i, r) in records.iter().enumerate() {
            let ok = checkable(i) && jd_intact(r) && jc_intact(r);
            valid.push(ok);
        }

        // Invariant 2: torn transactions (JC without full JD).
        for (i, r) in records.iter().enumerate() {
            if checkable(i) && jc_intact(r) && !jd_intact(r) {
                violations.push(FsViolation::TornTransaction { txn: r.id });
            }
        }

        // Invariant 1: commit order. Find the newest surviving transaction
        // and require all older checkable ones to have survived (or have
        // been legitimately superseded — handled by checkability).
        if let Some(newest_valid) = records
            .iter()
            .zip(&valid)
            .filter(|(_, v)| **v)
            .map(|(r, _)| r.id)
            .max()
        {
            for (i, (r, v)) in records.iter().zip(&valid).enumerate() {
                if r.id < newest_valid && checkable(i) && !*v {
                    violations.push(FsViolation::CommitOrder {
                        earlier: r.id,
                        later: newest_valid,
                    });
                }
            }
        }

        // Invariant 3: ordered data of surviving transactions.
        for (r, v) in records.iter().zip(&valid) {
            if *v {
                for &(lba, tag) in &r.ordered_data {
                    if !present_or_superseded(lba, tag) {
                        violations.push(FsViolation::OrderedData { txn: r.id, lba });
                    }
                }
            }
        }

        // Invariant 4: durability claims.
        for (i, (r, v)) in records.iter().zip(&valid).enumerate() {
            if r.durability_claimed && checkable(i) && !*v {
                violations.push(FsViolation::DurabilityLoss { txn: r.id });
            }
        }

        violations
    }
}

/// One-shot form of [`ConsistencyCheck`]: builds the checker and replays a
/// single image (the original API; callers with many images per record set
/// should hold a checker instead).
pub fn check_crash_consistency(records: &[TxnRecord], image: &PersistedImage) -> Vec<FsViolation> {
    ConsistencyCheck::new(records).violations(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn rec(id: u64, jd_lba: u64, jd_tags: &[u64], jc_lba: u64, jc_tag: u64) -> TxnRecord {
        TxnRecord {
            id,
            jd_lba: Lba(jd_lba),
            jd_tags: jd_tags.iter().map(|&t| BlockTag(t)).collect(),
            jc_lba: Lba(jc_lba),
            jc_tag: BlockTag(jc_tag),
            meta_home: Vec::new(),
            data_home: Vec::new(),
            ordered_data: Vec::new(),
            durability_claimed: false,
        }
    }

    fn image(pairs: &[(u64, u64)]) -> PersistedImage {
        let map: BTreeMap<Lba, BlockTag> =
            pairs.iter().map(|&(l, t)| (Lba(l), BlockTag(t))).collect();
        PersistedImage::from_map(map)
    }

    #[test]
    fn clean_prefix_passes() {
        let records = vec![rec(1, 100, &[10, 11], 102, 12), rec(2, 103, &[20], 104, 21)];
        // Txn 1 fully persisted, txn 2 lost entirely: consistent.
        let img = image(&[(100, 10), (101, 11), (102, 12)]);
        assert!(check_crash_consistency(&records, &img).is_empty());
    }

    #[test]
    fn empty_image_passes() {
        let records = vec![rec(1, 100, &[10], 101, 11)];
        assert!(check_crash_consistency(&records, &image(&[])).is_empty());
    }

    #[test]
    fn commit_order_violation_detected() {
        let records = vec![rec(1, 100, &[10], 101, 11), rec(2, 102, &[20], 103, 21)];
        // Txn 2 survived, txn 1 lost.
        let img = image(&[(102, 20), (103, 21)]);
        let v = check_crash_consistency(&records, &img);
        assert!(v.iter().any(|x| matches!(
            x,
            FsViolation::CommitOrder {
                earlier: 1,
                later: 2
            }
        )));
    }

    #[test]
    fn torn_transaction_detected() {
        let records = vec![rec(1, 100, &[10, 11], 102, 12)];
        // JC persisted, one log block missing.
        let img = image(&[(100, 10), (102, 12)]);
        let v = check_crash_consistency(&records, &img);
        assert!(v
            .iter()
            .any(|x| matches!(x, FsViolation::TornTransaction { txn: 1 })));
    }

    #[test]
    fn ordered_data_violation_detected() {
        let mut r = rec(1, 100, &[10], 101, 11);
        r.ordered_data.push((Lba(500), BlockTag(5)));
        // Txn survived but its data page did not.
        let img = image(&[(100, 10), (101, 11)]);
        let v = check_crash_consistency(&[r], &img);
        assert!(v
            .iter()
            .any(|x| matches!(x, FsViolation::OrderedData { txn: 1, .. })));
    }

    #[test]
    fn superseded_ordered_data_passes() {
        let mut r = rec(1, 100, &[10], 101, 11);
        r.ordered_data.push((Lba(500), BlockTag(5)));
        // A newer version (tag 9 > 5) of the data block is fine.
        let img = image(&[(100, 10), (101, 11), (500, 9)]);
        assert!(check_crash_consistency(&[r], &img).is_empty());
    }

    #[test]
    fn durability_loss_detected() {
        let mut r = rec(1, 100, &[10], 101, 11);
        r.durability_claimed = true;
        let img = image(&[]);
        let v = check_crash_consistency(&[r], &img);
        assert!(v
            .iter()
            .any(|x| matches!(x, FsViolation::DurabilityLoss { txn: 1 })));
    }

    #[test]
    fn wrapped_journal_txn_is_skipped() {
        // Txn 1's journal blocks were reused by txn 3: txn 1 is not
        // checkable and must not produce false positives.
        let records = vec![
            rec(1, 100, &[10], 101, 11),
            rec(2, 102, &[20], 103, 21),
            rec(3, 100, &[30], 101, 31), // reuses txn 1's blocks
        ];
        let img = image(&[(100, 30), (101, 31), (102, 20), (103, 21)]);
        assert!(check_crash_consistency(&records, &img).is_empty());
    }
}
