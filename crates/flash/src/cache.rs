//! The device writeback cache.
//!
//! Entries are kept in *transfer order* (a monotonically increasing
//! sequence number assigned as DMA completes) because every barrier
//! enforcement scheme in §3.2 of the paper is defined over that order.
//! Each entry carries the *epoch* it belongs to; the epoch counter
//! advances when a barrier write is inserted, so "epoch n+1 must not
//! persist before epoch n" is checkable directly on the entries.
//!
//! Crucially, entries for the same LBA in *different* epochs are kept as
//! separate versions (no cross-epoch coalescing): collapsing them would
//! let a later epoch's content replace an earlier epoch's while other
//! earlier-epoch blocks are still volatile, silently breaking the barrier
//! guarantee.
//!
//! ## Storage layout and invariants
//!
//! The cache is a dense slab, not a map pair: entries live in a
//! [`SeqTable`] keyed by transfer sequence (so iteration *is* transfer
//! order and the per-block paths are index loads, not hash/tree probes),
//! and the versions of one LBA form an intrusive doubly-linked chain
//! through the slab (`prev_same_lba`/`next_same_lba`, 0 = none — sequence
//! numbers start at 1). Two dense LBA-indexed side tables complete the
//! structure:
//!
//! * `latest[lba]` — the read-hit index: the newest *inserted* version,
//!   cleared (not rolled back) when that exact version completes;
//! * `chain_head[lba]` — the newest *resident* version, rolled back to the
//!   next-older resident version on completion. An entry with
//!   `prev_same_lba == 0` is therefore the oldest resident version of its
//!   LBA, which is exactly the per-LBA eligibility test the in-place
//!   destage engines need.
//!
//! Invariants (property-tested against the original map-based
//! implementation in `tests/dense_equivalence.rs`):
//!
//! * epochs are non-decreasing in sequence order, so the minimum pending
//!   epoch is the epoch of the oldest resident entry;
//! * `latest`/`chain_head` only ever point at resident entries;
//! * `dirty` counts exactly the resident entries in [`EntryState::Dirty`].
//!
//! ## Candidate scans
//!
//! The device's destage pump runs on every device event, but can start at
//! most one program per idle chip. [`WritebackCache::destage_candidates`]
//! therefore takes a limit and a caller-owned output buffer, and stops
//! scanning once the limit is reached (or once no later entry can
//! qualify). One pump allocates nothing and, on the log-structured
//! engine, visits at most the in-flight programs plus the limit:
//! O(parallelism), not the whole cache. The per-LBA-ordered engines may
//! also step over versions held back behind an older one of their LBA.

use bio_sim::{PagedMap, RunSet, SeqTable};

use crate::types::{BlockTag, Lba};

/// Destage lifecycle of one cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// In cache, not yet being written to flash.
    Dirty,
    /// A flash program for this entry is in flight.
    Destaging,
}

/// One cached block version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// Block address.
    pub lba: Lba,
    /// Content version.
    pub tag: BlockTag,
    /// Barrier epoch this version belongs to.
    pub epoch: u64,
    /// Destage state.
    pub state: EntryState,
}

/// Why a cache operation was rejected. Sequence numbers arrive from
/// outside the cache (device completion events), so unknown or replayed
/// sequences are reportable errors, not panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    /// The sequence is not resident (never inserted, or already
    /// completed — e.g. a duplicate completion).
    UnknownSeq(u64),
    /// The entry is already being destaged (duplicate `mark_destaging`).
    AlreadyDestaging(u64),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::UnknownSeq(s) => write!(f, "unknown cache entry seq {s}"),
            CacheError::AlreadyDestaging(s) => write!(f, "cache entry seq {s} already destaging"),
        }
    }
}

impl std::error::Error for CacheError {}

/// Slab slot: the entry plus its intrusive same-LBA version chain.
#[derive(Debug, Clone, Copy)]
struct Slot {
    entry: CacheEntry,
    /// Next-older resident version of the same LBA (0 = none: this is the
    /// oldest resident version).
    prev_same_lba: u64,
    /// Next-newer resident version of the same LBA (0 = none).
    next_same_lba: u64,
}

/// Sentinel for "no sequence" in the dense LBA side tables (real
/// sequences start at 1).
const NO_SEQ: u64 = 0;

/// Transfer-ordered writeback cache with epoch accounting.
#[derive(Debug, Clone, Default)]
pub struct WritebackCache {
    /// Entries in transfer order, keyed by transfer sequence number.
    slots: SeqTable<Slot>,
    /// Read-hit index: newest inserted version per LBA (dense, LBA-indexed).
    latest: PagedMap<u64>,
    /// Newest *resident* version per LBA (heads the intrusive chain).
    chain_head: PagedMap<u64>,
    /// Resident entries still in [`EntryState::Dirty`].
    dirty: usize,
    capacity: usize,
    current_epoch: u64,
    next_seq: u64,
}

impl WritebackCache {
    /// Creates a cache holding at most `capacity` block versions.
    pub fn new(capacity: usize) -> WritebackCache {
        WritebackCache {
            slots: SeqTable::new(),
            latest: PagedMap::new(),
            chain_head: PagedMap::new(),
            dirty: 0,
            capacity: capacity.max(1),
            current_epoch: 0,
            next_seq: 1,
        }
    }

    /// Number of resident entries (dirty + destaging).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True when at capacity; inserts must wait for a destage.
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.capacity
    }

    /// The epoch new writes are tagged with.
    pub fn current_epoch(&self) -> u64 {
        self.current_epoch
    }

    #[inline]
    fn side(table: &PagedMap<u64>, lba: Lba) -> u64 {
        table.get(lba.0).unwrap_or(NO_SEQ)
    }

    #[inline]
    fn set_side(table: &mut PagedMap<u64>, lba: Lba, seq: u64) {
        if seq == NO_SEQ {
            table.remove(lba.0);
        } else {
            table.insert(lba.0, seq);
        }
    }

    /// Inserts one transferred block. If `barrier` is set the epoch counter
    /// advances *after* the insert: the barrier write is the last member of
    /// its epoch (§3.2).
    ///
    /// Same-epoch overwrites of a still-dirty entry coalesce in place;
    /// anything else creates a new version. Returns the entry's transfer
    /// sequence number.
    pub fn insert(&mut self, lba: Lba, tag: BlockTag, barrier: bool) -> u64 {
        let prev_seq = Self::side(&self.latest, lba);
        let seq = match self.slots.get_mut(prev_seq) {
            Some(prev)
                if prev.entry.state == EntryState::Dirty
                    && prev.entry.epoch == self.current_epoch =>
            {
                // Safe coalesce: same epoch, program not yet started.
                prev.entry.tag = tag;
                prev_seq
            }
            // No previous version, or one that must stay a separate
            // version (cross-epoch, or already destaging).
            _ => self.push_new(lba, tag),
        };
        if barrier {
            self.current_epoch += 1;
        }
        seq
    }

    fn push_new(&mut self, lba: Lba, tag: BlockTag) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let prev = Self::side(&self.chain_head, lba);
        self.slots.insert(
            seq,
            Slot {
                entry: CacheEntry {
                    lba,
                    tag,
                    epoch: self.current_epoch,
                    state: EntryState::Dirty,
                },
                prev_same_lba: prev,
                next_same_lba: NO_SEQ,
            },
        );
        if let Some(p) = self.slots.get_mut(prev) {
            p.next_same_lba = seq;
        }
        Self::set_side(&mut self.chain_head, lba, seq);
        Self::set_side(&mut self.latest, lba, seq);
        self.dirty += 1;
        seq
    }

    /// Latest cached content for `lba` (read hit), if resident.
    pub fn lookup(&self, lba: Lba) -> Option<BlockTag> {
        self.slots
            .get(Self::side(&self.latest, lba))
            .map(|s| s.entry.tag)
    }

    /// The entry at `seq`, if resident.
    pub fn entry(&self, seq: u64) -> Option<&CacheEntry> {
        self.slots.get(seq).map(|s| &s.entry)
    }

    /// Count of entries not yet being destaged.
    pub fn dirty_count(&self) -> usize {
        self.dirty
    }

    /// The minimum epoch among resident entries, i.e. the epoch that must
    /// finish persisting first under in-order writeback. Epochs are
    /// non-decreasing in transfer order, so this is the oldest resident
    /// entry's epoch.
    pub fn min_pending_epoch(&self) -> Option<u64> {
        self.slots.iter().next().map(|(_, s)| s.entry.epoch)
    }

    /// Fills `out` with up to `limit` destage candidates in transfer order
    /// (`out` is cleared first; the caller owns and reuses the buffer).
    ///
    /// The scan stops as soon as `limit` candidates are found, so its cost
    /// is the number of entries visited up to the last candidate, not the
    /// cache size: the destage pump can start at most one program per idle
    /// chip, and asks for no more than that.
    ///
    /// `max_epoch` optionally gates candidates to epochs `<=` the bound
    /// (used by the in-order writeback engine). Epochs are non-decreasing
    /// in transfer order, so the scan ends at the first entry past it.
    ///
    /// With `lba_ordered` set, an entry is only eligible once every earlier
    /// resident version of the same LBA has been programmed — required for
    /// engines that write in place. A log-structured device (the paper's
    /// UFS firmware) must NOT set it: the FTL appends strictly in transfer
    /// order, and two versions of one LBA are simply two appends, so
    /// holding the newer one back would reorder the append log and break
    /// prefix recovery.
    ///
    /// `keep`, when given, restricts candidates to its members (the
    /// transactional engine's open group). It is applied before the limit,
    /// and the scan ends past its largest member.
    pub fn destage_candidates(
        &self,
        max_epoch: Option<u64>,
        lba_ordered: bool,
        keep: Option<&RunSet>,
        limit: usize,
        out: &mut Vec<u64>,
    ) {
        out.clear();
        if limit == 0 {
            return;
        }
        let seq_end = match keep {
            Some(set) => match set.last() {
                Some(last) => last + 1,
                None => return,
            },
            None => u64::MAX,
        };
        for (seq, slot) in self.slots.iter() {
            if seq >= seq_end || max_epoch.is_some_and(|bound| slot.entry.epoch > bound) {
                break;
            }
            // The intrusive chain makes the per-LBA test O(1): an entry is
            // the first resident version of its LBA iff it has no older
            // resident predecessor.
            if lba_ordered && slot.prev_same_lba != NO_SEQ {
                continue;
            }
            if slot.entry.state != EntryState::Dirty {
                continue;
            }
            if keep.is_some_and(|set| !set.contains(seq)) {
                continue;
            }
            out.push(seq);
            if out.len() == limit {
                break;
            }
        }
    }

    /// Marks an entry as having a flash program in flight.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSeq`] if `seq` is not resident,
    /// [`CacheError::AlreadyDestaging`] if it already has a program in
    /// flight.
    pub fn mark_destaging(&mut self, seq: u64) -> Result<(), CacheError> {
        let slot = self.slots.get_mut(seq).ok_or(CacheError::UnknownSeq(seq))?;
        if slot.entry.state != EntryState::Dirty {
            return Err(CacheError::AlreadyDestaging(seq));
        }
        slot.entry.state = EntryState::Destaging;
        self.dirty -= 1;
        Ok(())
    }

    /// Removes a fully programmed entry, freeing its slot. Returns it.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSeq`] if `seq` is not resident — notably a
    /// *duplicate* completion of an already-removed entry, which a caller
    /// replaying device events can drive externally.
    pub fn complete(&mut self, seq: u64) -> Result<CacheEntry, CacheError> {
        let slot = self.slots.remove(seq).ok_or(CacheError::UnknownSeq(seq))?;
        if slot.entry.state == EntryState::Dirty {
            self.dirty -= 1;
        }
        // Unlink from the same-LBA version chain.
        if let Some(p) = self.slots.get_mut(slot.prev_same_lba) {
            p.next_same_lba = slot.next_same_lba;
        }
        if let Some(n) = self.slots.get_mut(slot.next_same_lba) {
            n.prev_same_lba = slot.prev_same_lba;
        }
        if Self::side(&self.chain_head, slot.entry.lba) == seq {
            // Roll the resident head back to the next-older version.
            Self::set_side(&mut self.chain_head, slot.entry.lba, slot.prev_same_lba);
        }
        if Self::side(&self.latest, slot.entry.lba) == seq {
            // Read hits never fall back to an older version: the newest
            // content left the cache, so reads must go to flash.
            Self::set_side(&mut self.latest, slot.entry.lba, NO_SEQ);
        }
        Ok(slot.entry)
    }

    /// All resident entries in transfer order (used for PLP crash images).
    pub fn entries_in_order(&self) -> impl Iterator<Item = (u64, &CacheEntry)> {
        self.slots.iter().map(|(seq, s)| (seq, &s.entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every candidate (no limit, no filter) as a fresh list.
    fn all_candidates(c: &WritebackCache, max_epoch: Option<u64>, lba_ordered: bool) -> Vec<u64> {
        let mut out = Vec::new();
        c.destage_candidates(max_epoch, lba_ordered, None, usize::MAX, &mut out);
        out
    }

    fn resident_seqs(c: &WritebackCache) -> Vec<u64> {
        c.entries_in_order().map(|(seq, _)| seq).collect()
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = WritebackCache::new(8);
        c.insert(Lba(1), BlockTag(10), false);
        assert_eq!(c.lookup(Lba(1)), Some(BlockTag(10)));
        assert_eq!(c.lookup(Lba(2)), None);
        assert_eq!(c.len(), 1);
        assert!(!c.is_full());
    }

    #[test]
    fn barrier_advances_epoch_after_insert() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), true);
        assert_eq!(
            c.entry(s1).unwrap().epoch,
            0,
            "barrier write is in its own epoch"
        );
        assert_eq!(c.current_epoch(), 1);
        let s2 = c.insert(Lba(2), BlockTag(2), false);
        assert_eq!(c.entry(s2).unwrap().epoch, 1);
    }

    #[test]
    fn same_epoch_overwrite_coalesces() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), false);
        let s2 = c.insert(Lba(1), BlockTag(2), false);
        assert_eq!(s1, s2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(Lba(1)), Some(BlockTag(2)));
    }

    #[test]
    fn cross_epoch_overwrite_keeps_versions() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), true); // epoch 0, barrier
        let s2 = c.insert(Lba(1), BlockTag(2), false); // epoch 1
        assert_ne!(s1, s2);
        assert_eq!(c.len(), 2);
        // Reads see the newest version.
        assert_eq!(c.lookup(Lba(1)), Some(BlockTag(2)));
    }

    #[test]
    fn destaging_entry_does_not_coalesce() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), false);
        c.mark_destaging(s1).unwrap();
        let s2 = c.insert(Lba(1), BlockTag(2), false);
        assert_ne!(s1, s2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn candidates_respect_per_lba_order() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), true); // epoch 0
        let s2 = c.insert(Lba(1), BlockTag(2), false); // epoch 1, same LBA
        let s3 = c.insert(Lba(2), BlockTag(3), false); // epoch 1
        let cands = all_candidates(&c, None, true);
        assert_eq!(cands, vec![s1, s3], "second version of lba 1 must wait");
        // After the first version completes, the second becomes eligible.
        c.mark_destaging(s1).unwrap();
        c.complete(s1).unwrap();
        assert_eq!(all_candidates(&c, None, true), vec![s2, s3]);
    }

    #[test]
    fn candidates_respect_epoch_bound() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), true); // epoch 0
        let _s2 = c.insert(Lba(2), BlockTag(2), false); // epoch 1
        assert_eq!(all_candidates(&c, Some(0), true), vec![s1]);
        assert_eq!(c.min_pending_epoch(), Some(0));
    }

    #[test]
    fn complete_frees_capacity() {
        let mut c = WritebackCache::new(1);
        let s1 = c.insert(Lba(1), BlockTag(1), false);
        assert!(c.is_full());
        c.mark_destaging(s1).unwrap();
        let e = c.complete(s1).unwrap();
        assert_eq!(e.tag, BlockTag(1));
        assert!(c.is_empty());
        assert_eq!(c.lookup(Lba(1)), None);
    }

    #[test]
    fn complete_older_version_keeps_latest_lookup() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), true);
        let _s2 = c.insert(Lba(1), BlockTag(2), false);
        c.mark_destaging(s1).unwrap();
        c.complete(s1).unwrap();
        assert_eq!(c.lookup(Lba(1)), Some(BlockTag(2)));
    }

    #[test]
    fn resident_seqs_in_order() {
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), true);
        let s2 = c.insert(Lba(2), BlockTag(2), true);
        let s3 = c.insert(Lba(3), BlockTag(3), false);
        assert_eq!(resident_seqs(&c), vec![s1, s2, s3]);
        assert_eq!(c.dirty_count(), 3);
    }

    #[test]
    fn candidate_scan_stops_at_limit() {
        let mut c = WritebackCache::new(16);
        let seqs: Vec<u64> = (0..6)
            .map(|i| c.insert(Lba(i), BlockTag(i + 1), false))
            .collect();
        c.mark_destaging(seqs[0]).unwrap();
        let mut out = vec![99];
        c.destage_candidates(None, false, None, 2, &mut out);
        assert_eq!(
            out,
            vec![seqs[1], seqs[2]],
            "destaging entry skipped, buffer cleared"
        );
        c.destage_candidates(None, false, None, 0, &mut out);
        assert!(out.is_empty());
        c.destage_candidates(None, false, None, 100, &mut out);
        assert_eq!(out, seqs[1..]);
    }

    #[test]
    fn candidate_scan_applies_keep_before_limit() {
        let mut c = WritebackCache::new(16);
        let seqs: Vec<u64> = (0..6)
            .map(|i| c.insert(Lba(i), BlockTag(i + 1), false))
            .collect();
        let keep = RunSet::from_sorted([seqs[1], seqs[3], seqs[4]]);
        let mut out = Vec::new();
        c.destage_candidates(None, true, Some(&keep), 2, &mut out);
        assert_eq!(out, vec![seqs[1], seqs[3]]);
        c.destage_candidates(None, true, Some(&RunSet::new()), 2, &mut out);
        assert!(out.is_empty(), "an empty keep set admits nothing");
    }

    #[test]
    fn complete_unknown_is_reported_not_panicked() {
        let mut c = WritebackCache::new(4);
        assert_eq!(c.complete(99), Err(CacheError::UnknownSeq(99)));
        // A real entry completed twice: the duplicate is detected.
        let s = c.insert(Lba(1), BlockTag(1), false);
        c.mark_destaging(s).unwrap();
        assert!(c.complete(s).is_ok());
        assert_eq!(c.complete(s), Err(CacheError::UnknownSeq(s)));
        assert!(c.is_empty());
    }

    #[test]
    fn mark_destaging_errors_are_typed() {
        let mut c = WritebackCache::new(4);
        assert_eq!(c.mark_destaging(7), Err(CacheError::UnknownSeq(7)));
        let s = c.insert(Lba(1), BlockTag(1), false);
        c.mark_destaging(s).unwrap();
        assert_eq!(c.mark_destaging(s), Err(CacheError::AlreadyDestaging(s)));
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn newer_version_completion_rolls_chain_head_back() {
        // LFS-mode devices can complete a newer version before an older
        // one; the older version must then become the per-LBA head again
        // and a *new* insert must chain behind it.
        let mut c = WritebackCache::new(8);
        let s1 = c.insert(Lba(1), BlockTag(1), true); // epoch 0
        let s2 = c.insert(Lba(1), BlockTag(2), true); // epoch 1
        c.mark_destaging(s2).unwrap();
        c.complete(s2).unwrap();
        // Newest content left the cache: reads miss.
        assert_eq!(c.lookup(Lba(1)), None);
        let s3 = c.insert(Lba(1), BlockTag(3), false); // epoch 2
                                                       // s1 is still the oldest resident version, so with per-LBA
                                                       // ordering s3 must wait behind it.
        assert_eq!(all_candidates(&c, None, true), vec![s1]);
        assert_eq!(c.lookup(Lba(1)), Some(BlockTag(3)));
        c.mark_destaging(s1).unwrap();
        c.complete(s1).unwrap();
        assert_eq!(all_candidates(&c, None, true), vec![s3]);
    }
}
