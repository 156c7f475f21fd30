//! Property test locking the run-based `DirtyTracker` to a per-block
//! `BTreeMap` model.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The run-based dirty tracker agrees with a per-block `BTreeMap`
    /// model over random insert/overwrite/budgeted-take/drain workloads.
    #[test]
    fn dirty_tracker_matches_btreemap_model(
        ops in prop::collection::vec((0u8..6, 0u64..48, 0u64..16), 1..120)
    ) {
        use bio_fs::DirtyTracker;
        use bio_flash::BlockTag;
        use std::collections::BTreeMap;

        let mut dense = DirtyTracker::new();
        let mut model: BTreeMap<u64, BlockTag> = BTreeMap::new();
        let mut tag = 1u64;
        for (op, block, n) in ops {
            match op {
                // Inserts dominate so runs form and merge.
                0..=3 => {
                    let newly = dense.insert(block, BlockTag(tag));
                    let model_newly = model.insert(block, BlockTag(tag)).is_none();
                    prop_assert_eq!(newly, model_newly, "insert disagreement at {}", block);
                    tag += 1;
                }
                4 => {
                    let taken = dense.take_blocks(n as usize);
                    let keys: Vec<u64> = model.keys().copied().take(n as usize).collect();
                    let expect: Vec<(u64, BlockTag)> = keys
                        .iter()
                        .filter_map(|b| model.remove(b).map(|t| (*b, t)))
                        .collect();
                    prop_assert_eq!(&taken, &expect, "budgeted take diverges");
                }
                _ => {
                    let runs = dense.take_runs();
                    let flat: Vec<(u64, BlockTag)> = runs
                        .iter()
                        .flat_map(|(s, tags)| {
                            tags.iter().enumerate().map(move |(i, t)| (s + i as u64, *t))
                        })
                        .collect();
                    let expect: Vec<(u64, BlockTag)> =
                        model.iter().map(|(&b, &t)| (b, t)).collect();
                    model.clear();
                    prop_assert_eq!(&flat, &expect, "full drain diverges");
                    // Runs must be maximal: consecutive runs never touch.
                    for w in runs.windows(2) {
                        prop_assert!(
                            (w[0].0 + w[0].1.len() as u64) < w[1].0,
                            "adjacent runs were not merged"
                        );
                    }
                }
            }
            prop_assert_eq!(dense.len(), model.len());
            prop_assert_eq!(dense.is_empty(), model.is_empty());
            let dense_all: Vec<(u64, BlockTag)> = dense.iter().collect();
            let model_all: Vec<(u64, BlockTag)> = model.iter().map(|(&b, &t)| (b, t)).collect();
            prop_assert_eq!(dense_all, model_all, "iteration order diverges");
            for b in 0..50u64 {
                prop_assert_eq!(dense.tag_at(b), model.get(&b).copied());
                prop_assert_eq!(dense.contains(b), model.contains_key(&b));
            }
        }
    }
}
