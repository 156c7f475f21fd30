//! Golden-output lock for the whole figure pipeline.
//!
//! `figures --all --scale 1 --seeds 2 --jobs 1` is compared byte-for-byte
//! against `golden/figures_all.txt`. Every simulated figure and table
//! flows through the cohort-drained `IoStack` driver, so any change to
//! event order, batching, or a layer's timing model shows up here, not
//! just in unit-level invariants. The fixture was captured while the
//! driver was still diffed against a one-event-per-visit run, which
//! produced identical bytes.

use std::process::Command;

#[test]
fn figures_all_matches_golden_output() {
    let args = ["--all", "--scale", "1", "--seeds", "2", "--jobs", "1"];
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs");
    assert!(
        out.status.success(),
        "figures {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(
        got,
        include_str!("golden/figures_all.txt"),
        "figures --all output drifted from the golden fixture"
    );
}
