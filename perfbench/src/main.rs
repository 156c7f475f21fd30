//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload durable --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a human-readable report, then one JSON result line. With
//! `--trace 1` the metrics are the per-layer ones and the host-time spans
//! are written to `perfbench/out/spans-<workload>-seed<seed>.json`.
//! `--workload all` runs the four workloads one after another in this
//! process; its last line sums them, with metrics keyed
//! `<workload>/<metric>`.

use std::process::ExitCode;

use perfbench::alloc::{self, CountingAlloc};
use perfbench::bench::{install_panic_hook, result_json, run, Options};
use perfbench::cells::WorkloadKind;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <durable|ordered|crash_enum|device_fill|all> \
[--seed N] [--seconds S] [--trace 0|1]";

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

fn parse(args: &[String]) -> Result<(Options, Vec<WorkloadKind>), String> {
    let mut opts = Options {
        workload: WorkloadKind::Durable,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(match v.as_str() {
                    "all" => WorkloadKind::ALL.to_vec(),
                    _ => vec![WorkloadKind::parse(v).ok_or(format!("unknown workload {v}"))?],
                });
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workloads = workload.ok_or("--workload is required")?;
    Ok((opts, workloads))
}

/// Writes a traced run's span file; returns its path.
fn write_spans(opts: &Options, spans: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::create_dir_all(&dir)?;
    std::fs::write(&path, spans)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut opts, workloads) = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = alloc::self_test() {
        eprintln!("{e}");
        return ExitCode::from(1);
    }
    install_panic_hook();
    let mut results = Vec::new();
    for &w in &workloads {
        opts.workload = w;
        let outcome = run(&opts);
        for line in &outcome.lines {
            println!("{line}");
        }
        if let Some(spans) = &outcome.spans {
            match write_spans(&opts, spans) {
                Ok(path) => println!(
                    "span file: {} (open in https://ui.perfetto.dev)",
                    path.display()
                ),
                Err(e) => {
                    eprintln!("cannot write the span file: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        if workloads.len() > 1 {
            println!("result {}: {}", w.name(), outcome.json());
        }
        results.push((w, outcome));
    }
    match results.as_slice() {
        [(_, only)] => println!("{}", only.json()),
        all => {
            let metrics = all.iter().flat_map(|(w, o)| {
                o.metrics
                    .iter()
                    .map(move |x| (format!("{}/{}", w.name(), x.name), x))
            });
            println!(
                "{}",
                result_json(
                    all.iter().all(|(_, o)| o.correct),
                    all.iter().map(|(_, o)| o.attempted).sum(),
                    all.iter().map(|(_, o)| o.failed).sum(),
                    metrics,
                )
            );
        }
    }
    ExitCode::SUCCESS
}
