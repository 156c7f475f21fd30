//! The metrics the benchmark prints are exactly the ones `BENCHMARK.json`
//! declares, with the same units.

use perfbench::bench::{e2e_metric_units, layer_metric_units};

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..text[start..].find(']').map(|i| start + i).unwrap()];
    let field = |entry: &str, key: &str| -> String {
        let k = format!("\"{key}\": \"");
        let i = entry.find(&k).unwrap_or_else(|| panic!("{key} in {entry}")) + k.len();
        entry[i..i + entry[i..].find('"').unwrap()].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn owned(v: Vec<(&str, &str)>) -> Vec<(String, String)> {
    v.into_iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect()
}

#[test]
fn end_to_end_metrics_match_the_declaration() {
    assert_eq!(owned(e2e_metric_units()), declared("end_to_end"));
}

#[test]
fn per_layer_metrics_match_the_declaration() {
    assert_eq!(owned(layer_metric_units()), declared("per_layer"));
}
