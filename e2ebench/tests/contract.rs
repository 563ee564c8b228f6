//! The metric lists the program emits match `BENCHMARK.json`, name for
//! name and unit for unit, and the workloads match too.

use x2v_e2ebench::{Workload, END_TO_END, PER_LAYER};
use x2v_prof::json::JsonValue;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
}

#[test]
fn workloads_match_benchmark_json() {
    let doc = benchmark_json();
    let names: Vec<String> = listed(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}
