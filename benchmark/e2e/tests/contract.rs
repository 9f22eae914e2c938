//! `BENCHMARK.json` and the code that implements it say the same thing.

use e2e::json::Json;
use e2e::run::{END_TO_END, HOST_LAYER, RUN_SECONDS};
use e2e::workloads::WORKLOADS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn strings<'a>(items: &'a Json, key: &str) -> Vec<&'a str> {
    let items = items.as_arr().expect("an array");
    items
        .iter()
        .map(|i| i.get(key).and_then(Json::as_str).expect(key))
        .collect()
}

#[test]
fn the_contract_file_has_exactly_its_six_keys() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS)
    );
    let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
    assert_eq!(paths, [Json::str("benchmark")]);
}

#[test]
fn workloads_match_the_table() {
    let doc = benchmark_json();
    let listed = doc.get("workloads").unwrap();
    let table: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(strings(listed, "name"), table);
    let whys: Vec<&str> = WORKLOADS.iter().map(|w| w.why).collect();
    assert_eq!(strings(listed, "why"), whys);
}

#[test]
fn end_to_end_metrics_match_names_units_directions_and_bounds() {
    let doc = benchmark_json();
    let listed = doc.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(listed.len(), END_TO_END.len());
    for (m, &(name, unit, better, bound)) in listed.iter().zip(&END_TO_END) {
        assert_eq!(m.get("name").and_then(Json::as_str), Some(name));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        assert_eq!(m.get("better").and_then(Json::as_str), Some(better));
        assert_eq!(m.get("bound").and_then(Json::as_f64), Some(bound));
        assert!(bound <= 0.25);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
}

#[test]
fn per_layer_metrics_start_with_the_drivers_own() {
    let doc = benchmark_json();
    let listed = doc.get("per_layer").unwrap();
    let names = strings(listed, "name");
    let units = strings(listed, "unit");
    assert!(names.len() <= 128);
    for (i, &(name, unit)) in HOST_LAYER.iter().enumerate() {
        assert_eq!((names[i], units[i]), (name, unit));
    }
}
