//! `BENCHMARK.json` names exactly the workloads and metrics the binary
//! prints, each within the result charset.

use archgraph_perfbench::stats::{valid_name, valid_unit};
use archgraph_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use archgraphd::json::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn metrics(j: &Json, key: &str) -> Vec<(String, String)> {
    j.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn manifest_lists_what_the_binary_prints() {
    let j = manifest();
    assert_eq!(metrics(&j, "end_to_end"), owned(END_TO_END));
    assert_eq!(metrics(&j, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = j
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_name_and_unit_is_in_the_charset() {
    let j = manifest();
    let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_unit(unit), "{unit}");
        names.push(name.to_string());
    }
    for n in &names {
        assert!(valid_name(n), "{n}");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    let setup = j
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
}
