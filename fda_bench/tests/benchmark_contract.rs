//! Contract between `BENCHMARK.json` and the `fda_bench` binary: the names,
//! units, directions and bounds the file declares are the ones the binary
//! reports under, every declared metric is printed for every workload, and
//! the caps of the benchmark contract hold.
//!
//! Runs the real binary in `--smoke` mode (tiny rep counts; the numbers
//! mean nothing, the shape of the output does).

use fda_obs::Json;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_fda_bench");

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    fda_obs::json::parse(&text).expect("BENCHMARK.json parses")
}

fn stdout_of(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN)
        // Keep the traced runs' files out of the source tree.
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .args(args)
        .output()
        .expect("spawn fda_bench");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is an array"))
}

fn text<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is a string in {item}"))
}

fn well_formed_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_matches_the_binary_spec() {
    let file = benchmark_json();
    let (ok, out) = stdout_of(&["spec"]);
    assert!(ok);
    let spec = fda_obs::json::parse(out.trim()).expect("spec parses");

    let declared: Vec<&str> = items(&file, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let reported: Vec<&str> = items(&spec, "workloads")
        .iter()
        .map(|w| w.as_str().expect("workload name"))
        .collect();
    assert_eq!(declared, reported, "workload names");
    assert!((2..=8).contains(&declared.len()));
    for w in items(&file, "workloads") {
        assert!(text(w, "why").len() <= 200 && !text(w, "why").contains('\n'));
    }

    let e2e_names: Vec<&str> = items(&spec, "end_to_end")
        .iter()
        .map(|m| text(m, "name"))
        .collect();
    for key in ["end_to_end", "per_layer"] {
        let (file_items, spec_items) = (items(&file, key), items(&spec, key));
        assert_eq!(file_items.len(), spec_items.len(), "{key} count");
        for (f, s) in file_items.iter().zip(spec_items) {
            for field in ["name", "unit", "better"] {
                assert_eq!(text(f, field), text(s, field), "{key} {field}");
            }
            assert!(well_formed_name(text(f, "name")), "{}", text(f, "name"));
            assert!(["higher", "lower"].contains(&text(f, "better")));
            let unit = text(f, "unit");
            assert!(unit.len() <= 16 && !unit.is_empty(), "unit {unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            if key == "end_to_end" {
                let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("bound");
                assert_eq!(bound(f), bound(s), "bound of {}", text(f, "name"));
                assert!(bound(f) > 0.0 && bound(f) <= 0.25);
            } else {
                // What the layer metric should move, and where.
                let moves = text(s, "moves");
                assert!(
                    moves == "none" || e2e_names.contains(&moves),
                    "{} moves unknown metric {moves}",
                    text(s, "name")
                );
                for on in text(s, "on").split(',') {
                    assert!(
                        ["all", "none"].contains(&on) || declared.contains(&on),
                        "{} names unknown workload {on}",
                        text(s, "name")
                    );
                }
            }
        }
    }
    assert!((1..=16).contains(&items(&file, "end_to_end").len()));
    assert!((1..=128).contains(&items(&file, "per_layer").len()));
    assert!(e2e_names.contains(&"setup_s"));

    let mut all_names: Vec<&str> = declared.clone();
    all_names.extend(e2e_names);
    all_names.extend(items(&file, "per_layer").iter().map(|m| text(m, "name")));
    let total = all_names.len();
    all_names.sort_unstable();
    all_names.dedup();
    assert_eq!(all_names.len(), total, "a name is used once");
}

#[test]
fn smoke_suite_prints_every_declared_metric_with_its_unit() {
    let file = benchmark_json();
    let (ok, out) = stdout_of(&["all", "--smoke", "--seed", "3"]);
    let mut lines = out.lines().rev();
    let summary_line = lines.next().expect("summary line");
    assert!(ok, "smoke suite failed: {summary_line}");
    let summary = fda_obs::json::parse(summary_line).expect("summary");
    let doc = fda_obs::json::parse(lines.next().expect("document line")).expect("document");

    // The closing line says what ran and whether it was right — nothing else.
    let keys: Vec<&str> = summary
        .as_obj()
        .expect("summary object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["summary", "workloads", "correct", "attempted", "failed"]
    );
    assert_eq!(summary.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(summary.get("failed").and_then(Json::as_u64), Some(0));
    assert!(summary.get("attempted").and_then(Json::as_u64) >= Some(1));

    for w in items(&file, "workloads") {
        let name = text(w, "name");
        let got = doc
            .get("workloads")
            .and_then(|ws| ws.get(name))
            .unwrap_or_else(|| panic!("workload {name} missing"));
        assert_eq!(
            got.get("correct").and_then(Json::as_bool),
            Some(true),
            "{name}"
        );
        for key in ["end_to_end", "per_layer"] {
            let printed = got.get(key).and_then(Json::as_obj).expect("metric object");
            assert_eq!(printed.len(), items(&file, key).len(), "{name} {key}");
            for m in items(&file, key) {
                let entry = got
                    .get(key)
                    .and_then(|ms| ms.get(text(m, "name")))
                    .unwrap_or_else(|| panic!("{name}: {} missing", text(m, "name")));
                assert_eq!(
                    text(entry, "unit"),
                    text(m, "unit"),
                    "{name} {}",
                    text(m, "name")
                );
                let value = entry.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{name}: {} = {entry}",
                    text(m, "name")
                );
            }
        }
        // The span file the traced run says it wrote exists and is JSONL.
        let trace = std::fs::read_to_string(text(got, "trace_file")).expect("trace file");
        let first = fda_obs::json::parse(trace.lines().next().expect("a span")).expect("span");
        for field in ["id", "parent", "name", "workload", "start_ns", "end_ns"] {
            assert!(first.get(field).is_some(), "span field {field}");
        }
    }
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        &["run", "--workload", "no-such-workload", "--seed", "1"][..],
        &["run", "--seed", "1"],
        &["frobnicate"],
    ] {
        let (ok, out) = stdout_of(args);
        assert!(!ok, "{args:?} should fail");
        assert!(out.is_empty(), "{args:?} printed {out}");
    }
}
