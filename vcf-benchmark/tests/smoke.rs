//! Smoke test: every workload, end to end and traced, at 2^12 slots and
//! about a thousand frames, through the same code as a full run.

use vcf_benchmark::report::BenchSpec;
use vcf_benchmark::workload::{Plan, DEFAULT_SECONDS, WORKLOADS};

fn spec() -> BenchSpec {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    BenchSpec::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_lists_the_workloads_and_run_length() {
    let spec = spec();
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(spec.workloads, names);
    assert!((spec.run_seconds - DEFAULT_SECONDS).abs() < f64::EPSILON);
    assert!(spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn every_workload_emits_every_metric_and_passes_the_gate() {
    let spec = spec();
    let out_dir = std::env::temp_dir().join(format!("vcf-benchmark-smoke-{}", std::process::id()));
    for w in WORKLOADS {
        for (traced, listed) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let outcome = vcf_benchmark::run_workload(&Plan::smoke(w), 7, traced, &out_dir)
                .unwrap_or_else(|e| panic!("{} (traced {traced}) failed: {e}", w.name));
            assert!(
                outcome.correct(),
                "{} (traced {traced}): {:?}",
                w.name,
                outcome.checks
            );
            assert!(outcome.attempted > 0);
            let emitted: Vec<(&str, &str)> =
                outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let wanted: Vec<(&str, &str)> = listed
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect();
            assert_eq!(emitted, wanted, "{} (traced {traced})", w.name);
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
        }
        let spans = out_dir.join(format!("spans-{}-7.jsonl", w.name));
        let text = std::fs::read_to_string(&spans).expect("span file written");
        let first = text.lines().next().expect("at least one span");
        assert!(
            vcf_xtask::json::parse(first).is_ok(),
            "span line is JSON: {first}"
        );
        assert!(text.contains("\"kind\": \"shard\""));
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}
