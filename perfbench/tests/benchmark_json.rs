//! `BENCHMARK.json` at the repository root lists exactly the metrics the
//! benchmark reports, with the same units.

use gnr_num::json::Json;
use gnr_num::telemetry::Telemetry;
use gnrlab_perfbench::trace::Span;
use gnrlab_perfbench::{RunConfig, TracedPass, WorkloadRun};

fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn reported(run: &WorkloadRun, traced: bool) -> Vec<(String, String)> {
    let ms = if traced {
        run.per_layer()
    } else {
        run.end_to_end()
    };
    ms.into_iter()
        .map(|m| (m.name, m.unit.to_string()))
        .collect()
}

#[test]
fn metric_lists_match_the_report() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let root = Span {
        id: 0,
        parent: None,
        name: "pass",
        start_ns: 0,
        end_ns: 1,
    };
    let run = WorkloadRun {
        config: RunConfig {
            workload: "deck_logic".into(),
            seed: 1,
            seconds: 1.0,
            traced: true,
            threads: 1,
        },
        setup_s: vec![1.0],
        pass_wall_s: vec![1.0],
        pass_units_ok: vec![1],
        attempted: 1,
        failed: 0,
        drift: 0.0,
        failures: Vec::new(),
        peak_rss_mb: 1.0,
        kernel_start_ms: 1.0,
        kernel_end_ms: 1.0,
        traced: Some(TracedPass {
            wall_s: 1.0,
            spans: vec![root.clone()],
            pass_spans: Vec::new(),
            root,
            telemetry: Telemetry::isolated().snapshot(),
        }),
        digest: Vec::new(),
    };
    assert_eq!(listed(&doc, "end_to_end"), reported(&run, false));
    assert_eq!(listed(&doc, "per_layer"), reported(&run, true));
}
