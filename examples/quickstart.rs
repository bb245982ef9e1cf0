//! Quickstart: open a session on a shared engine, run the workflow, turn
//! one typed knob, run again, and watch Helix reuse everything the change
//! did not touch.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use helix::core::ops::{EvalSpec, ExtractorKind, LearnerSpec, MetricKind};
use helix::core::session::{LearnerParam, SessionManager};
use helix::core::workflow::Workflow;
use helix::core::{Engine, EngineConfig};
use std::sync::Arc;

fn build_workflow(dir: &std::path::Path, reg_param: f64) -> Workflow {
    use helix::dataflow::DataType;
    let mut w = Workflow::new("quickstart");
    // data refers_to FileSource(train, test)
    let data = w
        .csv_source("data", dir.join("train.csv"), Some(dir.join("test.csv")))
        .expect("source");
    // data is_read_into rows using CSVScanner(...)
    let rows = w
        .csv_scanner(
            "rows",
            &data,
            &[
                ("color", DataType::Str),
                ("size", DataType::Int),
                ("target", DataType::Int),
            ],
        )
        .expect("scanner");
    let color = w
        .field_extractor("color", &rows, "color", ExtractorKind::Categorical)
        .unwrap();
    let size = w
        .field_extractor("size", &rows, "size", ExtractorKind::Numeric)
        .unwrap();
    let size_bucket = w.bucketizer("sizeBucket", &size, 4).unwrap();
    let target = w
        .field_extractor("target", &rows, "target", ExtractorKind::Numeric)
        .unwrap();
    // examples results_from rows with_labels target
    let examples = w
        .assemble("examples", &rows, &[&color, &size_bucket], &target)
        .unwrap();
    // predictions results_from Learner(logreg, regParam) on examples
    let predictions = w
        .learner(
            "predictions",
            &examples,
            LearnerSpec {
                reg_param,
                ..Default::default()
            },
        )
        .unwrap();
    let checked = w
        .evaluate(
            "checked",
            &predictions,
            EvalSpec {
                metrics: vec![MetricKind::Accuracy, MetricKind::F1],
                ..Default::default()
            },
        )
        .unwrap();
    w.output(&predictions);
    w.output(&checked);
    w
}

fn main() {
    // Tiny synthetic dataset: red things are positive.
    let dir = std::env::temp_dir().join("helix-quickstart");
    std::fs::create_dir_all(&dir).unwrap();
    let mut train = String::new();
    let mut test = String::new();
    for i in 0..600 {
        let (color, label) = if i % 2 == 0 { ("red", 1) } else { ("blue", 0) };
        let line = format!("{color},{},{label}\n", i % 50);
        if i < 500 {
            train.push_str(&line);
        } else {
            test.push_str(&line);
        }
    }
    std::fs::write(dir.join("train.csv"), train).unwrap();
    std::fs::write(dir.join("test.csv"), test).unwrap();

    let _ = std::fs::remove_dir_all(dir.join("store"));
    // One shared engine (any number of sessions could run over it — see
    // examples/multi_session.rs); one named session for this analyst.
    let engine = Arc::new(Engine::new(EngineConfig::helix(dir.join("store"))).expect("engine"));
    let manager = SessionManager::new(engine);
    let session = manager
        .create("analyst", build_workflow(&dir, 0.1))
        .expect("session");

    println!("--- iteration 0: initial version ---");
    let report = session.iterate().expect("run");
    println!("{}", report.summary());
    println!("accuracy = {:?}\n", report.metric("accuracy"));

    println!("--- iteration 1: change regularization (ML-only change) ---");
    // The human-in-the-loop edit is one typed knob turn on the live
    // workflow — no rebuilding, and the version history records the edit.
    session
        .with(|s| s.set_learner_param("predictions", LearnerParam::RegParam(0.01)))
        .expect("edit");
    let report = session.iterate().expect("run");
    println!("{}", report.summary());
    for node in &report.nodes {
        println!(
            "  {:<18} {:?}{}",
            node.name,
            node.state,
            if node.materialized { "  [→disk]" } else { "" }
        );
    }
    println!(
        "\nNote: pre-processing nodes were loaded or pruned — only the model\n\
         retrained, exactly the behaviour the Helix paper promises for\n\
         \"changing the regularization parameter\" (§1)."
    );

    println!("\n--- iteration 2: identical rerun (everything reused) ---");
    let report = session.iterate().expect("run");
    println!("{}", report.summary());
    println!(
        "\nVersion history:\n{}",
        session.with(|s| helix::core::viz::version_log(s.versions()))
    );
}
