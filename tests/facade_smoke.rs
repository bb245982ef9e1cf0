//! Workspace smoke test: every `helix::*` facade re-export resolves, and a
//! trivial workflow compiles and runs end-to-end through the public API.
//!
//! This is the canary CI relies on to catch facade wiring regressions
//! (a crate dropped from the root manifest, a renamed re-export) before
//! anything subtler runs.

use helix::core::ops::{EvalSpec, ExtractorKind, LearnerSpec, MetricKind};
use helix::core::session::{LearnerParam, SessionManager};
use helix::core::{Engine, EngineConfig, Workflow, SPLIT_TEST};
use helix::dataflow::{DataType, Value};
use helix::mincut::{Project, ProjectSelection};
use helix::ml::SparseVector;
use std::sync::Arc;

#[test]
fn every_facade_module_resolves() {
    // One concrete item per re-exported subsystem; the function body is the
    // assertion (it only compiles if every path resolves).
    let _ = helix::baselines::SystemKind::Helix;
    let _ = helix::core::recompute::NodeState::Compute;
    let _ = helix::core::LearnerParam::RegParam(0.1);
    let _ = helix::core::session::WorkflowEdit::AddOutput { node: "x".into() };
    let _ = helix::dataflow::Value::Int(1);
    let _ = helix::mincut::CAP_INF;
    let _ = SparseVector::default();
    let _ = helix::nlp::tokenize("Helix accelerates iteration.");
    let _ = helix::workloads::IterationStage::MachineLearning;
    assert_eq!(Value::Int(1).as_int(), Some(1));
}

#[test]
fn mincut_facade_solves_a_tiny_instance() {
    let mut psp = ProjectSelection::new();
    let gain = psp.add_project(Project::new(5));
    let cost = psp.add_project(Project::new(-2));
    psp.require(gain, cost);
    let result = psp.solve();
    assert!(result.selected[gain] && result.selected[cost]);
    assert_eq!(result.profit, 3);
}

#[test]
fn trivial_workflow_runs_end_to_end_and_reuses() {
    let dir = std::env::temp_dir().join(format!("helix-facade-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Big enough that recomputing the pipeline clearly costs more than
    // loading materialized results; at tens of rows the margin is within
    // scheduler noise and the reuse assertion below gets flaky.
    std::fs::write(dir.join("train.csv"), "hi,1\nlo,0\n".repeat(2_000)).unwrap();
    std::fs::write(dir.join("test.csv"), "hi,1\nlo,0\n".repeat(400)).unwrap();

    let mut w = Workflow::new("facade-smoke");
    let data = w
        .csv_source("data", dir.join("train.csv"), Some(dir.join("test.csv")))
        .unwrap();
    let rows = w
        .csv_scanner(
            "rows",
            &data,
            &[("grade", DataType::Str), ("target", DataType::Int)],
        )
        .unwrap();
    let grade = w
        .field_extractor("grade_f", &rows, "grade", ExtractorKind::Categorical)
        .unwrap();
    let target = w
        .field_extractor("target_f", &rows, "target", ExtractorKind::Numeric)
        .unwrap();
    let income = w.assemble("examples", &rows, &[&grade], &target).unwrap();
    let preds = w
        .learner("predictions", &income, LearnerSpec::default())
        .unwrap();
    let checked = w
        .evaluate(
            "checked",
            &preds,
            EvalSpec {
                metrics: vec![MetricKind::Accuracy],
                split: SPLIT_TEST.into(),
            },
        )
        .unwrap();
    w.output(&preds);
    w.output(&checked);

    let engine = Arc::new(Engine::new(EngineConfig::helix(dir.join("store"))).unwrap());
    let manager = SessionManager::new(engine);
    let session = manager.create("smoke", w).unwrap();
    let first = session.iterate().unwrap();
    assert_eq!(first.metric("accuracy"), Some(1.0), "separable toy data");

    let second = session.iterate().unwrap();
    assert_eq!(second.metric("accuracy"), Some(1.0));
    assert!(second.loaded() > 0, "rerun must reuse materialized results");

    // The typed edit handle works through the facade too.
    session
        .with(|s| s.set_learner_param("predictions", LearnerParam::RegParam(0.01)))
        .unwrap();
    let third = session.iterate().unwrap();
    assert_eq!(third.change_summary, "set predictions reg_param=0.01");

    let _ = std::fs::remove_dir_all(&dir);
}
