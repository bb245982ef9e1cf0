//! Multi-tenant serving smoke: three analysts iterate **concurrently** as
//! named sessions over one shared engine, each applying a different typed
//! edit, while the engine's sharded store lets them reuse each other's
//! materialized intermediates and the atomic budget ledger keeps the
//! storage budget intact.
//!
//! CI runs this (at every parallelism matrix setting) as the runtime
//! proof that `Engine::run` really is `&self`: the three `iterate` calls
//! overlap in time on plain `std::thread` workers with no outer locking.
//!
//! ```text
//! cargo run --release --example multi_session
//! ```

use helix::core::ops::{EvalSpec, MetricKind, OperatorKind};
use helix::core::session::{LearnerParam, Session, SessionHandle, SessionManager};
use helix::core::{Engine, EngineConfig, Result};
use helix::workloads::census::{census_workflow, generate_census, CensusDataSpec, CensusParams};
use std::sync::Arc;

/// One analyst's script: a cold iteration, a typed edit, an edited rerun.
fn drive(session: &SessionHandle, edit: impl FnOnce(&mut Session) -> Result<()>) {
    let name = session.name();
    let first = session.iterate().expect("first iteration");
    session.with(edit).expect("edit");
    let second = session.iterate().expect("second iteration");
    println!("[{name}] iter 0: {}", first.summary());
    println!(
        "[{name}] iter 1: {}  (edit: {})",
        second.summary(),
        second.change_summary
    );
    assert!(
        first.metric("accuracy").is_some(),
        "{name} lost its metrics"
    );
}

fn main() {
    let dir = std::env::temp_dir().join("helix-multi-session-example");
    generate_census(
        &dir,
        &CensusDataSpec {
            train_rows: 3_000,
            test_rows: 800,
            ..Default::default()
        },
    )
    .expect("generate data");

    let _ = std::fs::remove_dir_all(dir.join("store"));
    let engine = Arc::new(Engine::new(EngineConfig::helix(dir.join("store"))).expect("engine"));
    let manager = SessionManager::new(Arc::clone(&engine));

    let params = CensusParams::initial(&dir);
    let workflow = || census_workflow(&params).expect("workflow");

    // Each analyst's second iteration applies a different typed edit.
    let alice = manager.create("alice", workflow()).expect("session");
    let bob = manager.create("bob", workflow()).expect("session");
    let carol = manager.create("carol", workflow()).expect("session");

    println!("driving 3 concurrent sessions over one shared engine…\n");
    std::thread::scope(|scope| {
        scope.spawn(|| {
            drive(&alice, |s| {
                s.set_learner_param("predictions", LearnerParam::RegParam(0.02))
            })
        });
        scope.spawn(|| {
            drive(&bob, |s| {
                s.set_learner_param("predictions", LearnerParam::Epochs(6))
            })
        });
        scope.spawn(|| {
            drive(&carol, |s| {
                s.replace_operator(
                    "checked",
                    OperatorKind::Evaluate(EvalSpec {
                        metrics: vec![MetricKind::F1, MetricKind::Accuracy],
                        split: helix::core::SPLIT_TEST.into(),
                    }),
                )
            })
        });
    });

    // A fourth analyst joining *after* the burst starts from a warm
    // store: the first iteration of the same program is nearly all loads.
    let dave = manager.create("dave", workflow()).expect("session");
    let warm = dave.iterate().expect("warm start");
    println!("\n[dave] warm first iteration: {}", warm.summary());
    assert!(
        warm.loaded() > 0,
        "a new session must reuse the intermediates its peers materialized"
    );

    let history = engine.with_versions(|v| v.len());
    assert_eq!(history, 7, "3 sessions × 2 iterations + dave's warm start");
    let used = engine.store().used_bytes();
    let budget = engine.store().budget_bytes();
    assert!(used <= budget, "budget violated: {used} > {budget}");
    println!(
        "\nglobal history: {history} versions from {} sessions; store {used} / {budget} bytes",
        manager.len()
    );
    println!("multi-session smoke OK");
}
