//! Cross-crate integration tests: full workflows through the public API —
//! iteration scripts drive named [`Session`]s over shared engines.

use helix::baselines::SystemKind;
use helix::core::{
    Engine, EngineConfig, IterationReport, NodeState, Session, Workflow, SPLIT_TEST,
};
use helix::workloads::census::{
    census_iterations, census_workflow, generate_census, CensusDataSpec, CensusParams,
};
use helix::workloads::ie::{ie_iterations, ie_workflow, IeParams};
use helix::workloads::news::{generate_news, news_workflow, NewsDataSpec, NewsParams};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helix-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn census_full_iteration_script_runs_green() {
    let dir = tmpdir("census-script");
    generate_census(
        &dir,
        &CensusDataSpec {
            train_rows: 600,
            test_rows: 150,
            ..Default::default()
        },
    )
    .unwrap();
    let engine = SystemKind::Helix.build_shared(&dir.join("store")).unwrap();
    let mut params = CensusParams::initial(&dir);
    let mut session = Session::new(
        std::sync::Arc::clone(&engine),
        "census-script",
        census_workflow(&params).unwrap(),
    );
    let mut reports = vec![session.iterate().unwrap()];
    for spec in census_iterations() {
        (spec.apply)(&mut params);
        session.replace_workflow(census_workflow(&params).unwrap());
        reports.push(session.iterate().unwrap());
    }
    assert_eq!(engine.versions().len(), reports.len());
    assert_eq!(session.versions().len(), reports.len());
    // Every iteration after the first reuses something.
    for report in &reports[1..] {
        assert!(
            report.loaded() > 0 || report.pruned() > 0,
            "iteration {} reused nothing",
            report.iteration
        );
    }
    // Metrics exist on every run.
    assert!(reports.iter().all(|r| !r.metrics.is_empty()));
}

#[test]
fn ie_full_iteration_script_runs_green() {
    let dir = tmpdir("ie-script");
    generate_news(
        &dir,
        &NewsDataSpec {
            docs: 80,
            ..Default::default()
        },
    )
    .unwrap();
    let engine = SystemKind::Helix.build_shared(&dir.join("store")).unwrap();
    let mut params = IeParams::initial(&dir);
    let mut session = Session::new(engine, "ie-script", ie_workflow(&params).unwrap());
    session.iterate().unwrap();
    for spec in ie_iterations() {
        (spec.apply)(&mut params);
        session.replace_workflow(ie_workflow(&params).unwrap());
        let report = session.iterate().unwrap();
        assert!(report.metric("f1").is_some());
    }
}

/// The central correctness claim: reuse must never change results. Run the
/// same scripted edits under every system; metrics must be identical at
/// every step (modulo DeepDive's truncation).
#[test]
fn optimizations_never_change_results_census() {
    let dir = tmpdir("equivalence");
    generate_census(
        &dir,
        &CensusDataSpec {
            train_rows: 500,
            test_rows: 120,
            ..Default::default()
        },
    )
    .unwrap();
    let mut all_metrics: Vec<Vec<(String, f64)>> = Vec::new();
    for (k, system) in [
        SystemKind::Helix,
        SystemKind::KeystoneSim,
        SystemKind::HelixUnopt,
    ]
    .iter()
    .enumerate()
    {
        let engine = system.build_shared(&dir.join(format!("store{k}"))).unwrap();
        let mut params = CensusParams::initial(&dir);
        let mut session = Session::new(engine, system.label(), census_workflow(&params).unwrap());
        let mut metrics = session.iterate().unwrap().metrics;
        for spec in census_iterations() {
            (spec.apply)(&mut params);
            session.replace_workflow(census_workflow(&params).unwrap());
            metrics.extend(session.iterate().unwrap().metrics);
        }
        all_metrics.push(metrics);
    }
    assert_eq!(all_metrics[0], all_metrics[1], "Helix vs KeystoneML-sim");
    assert_eq!(all_metrics[0], all_metrics[2], "Helix vs unoptimized Helix");
}

/// Abandoning an edit and rolling back re-validates old materializations:
/// the rerun of version 1 after version 2 should be nearly all loads.
#[test]
fn rollback_reuses_old_materializations() {
    let dir = tmpdir("rollback");
    generate_census(
        &dir,
        &CensusDataSpec {
            train_rows: 500,
            test_rows: 120,
            ..Default::default()
        },
    )
    .unwrap();
    let engine = SystemKind::Helix.build_shared(&dir.join("store")).unwrap();
    let mut params = CensusParams::initial(&dir);
    let mut session = Session::new(engine, "rollback", census_workflow(&params).unwrap());
    session.iterate().unwrap();
    // Explore a branch…
    params.include_marital_status = true;
    session.replace_workflow(census_workflow(&params).unwrap());
    session.iterate().unwrap();
    // …then roll back.
    params.include_marital_status = false;
    session.replace_workflow(census_workflow(&params).unwrap());
    let rollback = session.iterate().unwrap();
    assert!(
        rollback.computed() <= 2,
        "rollback should reload almost everything, computed {}",
        rollback.computed()
    );
}

/// Killing the engine (dropping it) and reopening over the same store
/// directory keeps materializations usable — persistence across sessions.
#[test]
fn store_survives_engine_restart() {
    let dir = tmpdir("restart");
    generate_census(
        &dir,
        &CensusDataSpec {
            train_rows: 400,
            test_rows: 100,
            ..Default::default()
        },
    )
    .unwrap();
    let params = CensusParams::initial(&dir);
    let w = census_workflow(&params).unwrap();
    {
        let engine = SystemKind::Helix.build_engine(&dir.join("store")).unwrap();
        engine.run(&w).unwrap();
        assert!(!engine.store().is_empty());
    }
    let engine = SystemKind::Helix.build_engine(&dir.join("store")).unwrap();
    let report = engine.run(&w).unwrap();
    assert!(
        report.loaded() > 0,
        "fresh engine must reuse the persisted store"
    );
}

/// An evaluation-only change touches nothing upstream of the Reducer.
#[test]
fn eval_change_is_nearly_free() {
    let dir = tmpdir("evalfree");
    generate_census(
        &dir,
        &CensusDataSpec {
            train_rows: 500,
            test_rows: 120,
            ..Default::default()
        },
    )
    .unwrap();
    let engine = SystemKind::Helix.build_shared(&dir.join("store")).unwrap();
    let params = CensusParams::initial(&dir);
    let mut session = Session::new(engine, "eval-free", census_workflow(&params).unwrap());
    let first = session.iterate().unwrap();
    // The evaluation-only change through the typed handle: swap the
    // Reducer's metric set in place.
    session
        .replace_operator(
            "checked",
            helix::core::ops::OperatorKind::Evaluate(helix::core::ops::EvalSpec {
                metrics: vec![
                    helix::core::ops::MetricKind::Accuracy,
                    helix::core::ops::MetricKind::F1,
                ],
                split: SPLIT_TEST.into(),
            }),
        )
        .unwrap();
    let eval_iter = session.iterate().unwrap();
    // Only the Reducer recomputes; its input is loaded.
    let recomputed: Vec<&str> = eval_iter
        .nodes
        .iter()
        .filter(|n| n.state == NodeState::Compute)
        .map(|n| n.name.as_str())
        .collect();
    assert_eq!(recomputed, vec!["checked"], "recomputed: {recomputed:?}");
    assert!(
        eval_iter.total_secs < first.total_secs / 2.0,
        "eval-only iteration ({:.3}s) should be far below the initial ({:.3}s)",
        eval_iter.total_secs,
        first.total_secs
    );
}

/// The split column survives the whole pipeline: predictions evaluated on
/// the test split only.
#[test]
fn evaluation_uses_test_split() {
    let dir = tmpdir("split");
    // Train is separable, test is label-flipped: test accuracy must be 0.
    std::fs::write(dir.join("train.csv"), "a,1\nb,0\n".repeat(50)).unwrap();
    std::fs::write(dir.join("test.csv"), "a,0\nb,1\n".repeat(10)).unwrap();
    let mut w = helix::core::Workflow::new("split-check");
    let data = w
        .csv_source("data", dir.join("train.csv"), Some(dir.join("test.csv")))
        .unwrap();
    let rows = w
        .csv_scanner(
            "rows",
            &data,
            &[
                ("x", helix::dataflow::DataType::Str),
                ("y", helix::dataflow::DataType::Int),
            ],
        )
        .unwrap();
    let x = w
        .field_extractor(
            "x",
            &rows,
            "x",
            helix::core::ops::ExtractorKind::Categorical,
        )
        .unwrap();
    let y = w
        .field_extractor("y", &rows, "y", helix::core::ops::ExtractorKind::Numeric)
        .unwrap();
    let examples = w.assemble("examples", &rows, &[&x], &y).unwrap();
    let preds = w.learner("preds", &examples, Default::default()).unwrap();
    let checked = w
        .evaluate(
            "checked",
            &preds,
            helix::core::ops::EvalSpec {
                metrics: vec![helix::core::ops::MetricKind::Accuracy],
                split: SPLIT_TEST.into(),
            },
        )
        .unwrap();
    w.output(&checked);
    let engine = SystemKind::Helix.build_engine(&dir.join("store")).unwrap();
    let report = engine.run(&w).unwrap();
    assert_eq!(
        report.metric("accuracy"),
        Some(0.0),
        "flipped test labels ⇒ 0 accuracy"
    );
}

// --- Cross-workload parallel/sequential equivalence ------------------------

/// Runs `build(iteration)` workflows through four fresh engines — the
/// deterministic materialize-`All` policy and the Helix online policy,
/// each at 1 thread and at `threads` — for two iterations.
///
/// Under `All`, every decision is timing-independent, so the harness
/// asserts **strict** equality of loaded/computed/pruned counts, the full
/// per-node materialization set, and metrics — pinning down exactly what
/// the parallel scheduler changed (execution) with nothing else varying.
/// Under the Helix online policy, per-node materialization of
/// microsecond-scale nodes is decided by measured wall times (two
/// sequential runs flip those too), so the harness asserts the semantic
/// guarantees: identical metrics every iteration and reuse on the second.
///
/// Returns the second-iteration Helix-policy `(sequential, parallel)`
/// reports.
fn assert_parallel_equivalence(
    tag: &str,
    threads: usize,
    mut build: impl FnMut(usize) -> Workflow,
) -> (IterationReport, IterationReport) {
    let dir = tmpdir(tag);
    let all_config = |suffix: &str, threads: usize| {
        let mut config = EngineConfig::helix(dir.join(suffix)).with_parallelism(threads);
        config.materialization = helix::core::MaterializationPolicyKind::All;
        config
    };
    let all_seq = Engine::new(all_config("store-all-seq", 1)).unwrap();
    let all_par = Engine::new(all_config("store-all-par", threads)).unwrap();
    let seq = Engine::new(EngineConfig::helix(dir.join("store-seq")).with_parallelism(1)).unwrap();
    let par =
        Engine::new(EngineConfig::helix(dir.join("store-par")).with_parallelism(threads)).unwrap();

    let mut last = None;
    for iteration in 0..2 {
        let w = build(iteration);

        // Deterministic-policy pair: everything must match exactly.
        let a = all_seq.run(&w).unwrap();
        let b = all_par.run(&w).unwrap();
        assert_eq!(
            a.loaded(),
            b.loaded(),
            "{tag}[all] iter {iteration}: loaded"
        );
        assert_eq!(
            a.computed(),
            b.computed(),
            "{tag}[all] iter {iteration}: computed"
        );
        assert_eq!(
            a.pruned(),
            b.pruned(),
            "{tag}[all] iter {iteration}: pruned"
        );
        assert_eq!(a.metrics, b.metrics, "{tag}[all] iter {iteration}: metrics");
        let materialized = |r: &IterationReport| -> Vec<String> {
            r.nodes
                .iter()
                .filter(|n| n.materialized)
                .map(|n| n.name.clone())
                .collect()
        };
        assert_eq!(
            materialized(&a),
            materialized(&b),
            "{tag}[all] iter {iteration}: materialization set"
        );

        // Helix-online pair: results must be identical; reuse must work
        // at both thread counts.
        let ha = seq.run(&w).unwrap();
        let hb = par.run(&w).unwrap();
        assert_eq!(ha.metrics, hb.metrics, "{tag} iter {iteration}: metrics");
        assert_eq!(
            ha.metrics, a.metrics,
            "{tag} iter {iteration}: online vs All policy metrics"
        );
        if iteration > 0 {
            assert!(ha.loaded() > 0, "{tag}: sequential reuse");
            assert!(hb.loaded() > 0, "{tag}: parallel reuse");
        }
        last = Some((ha, hb));
    }
    last.unwrap()
}

#[test]
fn census_parallel_matches_sequential_and_reuses() {
    let dir = tmpdir("par-census-data");
    generate_census(
        &dir,
        &CensusDataSpec {
            train_rows: 600,
            test_rows: 150,
            ..Default::default()
        },
    )
    .unwrap();
    let mut params = CensusParams::initial(&dir);
    params.include_marital_status = true;
    params.include_interaction = true;
    let (seq, par) = assert_parallel_equivalence("par-census", 4, |iteration| {
        // Second iteration: an ML-only change, so pre-processing reloads.
        params.reg_param = if iteration == 0 { 0.1 } else { 0.01 };
        census_workflow(&params).unwrap()
    });
    assert!(seq.loaded() > 0, "second census iteration must reuse");
    assert_eq!(seq.loaded(), par.loaded());
    assert!(par.exec_secs() > 0.0);
}

#[test]
fn news_parallel_matches_sequential_and_reuses() {
    let dir = tmpdir("par-news-data");
    // Large enough that feature extraction clearly out-costs store I/O;
    // smaller corpora put materialization decisions inside timing noise
    // and the seq/par materialization sets can drift apart.
    generate_news(
        &dir,
        &NewsDataSpec {
            docs: 500,
            ..Default::default()
        },
    )
    .unwrap();
    let mut params = NewsParams::initial(&dir);
    let (seq, _par) = assert_parallel_equivalence("par-news", 4, |iteration| {
        params.reg_param = if iteration == 0 { 0.1 } else { 0.01 };
        news_workflow(&params).unwrap()
    });
    assert!(seq.loaded() > 0, "second news iteration must reuse");
}

#[test]
fn ie_parallel_matches_sequential_and_reuses() {
    let dir = tmpdir("par-ie-data");
    generate_news(
        &dir,
        &NewsDataSpec {
            docs: 150,
            ..Default::default()
        },
    )
    .unwrap();
    let mut params = IeParams::initial(&dir);
    params.feat_context = true;
    params.feat_gazetteer = true;
    let (seq, _par) = assert_parallel_equivalence("par-ie", 4, |iteration| {
        params.reg_param = if iteration == 0 { 0.1 } else { 0.01 };
        ie_workflow(&params).unwrap()
    });
    assert!(seq.loaded() > 0, "second IE iteration must reuse");
}
