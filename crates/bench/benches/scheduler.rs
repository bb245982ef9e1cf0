//! Scheduler speedup and executor comparison on the census and NLP
//! (IE + news) workloads.
//!
//! Four groups:
//!
//! * `scheduler_first_iteration` — full-engine first iterations at 1
//!   thread vs N threads. The first iteration computes every node, so it
//!   carries the full inter-operator parallelism of each DAG: census fans
//!   one scan into the extractor set, IE runs five independent feature
//!   UDFs over one candidate collection, and the news classifier is a
//!   pure extractor fan-out.
//! * `scheduler_scaled` — the same three workloads on the parameterized
//!   scaled generators (`CensusDataSpec::scaled` / `NewsDataSpec::scaled`)
//!   with operator partitioning engaged, measuring the
//!   sequential/parallel crossover documented in docs/PERFORMANCE.md. The
//!   CI regression gate (`bench_guard --compare`) asserts Nthr ≤ 1thr for
//!   the heavy-per-row workloads (`ie`, `news`) here.
//! * `scheduler_executor` — `execute_plan` at parallelism 1 (`seq`, the
//!   sequential loop) vs N threads (`ready`, the ready-queue executor) on
//!   the *same* compiled first-iteration plan, isolating raw executor
//!   performance from compilation and materialization. The two rows are
//!   timed alternately, one of each per sample with the first swapped
//!   every sample, and each reports its minimum through
//!   `criterion::record_metric`. The CI regression gate asserts
//!   ready ≤ seq on `ie` here.
//! * `scheduler_warm` — the edit→rerun case: a persistent session flips
//!   the learner's regularization each sample, so only the learner tail
//!   recomputes against a warm store and a warm worker pool. This is the
//!   paper's human-in-the-loop latency, as opposed to the cold first
//!   iterations above.
//!
//! Run with `cargo bench -p helix-bench --bench scheduler`. Set
//! `HELIX_BENCH_FAST=1` for the reduced CI configuration and
//! `HELIX_BENCH_JSON=path.json` to capture machine-readable results (see
//! the criterion shim docs).

use criterion::{criterion_group, criterion_main, record_metric, BenchmarkId, Criterion};
use helix_core::compiler::compile;
use helix_core::cost::CostModel;
use helix_core::recompute::RecomputationPolicy;
use helix_core::scheduler::execute_plan;
use helix_core::store::StoreOptions;
use helix_core::{Engine, EngineConfig, ExecOpts, LearnerParam, Session, Workflow};
use helix_workloads::census::{census_workflow, generate_census, CensusDataSpec, CensusParams};
use helix_workloads::ie::{ie_workflow, IeParams};
use helix_workloads::news::{generate_news, news_workflow, NewsDataSpec, NewsParams};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Reduced sizes for the CI regression job (`HELIX_BENCH_FAST=1`): the
/// comparison stays two-sided but each sample is a few hundred ms.
fn fast_mode() -> bool {
    std::env::var_os("HELIX_BENCH_FAST").is_some_and(|v| v != "0")
}

/// Thread count for the parallel rows: all hardware threads, but at least
/// 4 so the comparison stays two-sided even on small containers (extra
/// threads on a starved box cost little; on a multi-core runner this is
/// where the ≥1.5× census speedup shows up).
fn bench_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(4)
}

/// One fresh-engine first iteration at the given thread count; the store
/// directory is recreated per call so every run computes everything.
fn run_once(workflow: &Workflow, store_dir: &Path, threads: usize) -> f64 {
    let _ = std::fs::remove_dir_all(store_dir);
    let engine = Engine::new(EngineConfig::helix(store_dir).with_parallelism(threads)).unwrap();
    let report = engine.run(workflow).unwrap();
    assert!(report.computed() > 0, "first iteration must compute");
    report.total_secs
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helix-bench-sched-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The three workloads with every optional feature wired in, so the DAGs
/// are at full width (the paper's late-iteration configuration).
fn workloads() -> Vec<(&'static str, Workflow)> {
    let fast = fast_mode();
    let census_dir = bench_dir("census");
    generate_census(
        &census_dir,
        &CensusDataSpec {
            train_rows: if fast { 3_000 } else { 12_000 },
            test_rows: if fast { 800 } else { 3_000 },
            ..Default::default()
        },
    )
    .unwrap();
    let mut census_params = CensusParams::initial(&census_dir);
    census_params.include_marital_status = true;
    census_params.include_interaction = true;
    census_params.include_capital_loss = true;
    let census = census_workflow(&census_params).unwrap();

    let news_dir = bench_dir("news");
    generate_news(
        &news_dir,
        &NewsDataSpec {
            docs: if fast { 120 } else { 400 },
            ..Default::default()
        },
    )
    .unwrap();
    let mut ie_params = IeParams::initial(&news_dir);
    ie_params.feat_context = true;
    ie_params.feat_shape = true;
    ie_params.feat_gazetteer = true;
    ie_params.feat_title = true;
    let ie = ie_workflow(&ie_params).unwrap();

    let mut news_params = NewsParams::initial(&news_dir);
    news_params.feat_titles = true;
    news_params.feat_orgs = true;
    let news = news_workflow(&news_params).unwrap();

    vec![("census", census), ("ie", ie), ("news", news)]
}

/// Like [`run_once`] but with an explicit operator-partition threshold,
/// so wide nodes split into row-range partitions at bench scale.
fn run_scaled(workflow: &Workflow, store_dir: &Path, threads: usize, partition_rows: usize) -> f64 {
    let _ = std::fs::remove_dir_all(store_dir);
    let engine = Engine::new(
        EngineConfig::helix(store_dir)
            .with_parallelism(threads)
            .with_partition_rows(partition_rows),
    )
    .unwrap();
    let report = engine.run(workflow).unwrap();
    assert!(report.computed() > 0, "first iteration must compute");
    report.total_secs
}

/// The scaled configurations: the seed-deterministic generators at 10x
/// (CI fast mode) or larger multiples of their bench base size, paired
/// with a partition threshold sized to the workload's per-row cost (cheap
/// census rows get coarse partitions; expensive NLP rows get fine ones).
/// Returns `(tag, workflow, partition_rows)`.
fn scaled_workloads() -> Vec<(&'static str, Workflow, usize)> {
    let fast = fast_mode();
    let census_dir = bench_dir("scaled-census");
    generate_census(
        &census_dir,
        &CensusDataSpec::scaled(if fast { 10 } else { 100 }),
    )
    .unwrap();
    let census = census_workflow(&CensusParams::bench(&census_dir)).unwrap();

    let news_dir = bench_dir("scaled-news");
    generate_news(&news_dir, &NewsDataSpec::scaled(if fast { 10 } else { 30 })).unwrap();
    let ie = ie_workflow(&IeParams::bench(&news_dir)).unwrap();
    let news = news_workflow(&NewsParams::bench(&news_dir)).unwrap();

    vec![("census", census, 256), ("ie", ie, 512), ("news", news, 32)]
}

fn bench_scheduler(c: &mut Criterion) {
    let threads = bench_threads();
    let samples = if fast_mode() { 5 } else { 10 };
    let workloads = workloads();

    let mut group = c.benchmark_group("scheduler_first_iteration");
    group.sample_size(samples);
    for (tag, workflow) in &workloads {
        // The parallel row's label is machine-independent ("Nthr", not
        // the actual count) so the committed regression baseline keys
        // stay valid when runner core counts change.
        for (label, t) in [("1thr", 1usize), ("Nthr", threads)] {
            let store = bench_dir(&format!("store-{tag}-{t}"));
            group.bench_with_input(BenchmarkId::new(*tag, label), &t, |b, &t| {
                b.iter(|| run_once(workflow, &store, t))
            });
        }
    }
    group.finish();

    // Scaled generators with operator partitioning engaged: the Nthr row
    // must beat 1thr on the heavy-per-row workloads (the CI crossover
    // gate); census is measured but ungated — its cheap rows sit near the
    // crossover on small runners.
    let mut group = c.benchmark_group("scheduler_scaled");
    group.sample_size(samples);
    for (tag, workflow, partition_rows) in &scaled_workloads() {
        for (label, t) in [("1thr", 1usize), ("Nthr", threads)] {
            let store = bench_dir(&format!("scaled-store-{tag}-{t}"));
            group.bench_with_input(BenchmarkId::new(*tag, label), &t, |b, &t| {
                b.iter(|| run_scaled(workflow, &store, t, *partition_rows))
            });
        }
    }
    group.finish();

    // Raw executor comparison on identical compiled plans: an empty store
    // and a no-op merge keep every sample a pure all-compute execution.
    // Each sample times both rows back to back, swapping which goes
    // first, so a slow phase of a shared machine hits both rows alike.
    let executor_samples = if c.is_test_mode() { 1 } else { samples };
    for (tag, workflow) in &workloads {
        let store_dir = bench_dir(&format!("exec-{tag}"));
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = StoreOptions::new(&store_dir)
            .budget_bytes(1 << 30)
            .open()
            .unwrap();
        let cm = CostModel::new();
        let plan = compile(workflow, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let rows = [("seq", 1usize), ("ready", threads)].map(|(label, parallelism)| {
            let opts = ExecOpts {
                parallelism,
                ..ExecOpts::default()
            };
            (label, opts)
        });
        let mut best_ns = [u128::MAX; 2];
        for sample in 0..executor_samples {
            for k in [sample % 2, 1 - sample % 2] {
                let started = Instant::now();
                execute_plan(workflow, &plan, &store, &rows[k].1, |_, _, _| Ok(())).unwrap();
                best_ns[k] = best_ns[k].min(started.elapsed().as_nanos());
            }
        }
        for ((label, _), ns) in rows.iter().zip(best_ns) {
            record_metric(format!("scheduler_executor/{tag}/{label}"), ns);
        }
    }

    // Warm edit→rerun iterations: one persistent session per row; each
    // sample flips the learner's regularization and reruns, so the
    // change tracker reuses everything upstream of the learner and the
    // run measures the human-in-the-loop latency the engine optimizes.
    let census = &workloads
        .iter()
        .find(|(tag, _)| *tag == "census")
        .expect("census workload present")
        .1;
    let mut group = c.benchmark_group("scheduler_warm");
    group.sample_size(samples);
    for (label, t) in [("1thr", 1usize), ("Nthr", threads)] {
        let dir = bench_dir(&format!("warm-{t}"));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Arc::new(
            Engine::new(EngineConfig::helix(dir.join("store")).with_parallelism(t)).unwrap(),
        );
        let mut session = Session::new(engine, "warm-bench", census.clone());
        session.iterate().unwrap(); // cold run outside the measurement
        let mut flip = false;
        group.bench_with_input(BenchmarkId::new("census_edit_rerun", label), &t, |b, _| {
            b.iter(|| {
                flip = !flip;
                let reg = if flip { 0.01 } else { 0.1 };
                session
                    .set_learner_param("predictions", LearnerParam::RegParam(reg))
                    .unwrap();
                session.iterate().unwrap().total_secs
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
