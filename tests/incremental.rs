//! The incremental-data headline guarantee, pinned by a proptest twin:
//! for any random sequence of appended-label deltas, an engine that
//! ingests them incrementally (rerunning after each append with full
//! lineage history and partition reuse) produces **byte-identical**
//! results to a from-scratch engine handed the concatenated data —
//! metrics, per-node plan states, and every stored output file.
//!
//! Each case exercises the full matrix the guarantee covers:
//! parallelism {1, default} × durability {volatile, wal}.
//!
//! Both twins run `MaterializationPolicyKind::All` +
//! `RecomputationPolicy::LoadAllAvailable`, the cost-independent
//! configuration: plan decisions depend only on signatures, never on
//! timings, so the comparison cannot flake on a loaded runner.

use helix::core::{
    Durability, Engine, EngineConfig, MaterializationPolicyKind, RecomputationPolicy, Session,
};
use helix::workloads::census::{
    self, census_workflow, generate_census, CensusDataSpec, CensusParams,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static CASE: AtomicUsize = AtomicUsize::new(0);

/// Small chunks so a ~200-row base spans several partitions and a delta
/// touches only the last one. Set identically by every test closure, so
/// the process-global env write cannot race to different values.
const CHUNK_ROWS: &str = "64";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helix-incr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(store: &Path, parallelism: usize, durability: Durability) -> EngineConfig {
    let mut config = EngineConfig::helix(store).with_durability(durability);
    if parallelism > 0 {
        config = config.with_parallelism(parallelism);
    }
    config.materialization = MaterializationPolicyKind::All;
    config.recomputation = RecomputationPolicy::LoadAllAvailable;
    config
}

/// Every stored output under `dir`, keyed by file name (signature hex).
fn stored_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension() == Some(std::ffi::OsStr::new("hlx")) {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                out.insert(name, std::fs::read(&path).unwrap());
            }
        }
    }
    out
}

/// (name, state) per node — the plan shape, excluding timings and the
/// change kind (an incremental run reports `TransitivelyAffected` where a
/// fresh lineage reports `Added`; both are correct for their history).
fn plan_shape(report: &helix::core::IterationReport) -> Vec<(String, String)> {
    report
        .nodes
        .iter()
        .map(|n| (n.name.clone(), format!("{:?}", n.state)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn incremental_deltas_match_from_scratch_twin(
        batches in proptest::collection::vec(1usize..40, 1..4),
        oracle_seed in 0u64..1_000,
    ) {
        std::env::set_var("HELIX_DATA_CHUNK_ROWS", CHUNK_ROWS);
        let case = CASE.fetch_add(1, Ordering::Relaxed);

        for (parallelism, par_tag) in [(1, "p1"), (0, "pd")] {
            for (durability, dur_tag) in [
                (Durability::Volatile, "vol"),
                (Durability::Wal, "wal"),
            ] {
                let work = tmpdir(&format!("twin-{case}-{par_tag}-{dur_tag}"));

                // Incremental twin: base data, then one append + rerun
                // per delta, against one long-lived engine and lineage.
                let inc_data = work.join("inc-data");
                generate_census(
                    &inc_data,
                    &CensusDataSpec { train_rows: 200, test_rows: 60, ..Default::default() },
                )
                .unwrap();
                let inc_engine = Arc::new(
                    Engine::new(config(&work.join("inc-store"), parallelism, durability))
                        .unwrap(),
                );
                let workflow = census_workflow(&CensusParams::initial(&inc_data)).unwrap();
                let mut inc = Session::new(Arc::clone(&inc_engine), "incremental", workflow);
                inc.iterate().unwrap();

                let base = std::fs::read_to_string(inc_data.join("train.csv")).unwrap();
                let mut expected = base;
                let mut chunks_reused_total = 0usize;

                for (step, &batch) in batches.iter().enumerate() {
                    let labels = census::labeled_rows(
                        batch,
                        oracle_seed.wrapping_add(step as u64),
                    );
                    let appended = inc.append_data("data", &labels).unwrap();
                    prop_assert_eq!(appended, batch);
                    for line in &labels {
                        expected.push_str(line);
                        expected.push('\n');
                    }
                    // The append must behave exactly like concatenation.
                    prop_assert_eq!(
                        &std::fs::read_to_string(inc_data.join("train.csv")).unwrap(),
                        &expected
                    );
                    let inc_report = inc.iterate().unwrap();
                    chunks_reused_total += inc_report.chunks_reused();

                    // From-scratch twin: fresh store, fresh lineage, the
                    // concatenated data verbatim.
                    let fresh_data = work.join(format!("fresh-data-{step}"));
                    std::fs::create_dir_all(&fresh_data).unwrap();
                    std::fs::write(fresh_data.join("train.csv"), &expected).unwrap();
                    std::fs::copy(
                        inc_data.join("test.csv"),
                        fresh_data.join("test.csv"),
                    )
                    .unwrap();
                    let fresh_store = work.join(format!("fresh-store-{step}"));
                    let fresh_engine = Arc::new(
                        Engine::new(config(&fresh_store, parallelism, durability))
                            .unwrap(),
                    );
                    let fresh_workflow =
                        census_workflow(&CensusParams::initial(&fresh_data)).unwrap();
                    let mut fresh =
                        Session::new(Arc::clone(&fresh_engine), "from-scratch", fresh_workflow);
                    let fresh_report = fresh.iterate().unwrap();

                    // Metrics byte-identical (exact f64 equality).
                    prop_assert_eq!(
                        &inc_report.metrics, &fresh_report.metrics,
                        "step {} [{} {}]: metrics diverged", step, par_tag, dur_tag
                    );
                    // Same plan shape, node for node.
                    prop_assert_eq!(
                        plan_shape(&inc_report),
                        plan_shape(&fresh_report),
                        "step {} [{} {}]: plan shape diverged", step, par_tag, dur_tag
                    );
                    // Every output the fresh twin stored exists
                    // byte-identical in the incremental store: identical
                    // signatures AND identical encoded bytes.
                    let fresh_files = stored_files(&fresh_store);
                    let inc_files = stored_files(&work.join("inc-store"));
                    prop_assert!(!fresh_files.is_empty(), "fresh twin stored nothing");
                    for (name, bytes) in &fresh_files {
                        let twin = inc_files.get(name);
                        prop_assert!(
                            twin.is_some(),
                            "step {step}: fresh entry {name} missing from incremental store"
                        );
                        prop_assert!(
                            twin.unwrap() == bytes,
                            "step {step}: stored bytes of {name} diverged"
                        );
                    }
                }

                // The deltas only ever touch the tail chunk, so the
                // incremental runs must have reused earlier partitions.
                prop_assert!(
                    chunks_reused_total > 0,
                    "[{} {}] no partition reuse across {} deltas",
                    par_tag, dur_tag, batches.len()
                );
                let _ = std::fs::remove_dir_all(&work);
            }
        }
    }
}

/// Deterministic companion: a reopened durable engine resumes partition
/// reuse across a restart — the delta run after reopen still serves
/// unchanged chunks written before the "crash".
#[test]
fn durable_reopen_resumes_partition_reuse() {
    std::env::set_var("HELIX_DATA_CHUNK_ROWS", CHUNK_ROWS);
    let work = tmpdir("reopen");
    let data = work.join("data");
    generate_census(
        &data,
        &CensusDataSpec {
            train_rows: 200,
            test_rows: 60,
            ..Default::default()
        },
    )
    .unwrap();
    let store = work.join("store");
    {
        let engine = Arc::new(Engine::new(config(&store, 0, Durability::Wal)).unwrap());
        let workflow = census_workflow(&CensusParams::initial(&data)).unwrap();
        let mut session = Session::new(engine, "before", workflow);
        session.iterate().unwrap();
    } // dropped without orderly shutdown

    let engine = Arc::new(Engine::new(config(&store, 0, Durability::Wal)).unwrap());
    let workflow = census_workflow(&CensusParams::initial(&data)).unwrap();
    let mut session = Session::new(engine, "after", workflow);
    session
        .append_data("data", &census::labeled_rows(8, 99))
        .unwrap();
    let report = session.iterate().unwrap();
    assert!(
        report.chunks_reused() > 0,
        "reopened store must serve pre-restart partitions, got {}",
        report.chunks_reused()
    );
    let _ = std::fs::remove_dir_all(&work);
}
