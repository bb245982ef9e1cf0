//! Crash-recovery acceptance for the durable tier: a durable engine
//! killed and reopened must resume every session's lineage with the
//! same results a never-restarted engine produces.
//!
//! Three layers of abuse:
//!
//! * **Twin comparison** — a restarted durable engine driven through the
//!   analyst loop, checked field-by-field against an identically
//!   configured engine that never restarted (both deterministic:
//!   materialize-`All` + load-all-available).
//! * **SIGKILL mid-flight** — a child process iterating two sessions is
//!   killed without warning; the parent reopens the store and asserts
//!   every acknowledged iteration survived and the ledger matches disk.
//! * **Torn store entry** — an entry file cut short costs one clean
//!   error, after which the node recomputes (never a wedged session).

use helix::core::ops::ExtractorKind;
use helix::core::session::LearnerParam;
use helix::core::{
    Durability, Engine, EngineConfig, HelixError, IterationReport, MaterializationPolicyKind,
    NodeState, RecomputationPolicy, SessionManager, Workflow,
};
use helix::dataflow::DataType;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helix-durab-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The census-mini workflow (same shape as the server e2e suite): big
/// enough that load-vs-compute decisions are stable, small enough that a
/// kill-loop iteration is fast.
fn workflow(dir: &Path) -> helix::core::Result<Workflow> {
    let train = dir.join("train.csv");
    let test = dir.join("test.csv");
    if !train.exists() {
        std::fs::write(&train, "BS,30,1\nMS,40,0\n".repeat(2_000)).unwrap();
        std::fs::write(&test, "BS,35,1\nMS,45,0\n".repeat(400)).unwrap();
    }
    let mut w = Workflow::new("census-mini");
    let data = w.csv_source("data", &train, Some(&test))?;
    let rows = w.csv_scanner(
        "rows",
        &data,
        &[
            ("edu", DataType::Str),
            ("age", DataType::Int),
            ("target", DataType::Int),
        ],
    )?;
    let edu = w.field_extractor("edu_f", &rows, "edu", ExtractorKind::Categorical)?;
    let age = w.field_extractor("age_f", &rows, "age", ExtractorKind::Numeric)?;
    let target = w.field_extractor("target_f", &rows, "target", ExtractorKind::Numeric)?;
    let income = w.assemble("income", &rows, &[&edu, &age], &target)?;
    let preds = w.learner("predictions", &income, Default::default())?;
    let checked = w.evaluate("checked", &preds, Default::default())?;
    w.output(&preds);
    w.output(&checked);
    Ok(w)
}

/// A deterministic durable engine: every materialization and load
/// decision is timing-independent, so a restarted engine and its
/// never-restarted twin are comparable field by field.
fn durable_engine(store_dir: &Path) -> Arc<Engine> {
    let mut config = EngineConfig::helix(store_dir);
    config.materialization = MaterializationPolicyKind::All;
    config.recomputation = RecomputationPolicy::LoadAllAvailable;
    config.durability = Durability::Wal;
    Arc::new(Engine::new(config).unwrap())
}

/// The timing-independent slice of a report.
#[derive(Debug, PartialEq)]
struct ReportFacts {
    iteration: usize,
    loaded: usize,
    computed: usize,
    pruned: usize,
    metrics: Vec<(String, f64)>,
    change_summary: String,
}

impl ReportFacts {
    fn of(report: &IterationReport) -> ReportFacts {
        ReportFacts {
            iteration: report.iteration,
            loaded: report.loaded(),
            computed: report.computed(),
            pruned: report.pruned(),
            metrics: report.metrics.clone(),
            change_summary: report.change_summary.clone(),
        }
    }
}

/// Sum of `.hlx` payload bytes on disk under the store directory — the
/// ground truth the recovered ledger must agree with.
fn disk_hlx_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "hlx") {
                total += entry.metadata().unwrap().len();
            }
        }
    }
    total
}

/// Twin comparison: the analyst loop with a kill-and-reopen between
/// iterations 1 and 2 must be indistinguishable (same reuse counters,
/// same metrics, same history) from the loop on an engine that never
/// restarted.
#[test]
fn restarted_engine_matches_never_restarted_twin() {
    let dir = tmpdir("twin");
    workflow(&dir).unwrap(); // writes the shared CSVs

    // -- control: never restarted -------------------------------------------
    let control = SessionManager::new(durable_engine(&dir.join("store-control")));
    let control_session = control
        .create_with_template("alice", workflow(&dir).unwrap(), Some("census-mini"))
        .unwrap();
    let mut control_facts = vec![ReportFacts::of(&control_session.iterate().unwrap())];
    control_session
        .with(|s| s.set_learner_param("predictions", LearnerParam::RegParam(0.9)))
        .unwrap();
    control_facts.push(ReportFacts::of(&control_session.iterate().unwrap()));
    control_session
        .with(|s| s.set_learner_param("predictions", LearnerParam::Epochs(6)))
        .unwrap();
    control_facts.push(ReportFacts::of(&control_session.iterate().unwrap()));

    // -- twin: same loop, torn down and reopened mid-way --------------------
    let store = dir.join("store-twin");
    let manager = SessionManager::new(durable_engine(&store));
    let session = manager
        .create_with_template("alice", workflow(&dir).unwrap(), Some("census-mini"))
        .unwrap();
    let mut twin_facts = vec![ReportFacts::of(&session.iterate().unwrap())];
    session
        .with(|s| s.set_learner_param("predictions", LearnerParam::RegParam(0.9)))
        .unwrap();
    twin_facts.push(ReportFacts::of(&session.iterate().unwrap()));
    drop(session);
    drop(manager);

    let manager = SessionManager::new(durable_engine(&store));
    let recovered =
        manager.recover(|template| (template == "census-mini").then(|| workflow(&dir).unwrap()));
    assert_eq!(recovered, 1, "alice must come back");
    let session = manager.get("alice").unwrap();
    session
        .with(|s| s.set_learner_param("predictions", LearnerParam::Epochs(6)))
        .unwrap();
    twin_facts.push(ReportFacts::of(&session.iterate().unwrap()));

    assert_eq!(
        twin_facts, control_facts,
        "the restart must be invisible in the reports"
    );
    assert!(
        twin_facts[2].loaded > 0,
        "the post-restart iteration must reuse recovered intermediates"
    );

    // History: same length, same summaries, same diff across the restart
    // boundary.
    let control_versions = control_session.with(|s| s.versions().clone());
    let twin_versions = session.with(|s| s.versions().clone());
    assert_eq!(twin_versions.len(), control_versions.len());
    for (t, c) in twin_versions.all().iter().zip(control_versions.all()) {
        assert_eq!(t.change_summary, c.change_summary);
        assert_eq!(t.metrics, c.metrics);
    }
    let twin_diff = twin_versions.diff(1, 2).unwrap();
    let control_diff = control_versions.diff(1, 2).unwrap();
    assert_eq!(twin_diff.changed, control_diff.changed);

    // Ledger agrees with both the twin store and the disk ground truth.
    let twin_store = manager.engine().store();
    assert_eq!(
        twin_store.used_bytes(),
        control.engine().store().used_bytes()
    );
    assert_eq!(twin_store.used_bytes(), disk_hlx_bytes(&store));
}

/// Environment variable naming the scratch directory for the kill test's
/// child process; set only by the parent below.
const CHILD_ENV: &str = "HELIX_DURABILITY_CHILD_DIR";

/// The victim process: iterates two durable sessions round-robin
/// forever, appending one line to `progress.txt` after each acknowledged
/// iteration. Runs only when spawned by the parent test (the env var
/// carries the directory); `#[ignore]` keeps it out of normal runs.
#[test]
#[ignore]
fn durability_child_worker() {
    let Ok(dir) = std::env::var(CHILD_ENV) else {
        return; // invoked manually; nothing to do
    };
    let dir = PathBuf::from(dir);
    let manager = SessionManager::new(durable_engine(&dir.join("store")));
    let alice = manager
        .create_with_template("alice", workflow(&dir).unwrap(), Some("census-mini"))
        .unwrap();
    let bob = manager
        .create_with_template("bob", workflow(&dir).unwrap(), Some("census-mini"))
        .unwrap();
    let progress = dir.join("progress.txt");
    let mut log = String::new();
    for i in 0.. {
        let session = if i % 2 == 0 { &alice } else { &bob };
        let flip = if (i / 2) % 2 == 0 { 0.9 } else { 0.1 };
        session
            .with(|s| s.set_learner_param("predictions", LearnerParam::RegParam(flip)))
            .unwrap();
        let report = session.iterate().unwrap();
        log.push_str(&format!(
            "{} {} {}\n",
            session.name(),
            report.iteration,
            report.loaded()
        ));
        // Atomic replace so the parent never reads a torn line.
        let tmp = dir.join("progress.tmp");
        std::fs::write(&tmp, &log).unwrap();
        std::fs::rename(&tmp, &progress).unwrap();
    }
}

/// SIGKILL mid-iteration: the parent spawns the child above, waits until
/// it has acknowledged several iterations, kills it without warning, and
/// reopens the store — every acknowledged iteration must be there, the
/// ledger must match disk, and both sessions must keep iterating.
#[test]
fn sigkill_mid_iteration_loses_no_acknowledged_work() {
    let dir = tmpdir("kill");
    workflow(&dir).unwrap(); // writes the shared CSVs up front

    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args([
            "--ignored",
            "--exact",
            "durability_child_worker",
            "--nocapture",
        ])
        .env(CHILD_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Wait for ≥5 acknowledged iterations (each session ≥2), then kill.
    let progress = dir.join("progress.txt");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let acknowledged = loop {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("child exited early with {status}");
        }
        let lines: Vec<String> = std::fs::read_to_string(&progress)
            .map(|t| t.lines().map(String::from).collect())
            .unwrap_or_default();
        if lines.len() >= 5 {
            break lines;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "child made no progress: {} iterations",
            lines.len()
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    child.kill().unwrap();
    child.wait().unwrap();

    // Count the iterations each session acknowledged before the kill.
    let acked = |name: &str| acknowledged.iter().filter(|l| l.starts_with(name)).count();
    let (alice_acked, bob_acked) = (acked("alice"), acked("bob"));
    assert!(alice_acked >= 2 && bob_acked >= 2);
    let warm_loaded: usize = acknowledged
        .last()
        .unwrap()
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();

    // Reopen and recover. The kill may have landed mid-iteration; that
    // trailing partial iteration is allowed to vanish, acknowledged ones
    // are not.
    let store = dir.join("store");
    let manager = SessionManager::new(durable_engine(&store));
    let recovered =
        manager.recover(|template| (template == "census-mini").then(|| workflow(&dir).unwrap()));
    assert_eq!(recovered, 2, "both sessions must come back");
    assert!(manager.engine().recovery().store.recovered_entries > 0);

    let alice = manager.get("alice").unwrap();
    let bob = manager.get("bob").unwrap();
    assert!(
        alice.with(|s| s.iteration()) >= alice_acked,
        "alice acknowledged {alice_acked} iterations but recovered {}",
        alice.with(|s| s.iteration())
    );
    assert!(
        bob.with(|s| s.iteration()) >= bob_acked,
        "bob acknowledged {bob_acked} iterations but recovered {}",
        bob.with(|s| s.iteration())
    );
    assert_eq!(
        alice.with(|s| s.versions().len()),
        alice.with(|s| s.iteration())
    );
    assert_eq!(
        bob.with(|s| s.versions().len()),
        bob.with(|s| s.iteration())
    );

    // The recovered ledger is exactly what is on disk.
    assert_eq!(
        manager.engine().store().used_bytes(),
        disk_hlx_bytes(&store)
    );

    // And the store is warm: a post-crash iteration reuses at least as
    // much as the last acknowledged pre-crash one did.
    alice
        .with(|s| s.set_learner_param("predictions", LearnerParam::Epochs(7)))
        .unwrap();
    let resumed = alice.iterate().unwrap();
    assert!(
        resumed.loaded() >= warm_loaded.min(1),
        "post-crash iteration must reuse recovered intermediates"
    );
    assert!(!resumed.metrics.is_empty());
}

/// Environment variable naming the scratch directory for the delta-ingest
/// kill test's child process; set only by the parent below.
const INGEST_CHILD_ENV: &str = "HELIX_INGEST_CHILD_DIR";

/// One oracle batch of census-mini rows for ingest round `i`.
fn ingest_batch(i: usize) -> Vec<String> {
    (0..5)
        .map(|j| {
            let edu = if (i + j).is_multiple_of(3) {
                "PhD"
            } else {
                "HS"
            };
            format!("{edu},{},{}", 22 + (i * 5 + j) % 40, (i + j) % 2)
        })
        .collect()
}

/// The ingest victim: appends one labeled batch per round as a durable
/// data delta, acknowledges it (the `append_data` fsync is the
/// acknowledgement point), then retrains — forever, until killed.
/// `#[ignore]` keeps it out of normal runs.
#[test]
#[ignore]
fn ingest_child_worker() {
    let Ok(dir) = std::env::var(INGEST_CHILD_ENV) else {
        return; // invoked manually; nothing to do
    };
    let dir = PathBuf::from(dir);
    let manager = SessionManager::new(durable_engine(&dir.join("store")));
    let session = manager
        .create_with_template("alice", workflow(&dir).unwrap(), Some("census-mini"))
        .unwrap();
    session.iterate().unwrap();
    let progress = dir.join("ingest-progress.txt");
    let mut log = String::new();
    let mut total = 0usize;
    for i in 0.. {
        let batch = ingest_batch(i);
        total += session.append_data("data", &batch).unwrap();
        // Acknowledge the durable append *before* retraining: these rows
        // must survive a kill landing anywhere after this line.
        log.push_str(&format!("{i} {total}\n"));
        let tmp = dir.join("ingest-progress.tmp");
        std::fs::write(&tmp, &log).unwrap();
        std::fs::rename(&tmp, &progress).unwrap();
        session.iterate().unwrap();
    }
}

/// SIGKILL mid-delta-ingest: the child above appends labeled batches in a
/// tight loop, so the kill can land anywhere in the ingest path — sidecar
/// staged, CSV half-appended, retrain in flight. Reopening must (a) lose
/// no acknowledged delta, (b) heal any half-applied one, and (c) produce
/// an incremental rerun byte-identical to a from-scratch twin on the
/// healed data, still reusing pre-crash partitions.
#[test]
fn sigkill_mid_delta_ingest_loses_no_acknowledged_delta() {
    let dir = tmpdir("ingest-kill");
    workflow(&dir).unwrap(); // writes the shared CSVs up front
    let base_rows = std::fs::read_to_string(dir.join("train.csv"))
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count();

    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["--ignored", "--exact", "ingest_child_worker", "--nocapture"])
        .env(INGEST_CHILD_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Wait for ≥3 acknowledged deltas, then kill without warning.
    let progress = dir.join("ingest-progress.txt");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let acknowledged = loop {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("child exited early with {status}");
        }
        let lines: Vec<String> = std::fs::read_to_string(&progress)
            .map(|t| t.lines().map(String::from).collect())
            .unwrap_or_default();
        if lines.len() >= 3 {
            break lines;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "child made no progress: {} deltas",
            lines.len()
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    child.kill().unwrap();
    child.wait().unwrap();

    let acked_rows: usize = acknowledged
        .last()
        .unwrap()
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(acked_rows >= 15, "≥3 batches of 5 rows each");

    // Reopen and recover the session; its AppendData edits replay as
    // no-ops because the CSV itself is the durable record.
    let manager = SessionManager::new(durable_engine(&dir.join("store")));
    let recovered =
        manager.recover(|template| (template == "census-mini").then(|| workflow(&dir).unwrap()));
    assert_eq!(recovered, 1, "alice must come back");
    let alice = manager.get("alice").unwrap();

    // One more delta post-crash. append_data heals any half-applied
    // sidecar before appending, so the file afterwards holds: base rows +
    // every acknowledged row [+ at most one staged-but-unacknowledged
    // batch] + this batch. Nothing acknowledged may be missing.
    let post_batch = ingest_batch(10_000);
    alice.append_data("data", &post_batch).unwrap();
    let healed = std::fs::read_to_string(dir.join("train.csv")).unwrap();
    let healed_rows = healed.lines().filter(|l| !l.trim().is_empty()).count();
    let floor = base_rows + acked_rows + post_batch.len();
    assert!(
        healed_rows >= floor && healed_rows <= floor + 5,
        "healed file has {healed_rows} rows; acknowledged floor is {floor} \
         (+ at most one in-flight batch of 5)"
    );

    // The incremental rerun over the recovered store must match a
    // from-scratch twin handed the healed file verbatim — same metrics,
    // same plan shape — while still reusing pre-crash partitions.
    let inc_report = alice.iterate().unwrap();
    assert!(
        inc_report.chunks_reused() > 0,
        "the post-crash delta run must serve pre-crash partitions from the store"
    );

    let twin_dir = dir.join("twin-data");
    std::fs::create_dir_all(&twin_dir).unwrap();
    std::fs::write(twin_dir.join("train.csv"), &healed).unwrap();
    std::fs::copy(dir.join("test.csv"), twin_dir.join("test.csv")).unwrap();
    let twin_manager = SessionManager::new(durable_engine(&dir.join("twin-store")));
    let twin = twin_manager
        .create("twin", workflow(&twin_dir).unwrap())
        .unwrap();
    let twin_report = twin.iterate().unwrap();

    assert_eq!(
        inc_report.metrics, twin_report.metrics,
        "incremental rerun must be byte-identical to the from-scratch twin"
    );
    let shape = |r: &IterationReport| {
        r.nodes
            .iter()
            .map(|n| (n.name.clone(), format!("{:?}", n.state)))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        shape(&inc_report),
        shape(&twin_report),
        "both runs see a data delta: every node recomputes in each"
    );
}

/// Environment variable naming the scratch directory for the memo kill
/// test's child process; set only by the parent below.
const MEMO_CHILD_ENV: &str = "HELIX_MEMO_CHILD_DIR";

/// The memo victim: runs the census workflow in a loop on a durable
/// engine, alternating the regularization knob, appending one line to
/// `memo-progress.txt` after each acknowledged run. `#[ignore]` keeps it
/// out of normal runs.
#[test]
#[ignore]
fn memo_durability_child_worker() {
    let Ok(dir) = std::env::var(MEMO_CHILD_ENV) else {
        return; // invoked manually; nothing to do
    };
    let dir = PathBuf::from(dir);
    let engine = durable_engine(&dir.join("store"));
    let progress = dir.join("memo-progress.txt");
    let mut log = String::new();
    for i in 0.. {
        // Run 0 computes everything (compute observations); later runs
        // reload materializations (load observations and reuse hits).
        engine.run(&workflow(&dir).unwrap()).unwrap();
        log.push_str(&format!(
            "{i} {}\n",
            engine.optimizer_stats().observations_recorded
        ));
        let tmp = dir.join("memo-progress.tmp");
        std::fs::write(&tmp, &log).unwrap();
        std::fs::rename(&tmp, &progress).unwrap();
    }
}

/// SIGKILL with an accumulated memo: the parent kills the child without
/// warning, reopens the store with an always-replan factor, and asserts
/// the recovered memo is non-empty and feeds the very first post-restart
/// plan (observed decision sources, replan counter advancing).
#[test]
fn sigkill_preserves_memo_and_feeds_first_post_restart_plan() {
    let dir = tmpdir("memo-kill");
    workflow(&dir).unwrap(); // writes the shared CSVs up front

    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args([
            "--ignored",
            "--exact",
            "memo_durability_child_worker",
            "--nocapture",
        ])
        .env(MEMO_CHILD_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Wait for ≥3 acknowledged runs, then kill mid-flight.
    let progress = dir.join("memo-progress.txt");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let acknowledged = loop {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("child exited early with {status}");
        }
        let lines: Vec<String> = std::fs::read_to_string(&progress)
            .map(|t| t.lines().map(String::from).collect())
            .unwrap_or_default();
        if lines.len() >= 3 {
            break lines;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "child made no progress: {} runs",
            lines.len()
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    child.kill().unwrap();
    child.wait().unwrap();

    let acked_observations: u64 = acknowledged
        .last()
        .unwrap()
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(acked_observations > 0, "child must have fed the memo");

    // Reopen with factor 1.0: if the memo survived, the very first plan
    // must go through the adaptive path.
    let mut config = EngineConfig::helix(dir.join("store")).with_replan_factor(1.0);
    config.materialization = MaterializationPolicyKind::All;
    config.recomputation = RecomputationPolicy::LoadAllAvailable;
    config.durability = Durability::Wal;
    let engine = Engine::new(config).unwrap();
    assert!(
        engine.recovery().recovered_memo_entries > 0,
        "the memo must survive the kill"
    );
    let stats = engine.optimizer_stats();
    assert!(stats.memo_entries > 0);
    assert!(
        stats.observations_recorded > 0,
        "recovered observation counter must be non-zero"
    );

    let replans_before = stats.replans_triggered;
    let report = engine.run(&workflow(&dir).unwrap()).unwrap();
    assert_eq!(
        engine.optimizer_stats().replans_triggered,
        replans_before + 1,
        "the recovered memo must trigger the first post-restart re-plan"
    );
    assert!(
        report
            .nodes
            .iter()
            .any(|n| n.decision_source == helix::core::DecisionSource::Observed),
        "post-restart plan must be driven by recovered observations"
    );
    assert!(!report.metrics.is_empty());
}

/// A torn store entry costs one clean error, not every later iteration:
/// the failed load drops the entry (file and ledger), so the next run
/// recomputes that node and reports what a run with nothing to reuse
/// reports, and a reopened engine never sees the torn file again.
#[test]
fn torn_store_entry_costs_one_error_then_recomputes() {
    let dir = tmpdir("torn-entry");
    let w = workflow(&dir).unwrap();
    let store = dir.join("store");
    let engine = durable_engine(&store);
    let cold = engine.run(&w).unwrap();
    assert_eq!(cold.loaded(), 0, "the first run has nothing to reuse");

    // Cut one entry the next plan loads in half.
    let plan = engine.compile_only(&w).unwrap();
    let loaded = (0..plan.states.len())
        .find(|&i| plan.states[i] == NodeState::Load)
        .expect("the rerun plan loads something");
    let path = store.join(format!("{}.hlx", plan.signatures[loaded].hex()));
    let len = std::fs::metadata(&path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(len / 2)
        .unwrap();

    let err = engine.run(&w).unwrap_err();
    assert!(
        matches!(err, HelixError::Store(_)),
        "a torn entry is a clean store error, got: {err}"
    );
    assert!(!path.exists(), "the torn entry is dropped from disk");
    assert_eq!(engine.store().used_bytes(), disk_hlx_bytes(&store));

    let rerun = engine.run(&w).unwrap();
    assert_eq!(
        rerun.metrics, cold.metrics,
        "the rerun recomputes what a run with no reuse computes"
    );
    drop(engine);
    let reopened = durable_engine(&store);
    assert_eq!(reopened.run(&w).unwrap().metrics, cold.metrics);
    assert_eq!(reopened.store().used_bytes(), disk_hlx_bytes(&store));
}
