//! The `census` workload: an in-process `Session` stepping through the
//! paper's Fig. 2(b) iteration script.

use crate::measure::{EndState, IterStats, Pass, Run};
use crate::trace::Tracer;
use helix_core::config_env::data_chunk_rows;
use helix_core::data::workflow_manifests;
use helix_core::{
    Durability, Engine, EngineConfig, MaterializationPolicyKind, OperatorKind, SessionHandle,
    SessionManager, Workflow,
};
use helix_workloads::census::{census_workflow, CensusParams};
use helix_workloads::{IterationSpec, IterationStage};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The census workflow's initial parameters and the scripted edits an
/// analyst makes to them.
pub struct Script {
    /// Parameters of the initial version.
    pub initial: CensusParams,
    /// The edits, in order.
    pub edits: Vec<IterationSpec<CensusParams>>,
}

/// Untraced passes below which a run does not stop, however long they
/// take.
const MIN_PASSES: usize = 3;
/// Cold iterations timed on their own after each pass, so that
/// `first_iter_s` rests on twice as many samples as there are passes.
const COLDS_PER_PASS: usize = 1;

fn stage_index(stage: IterationStage) -> usize {
    match stage {
        IterationStage::DataPreProcessing => 0,
        IterationStage::MachineLearning => 1,
        IterationStage::Evaluation => 2,
    }
}

/// Bytes of the files `workflow_manifests` chunk-signs: every CSV source.
pub fn signed_bytes(workflow: &Workflow) -> u64 {
    let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    workflow
        .nodes()
        .iter()
        .map(|n| match &n.kind {
            OperatorKind::CsvSource {
                train_path,
                test_path,
            } => size(train_path) + test_path.as_deref().map_or(0, size),
            _ => 0,
        })
        .sum()
}

/// In a traced pass, signs and compiles the session's live workflow in
/// spans of their own, as the engine is about to, and adds their times
/// to `pass`. Returns an error message if the preview compile fails.
pub fn trace_compile(
    session: &SessionHandle,
    tracer: &mut Tracer,
    pass: &mut Pass,
) -> Option<String> {
    let (bytes, sign_s) = tracer.leaf("workflow_manifests", || {
        session.with(|s| {
            std::hint::black_box(workflow_manifests(s.workflow(), data_chunk_rows()));
            signed_bytes(s.workflow())
        })
    });
    let (plan, compile_s) =
        tracer.leaf("compile_preview", || session.with(|s| s.compile_preview()));
    pass.sign_s += sign_s;
    pass.bytes_signed += bytes;
    pass.compile_s += compile_s;
    plan.err().map(|e| format!("compile_preview: {e}"))
}

/// Full Helix at the machine's parallelism, volatile.
fn timed_config(dir: &Path, parallelism: usize) -> EngineConfig {
    EngineConfig::helix(dir)
        .with_durability(Durability::Volatile)
        .with_parallelism(parallelism)
}

/// The oracle: no reuse at all — one thread, nothing materialized, a
/// fresh volatile store.
pub fn reference_config(dir: &Path) -> EngineConfig {
    let mut config = EngineConfig::helix(dir)
        .with_durability(Durability::Volatile)
        .with_parallelism(1);
    config.materialization = MaterializationPolicyKind::Never;
    config
}

/// Set-up: opens a fresh engine and creates the analyst's session on it,
/// timed. The time is kept unless the pass is traced. The store directory
/// is made before the clock starts: creating a directory waits on the
/// file system's journal, whose latency on a shared disk changes tenfold
/// from one minute to the next.
fn open(
    script: &Script,
    dir: &Path,
    traced: bool,
    run: &mut Run,
) -> Option<(SessionManager, SessionHandle)> {
    let workflow = census_workflow(&script.initial);
    let made = std::fs::create_dir_all(dir);
    run.count(
        made.as_ref()
            .err()
            .map(|e| format!("creating {}: {e}", dir.display())),
    );
    made.ok()?;
    let started = Instant::now();
    let opened = workflow.and_then(|workflow| {
        let engine = Engine::new(timed_config(dir, run.parallelism))?;
        let manager = SessionManager::new(Arc::new(engine));
        let session = manager.create("analyst", workflow)?;
        Ok((manager, session))
    });
    if !traced {
        run.setups.push(started.elapsed().as_secs_f64());
    }
    run.count(opened.as_ref().err().map(|e| format!("open: {e}")));
    opened.ok()
}

/// One pass on a fresh engine; `None` if a call failed (already counted).
fn pass(script: &Script, dir: &Path, traced: bool, run: &mut Run) -> Option<Pass> {
    let mut out = Pass {
        traced,
        ..Pass::default()
    };
    let (manager, session) = open(script, dir, traced, run)?;
    let mut params = script.initial.clone();
    for step in 0..=script.edits.len() {
        let stage = (step > 0).then(|| {
            let edit = &script.edits[step - 1];
            (edit.apply)(&mut params);
            edit.stage
        });
        if stage.is_some() {
            let workflow = census_workflow(&params);
            run.count(
                workflow
                    .as_ref()
                    .err()
                    .map(|e| format!("build {step}: {e}")),
            );
            session.replace_workflow(workflow.ok()?);
        }
        let tracer = &mut run.tracer;
        let (result, wall_s) = if traced {
            tracer.next_group();
            let mut compile_err = None;
            let timed = tracer.span("iteration", |t| {
                compile_err = trace_compile(&session, t, &mut out);
                t.leaf("iterate", || session.iterate())
            });
            run.count(compile_err);
            timed
        } else {
            let t = Instant::now();
            let result = session.iterate();
            (result, t.elapsed().as_secs_f64())
        };
        run.count(
            result
                .as_ref()
                .err()
                .map(|e| format!("iterate {step}: {e}")),
        );
        let report = result.ok()?;
        out.iters.push(IterStats::from_report(wall_s, &report));
        if let Some(stage) = stage {
            out.edit_s[stage_index(stage)] += wall_s;
        }
    }
    let tracer = traced.then_some(&mut run.tracer);
    out.end = EndState::read(manager.engine(), tracer);
    Some(out)
}

/// One cold iteration on a fresh engine, timed on its own.
fn cold(script: &Script, dir: &Path, run: &mut Run) -> Option<()> {
    let (_manager, session) = open(script, dir, false, run)?;
    let t = Instant::now();
    let result = session.iterate();
    let wall_s = t.elapsed().as_secs_f64();
    run.count(result.as_ref().err().map(|e| format!("cold iterate: {e}")));
    run.colds
        .push(IterStats::from_report(wall_s, &result.ok()?));
    Some(())
}

/// Every iteration's metrics from one pass on the reference engine.
fn reference(script: &Script, dir: &Path) -> helix_core::Result<Vec<Vec<(String, f64)>>> {
    let mut params = script.initial.clone();
    let engine = Arc::new(Engine::new(reference_config(dir))?);
    let manager = SessionManager::new(engine);
    let session = manager.create("reference", census_workflow(&params)?)?;
    let mut out = vec![IterStats::from_report(0.0, &session.iterate()?).metrics];
    for edit in &script.edits {
        (edit.apply)(&mut params);
        session.replace_workflow(census_workflow(&params)?);
        out.push(IterStats::from_report(0.0, &session.iterate()?).metrics);
    }
    Ok(out)
}

/// Measures the script for about `seconds`, then checks every
/// iteration against the reference.
pub fn measure(
    script: &Script,
    work: &Path,
    seconds: f64,
    trace: bool,
    run: &mut Run,
) -> Result<(), String> {
    run.drive(
        work,
        seconds,
        trace,
        MIN_PASSES,
        COLDS_PER_PASS,
        |dir, run| drop(open(script, dir, false, run)),
        |dir, run| {
            cold(script, dir, run);
        },
        |dir, traced, run| pass(script, dir, traced, run),
        |dir| reference(script, dir),
    )
}
