//! The `active_learning` workload: the label → append → retrain loop of
//! `helix_workloads::active_learning`, driven over HTTP against an
//! in-process server through one keep-alive client.

use crate::measure::{EndState, IterStats, Pass, Run};
use crate::script::{reference_config, trace_compile};
use helix_core::{Durability, Engine, EngineConfig, SessionManager};
use helix_json::Json;
use helix_server::client::Client;
use helix_server::{Api, Server, ServerConfig, ServerHandle, WorkflowRegistry};
use helix_workloads::census::{census_workflow, labeled_rows, CensusParams};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Loop settings, fixed for every run.
pub struct Loop {
    /// Directory holding the generated `train.csv` and `test.csv`.
    pub data: PathBuf,
    /// Label-and-retrain rounds per pass.
    pub rounds: usize,
    /// Uncertain candidates fetched, and oracle labels appended, per round.
    pub batch: usize,
    /// Seed of the oracle's labels; round `r` uses `label_seed + r`.
    pub label_seed: u64,
}

/// Training rows generated: above twice the scheduler's default
/// partition threshold (4,096 rows), so every round takes the partitioned
/// path.
pub const TRAIN_ROWS: usize = 9_000;
/// Held-out rows generated; the uncertain ranking scans these.
pub const TEST_ROWS: usize = 2_000;
/// Label-and-retrain rounds per pass.
pub const ROUNDS: usize = 5;
/// Uncertain candidates fetched, and labels appended, per round.
pub const BATCH: usize = 32;

/// Rounds below which a run does not stop, however long it takes: a p90
/// needs ten samples beyond it.
const MIN_ROUNDS: usize = 100;
/// Cold iterations timed on their own after each pass, so that
/// `first_iter_s` rests on twice as many samples as there are passes.
const COLDS_PER_PASS: usize = 1;

const SESSION: &str = "analyst";

impl Loop {
    fn labels(&self, round: usize) -> Vec<String> {
        labeled_rows(self.batch, self.label_seed.wrapping_add(round as u64))
    }
}

fn copy_data(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for name in ["train.csv", "test.csv"] {
        std::fs::copy(from.join(name), to.join(name))?;
    }
    Ok(())
}

/// One HTTP request: timed (and traced), counted, and a 2xx body returned.
fn call(
    client: &mut Client,
    run: &mut Run,
    traced: bool,
    name: &'static str,
    method: &str,
    path: &str,
    body: &str,
) -> Option<(Json, f64)> {
    let send = |c: &mut Client| c.request(method, path, body);
    let (result, secs) = if traced {
        run.tracer.leaf(name, || send(client))
    } else {
        let t = Instant::now();
        let result = send(client);
        (result, t.elapsed().as_secs_f64())
    };
    let outcome = match result {
        Ok(resp) if (200..300).contains(&resp.status) => Ok(resp.body),
        Ok(resp) => Err(format!(
            "{method} {path}: status {}: {}",
            resp.status, resp.body
        )),
        Err(e) => Err(format!("{method} {path}: {e}")),
    };
    run.count(outcome.as_ref().err().cloned());
    Some((outcome.ok()?, secs))
}

fn shed(client: &mut Client, run: &mut Run) -> Option<u64> {
    let (stats, _) = call(client, run, false, "stats", "GET", "/stats", "")?;
    let shed = stats.get("shed").and_then(Json::as_u64);
    expect(run, shed.is_some(), || {
        format!("GET /stats: no shed count: {stats}")
    })?;
    shed
}

/// Counts a response whose 2xx body does not say what it should.
fn expect(run: &mut Run, ok: bool, what: impl FnOnce() -> String) -> Option<()> {
    run.count((!ok).then(what));
    ok.then_some(())
}

/// A served engine with the analyst's session and client.
struct Served {
    engine: Arc<Engine>,
    manager: Arc<SessionManager>,
    // Field order is drop order: the client closes its connection before
    // the server joins its workers.
    client: Client,
    _server: ServerHandle,
}

/// Set-up: a fresh durable engine on a fresh copy of the data, then the
/// server bound to it and the session created over the wire. The
/// engine's open is timed on its own, as `engine_open`: opening a durable
/// store creates and renames a file per shard, and on a shared disk each
/// such step waits on the file system's journal, whose latency changes
/// tenfold from one minute to the next. The set-up time proper is the
/// session manager and `Server::bind`. The session `POST` is left out of
/// both, since it fsyncs the session record. Neither time is kept when
/// the pass is traced.
fn open(al: &Loop, dir: &Path, traced: bool, run: &mut Run) -> Option<Served> {
    let data = dir.join("data");
    let copied = copy_data(&al.data, &data);
    run.count(copied.as_ref().err().map(|e| format!("copying data: {e}")));
    copied.ok()?;
    let config = EngineConfig::helix(dir.join("store"))
        .with_durability(Durability::wal_nosync())
        .with_parallelism(run.parallelism);
    let server_config = ServerConfig {
        workers: run.parallelism,
        ..ServerConfig::default()
    };

    let started = Instant::now();
    let engine = Engine::new(config).map(Arc::new);
    let open_s = started.elapsed().as_secs_f64();
    run.count(engine.as_ref().err().map(|e| format!("open: {e}")));
    let engine = engine.ok()?;

    let started = Instant::now();
    let manager = Arc::new(SessionManager::new(Arc::clone(&engine)));
    let mut registry = WorkflowRegistry::new();
    registry.register("census", move || {
        census_workflow(&CensusParams::initial(&data))
    });
    let server = Server::bind(
        "127.0.0.1:0",
        Api::new(Arc::clone(&manager), registry),
        server_config,
    );
    let bind_s = started.elapsed().as_secs_f64();
    run.count(server.as_ref().err().map(|e| format!("bind: {e}")));
    let server = server.ok()?;
    if !traced {
        run.latency("engine_open", open_s);
        run.setups.push(bind_s);
    }
    let mut client = Client::new(server.addr());
    let create = format!(r#"{{"name":"{SESSION}","workflow":"census"}}"#);
    call(
        &mut client,
        run,
        false,
        "create",
        "POST",
        "/sessions",
        &create,
    )?;
    Some(Served {
        engine,
        manager,
        client,
        _server: server,
    })
}

/// One pass: set-up, the cold iteration, then `rounds` label-and-retrain
/// rounds.
fn pass(al: &Loop, dir: &Path, traced: bool, run: &mut Run) -> Option<Pass> {
    let mut out = Pass {
        traced,
        ..Pass::default()
    };
    // Bound in this order so the client is dropped before the server.
    let Served {
        _server,
        engine,
        manager,
        mut client,
    } = open(al, dir, traced, run)?;
    let shed_before = shed(&mut client, run)?;

    let iterate_path = format!("/sessions/{SESSION}/iterate");
    let (body, wall_s) = call(
        &mut client,
        run,
        traced,
        "iterate",
        "POST",
        &iterate_path,
        "",
    )?;
    let first = IterStats::from_wire(wall_s, &body);
    expect(run, first.is_some(), || format!("malformed report: {body}"))?;
    out.iters.extend(first);

    let uncertain_path = format!("/sessions/{SESSION}/uncertain?k={}", al.batch);
    let data_path = format!("/sessions/{SESSION}/data");
    let versions_path = format!("/sessions/{SESSION}/versions");
    for round in 0..al.rounds {
        if traced {
            run.tracer.next_group();
        }
        let (body, secs) = call(
            &mut client,
            run,
            traced,
            "uncertain",
            "GET",
            &uncertain_path,
            "",
        )?;
        if !traced {
            run.latency("uncertain", secs);
        }
        let ranked = body
            .get("examples")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        expect(run, ranked == al.batch, || {
            format!("round {round}: {ranked} uncertain examples")
        })?;

        let rows = Json::Arr(al.labels(round).into_iter().map(Json::str).collect());
        let append = Json::obj([("source", Json::str("data")), ("rows", rows)]).to_string();
        let (body, secs) = call(
            &mut client,
            run,
            traced,
            "append",
            "POST",
            &data_path,
            &append,
        )?;
        if !traced {
            run.latency("append_ack", secs);
        }
        let appended = body.get("appended").and_then(Json::as_u64);
        expect(run, appended == Some(al.batch as u64), || {
            format!("round {round}: appended {appended:?}")
        })?;

        if traced {
            let session = manager.get(SESSION);
            expect(run, session.is_some(), || format!("no session `{SESSION}`"))?;
            let err = trace_compile(&session?, &mut run.tracer, &mut out);
            run.count(err);
        }
        let (body, wall_s) = call(
            &mut client,
            run,
            traced,
            "iterate",
            "POST",
            &iterate_path,
            "",
        )?;
        let it = IterStats::from_wire(wall_s, &body);
        expect(run, it.is_some(), || {
            format!("round {round}: malformed report: {body}")
        })?;
        out.iters.extend(it);

        let (body, secs) = call(
            &mut client,
            run,
            traced,
            "versions",
            "GET",
            &versions_path,
            "",
        )?;
        if !traced {
            run.latency("history", secs);
        }
        let versions = body
            .get("versions")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        expect(run, versions == round + 2, || {
            format!("round {round}: {versions} versions")
        })?;
    }
    out.shed = shed(&mut client, run)? - shed_before;
    out.connects = client.connects();
    drop(client);
    let tracer = traced.then_some(&mut run.tracer);
    out.end = EndState::read(&engine, tracer);
    Some(out)
}

/// One cold `POST iterate` on a fresh served engine, timed on its own.
fn cold(al: &Loop, dir: &Path, run: &mut Run) -> Option<()> {
    let mut served = open(al, dir, false, run)?;
    let path = format!("/sessions/{SESSION}/iterate");
    let (body, wall_s) = call(&mut served.client, run, false, "iterate", "POST", &path, "")?;
    let it = IterStats::from_wire(wall_s, &body);
    expect(run, it.is_some(), || format!("malformed report: {body}"))?;
    run.colds.extend(it);
    Some(())
}

/// Every iteration's metrics from the same loop on the reference engine,
/// in process: the oracle's labels do not depend on the ranking, so the
/// uncertain and history reads are left out.
fn reference(al: &Loop, dir: &Path) -> helix_core::Result<Vec<Vec<(String, f64)>>> {
    let data = dir.join("data");
    copy_data(&al.data, &data)?;
    let engine = Arc::new(Engine::new(reference_config(&dir.join("store")))?);
    let manager = SessionManager::new(engine);
    let session = manager.create("reference", census_workflow(&CensusParams::initial(&data))?)?;
    let mut out = vec![IterStats::from_report(0.0, &session.iterate()?).metrics];
    for round in 0..al.rounds {
        session.append_data("data", &al.labels(round))?;
        out.push(IterStats::from_report(0.0, &session.iterate()?).metrics);
    }
    Ok(out)
}

/// Measures the loop for about `seconds`, and for at least
/// [`MIN_ROUNDS`] rounds, then checks every iteration against the
/// reference.
pub fn measure(
    al: &Loop,
    work: &Path,
    seconds: f64,
    trace: bool,
    run: &mut Run,
) -> Result<(), String> {
    run.drive(
        work,
        seconds,
        trace,
        MIN_ROUNDS.div_ceil(al.rounds),
        COLDS_PER_PASS,
        |dir, run| drop(open(al, dir, false, run)),
        |dir, run| {
            cold(al, dir, run);
        },
        |dir, traced, run| pass(al, dir, traced, run),
        |dir| reference(al, dir),
    )
}
