//! Serve Helix sessions over HTTP: the remote-analyst front end.
//!
//! Binds the [`helix::server`] front end over one shared engine with the
//! census workflow registered as a template, prints copy-pasteable
//! `curl` commands (the same ones documented in `docs/API.md`), and
//! serves until interrupted.
//!
//! ```text
//! cargo run --release --example serve                   # ephemeral port
//! HELIX_SERVE_ADDR=127.0.0.1:7878 cargo run --release --example serve
//! cargo run --release --example serve -- --demo         # CI smoke: self-drive, then exit
//! ```
//!
//! With `--demo`, the process also acts as its own remote analyst: it
//! drives the create → edit → iterate → history loop through the client
//! module over real sockets, prints what the wire returned, and shuts
//! the server down — the runtime smoke CI runs at every parallelism
//! setting.

use helix::core::{Engine, EngineConfig, SessionManager};
use helix::server::client;
use helix::server::routes::{Api, WorkflowRegistry};
use helix::server::server::{Server, ServerConfig};
use helix::workloads::census::{census_workflow, generate_census, CensusDataSpec, CensusParams};
use std::sync::Arc;

fn main() {
    let demo = std::env::args().any(|a| a == "--demo");
    let dir = std::env::temp_dir().join("helix-serve-example");
    generate_census(
        &dir,
        &CensusDataSpec {
            train_rows: 3_000,
            test_rows: 800,
            ..Default::default()
        },
    )
    .expect("generate data");

    // Durability comes from HELIX_DURABILITY (default: volatile). A
    // volatile store is wiped for a clean demo; a durable one is kept so
    // a restarted server resumes every session below.
    let config = EngineConfig::helix(dir.join("store"));
    if !config.durability.is_durable() {
        let _ = std::fs::remove_dir_all(dir.join("store"));
    }
    let engine = Arc::new(Engine::new(config).expect("engine"));
    let manager = Arc::new(SessionManager::new(engine));
    let mut registry = WorkflowRegistry::new();
    let params = CensusParams::initial(&dir);
    registry.register("census", move || census_workflow(&params));

    let api = Api::new(manager, registry);
    let recovered = api.recover_sessions();
    if recovered > 0 {
        println!("recovered {recovered} durable session(s) from a previous run");
    }

    let addr = std::env::var("HELIX_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:0".into());
    let mut server =
        Server::bind(addr.as_str(), api, ServerConfig::default()).expect("bind server");
    let addr = server.addr();

    println!("helix-server listening on http://{addr}");
    println!("registered workflow templates: census\n");
    println!("try it (full protocol in docs/API.md):");
    println!("  curl http://{addr}/healthz");
    println!(
        "  curl -X POST http://{addr}/sessions -d '{{\"name\":\"alice\",\"workflow\":\"census\"}}'"
    );
    println!("  curl -X POST http://{addr}/sessions/alice/iterate");
    println!("  curl -X POST http://{addr}/sessions/alice/edits \\");
    println!("       -d '{{\"kind\":\"set_learner_param\",\"learner\":\"predictions\",\"param\":\"reg_param\",\"value\":0.01}}'");
    println!("  curl -X POST http://{addr}/sessions/alice/iterate");
    println!("  curl http://{addr}/sessions/alice/versions");
    println!("  curl 'http://{addr}/sessions/alice/diff?from=0&to=1'");

    if demo {
        println!("\n--demo: driving the analyst loop over the wire…\n");
        run_demo(addr);
        server.shutdown();
        println!("server drained and shut down; demo OK");
        return;
    }

    println!("\nserving; Ctrl-C to stop");
    loop {
        std::thread::park();
    }
}

/// One remote analyst's loop, entirely over sockets.
fn run_demo(addr: std::net::SocketAddr) {
    let created = client::post(addr, "/sessions", r#"{"name":"alice","workflow":"census"}"#)
        .expect("create")
        .expect_ok();
    println!("created session: {created}");

    let first = client::post(addr, "/sessions/alice/iterate", "")
        .expect("iterate")
        .expect_ok();
    println!(
        "iteration 0: total {:.3}s, computed {}, metrics {}",
        first.get("total_secs").unwrap().as_f64().unwrap(),
        first.get("computed").unwrap().as_u64().unwrap(),
        first.get("metrics").unwrap()
    );

    let edit =
        r#"{"kind":"set_learner_param","learner":"predictions","param":"reg_param","value":0.01}"#;
    let pending = client::post(addr, "/sessions/alice/edits", edit)
        .expect("edit")
        .expect_ok();
    println!("recorded edit: {pending}");

    let second = client::post(addr, "/sessions/alice/iterate", "")
        .expect("iterate")
        .expect_ok();
    let loaded = second.get("loaded").unwrap().as_u64().unwrap();
    println!(
        "iteration 1: total {:.3}s, loaded {loaded}, reuse {:.0}%  ({})",
        second.get("total_secs").unwrap().as_f64().unwrap(),
        second.get("reuse_rate").unwrap().as_f64().unwrap() * 100.0,
        second.get("change_summary").unwrap().as_str().unwrap(),
    );
    assert!(
        loaded > 0,
        "the ML-only edit must reuse materialized pre-processing"
    );

    let versions = client::get(addr, "/sessions/alice/versions")
        .expect("versions")
        .expect_ok();
    let count = versions.get("versions").unwrap().as_array().unwrap().len();
    println!("version history: {count} entries");
    assert_eq!(count, 2);

    let diff = client::get(addr, "/sessions/alice/diff?from=0&to=1")
        .expect("diff")
        .expect_ok();
    println!("diff v0→v1: {diff}");

    let closed = client::delete(addr, "/sessions/alice")
        .expect("close")
        .expect_ok();
    println!("closed: {closed}");
}
