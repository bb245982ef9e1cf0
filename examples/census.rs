//! The paper's Census application (Fig. 1a), including the Fig. 1b
//! optimized-plan visualization after the paper's exact iterative edit:
//! `+ msExt` (add the marital-status extractor to `has_extractors`).
//!
//! The edit is applied the way a session user applies it: the `ms`
//! extractor is already declared (the program slicer prunes it while
//! unwired), so "adding" it is one typed `rewire` of the `income` node on
//! the live workflow — no rebuilding.
//!
//! ```text
//! cargo run --release --example census
//! ```

use helix::baselines::SystemKind;
use helix::core::session::SessionManager;
use helix::core::viz;
use helix::workloads::census::{census_workflow, generate_census, CensusDataSpec, CensusParams};

fn main() {
    let dir = std::env::temp_dir().join("helix-census-example");
    let spec = CensusDataSpec {
        train_rows: 8_000,
        test_rows: 2_000,
        ..Default::default()
    };
    generate_census(&dir, &spec).expect("generate census data");
    println!(
        "generated {} train / {} test census rows\n",
        spec.train_rows, spec.test_rows
    );

    let _ = std::fs::remove_dir_all(dir.join("store"));
    let engine = SystemKind::Helix
        .build_shared(&dir.join("store"))
        .expect("engine");
    let manager = SessionManager::new(engine);

    // Version 1: the paper's initial program.
    let params = CensusParams::initial(&dir);
    let session = manager
        .create("analyst", census_workflow(&params).expect("workflow v1"))
        .expect("session");
    let r1 = session.iterate().expect("run v1");
    println!("v1: {}", r1.summary());
    println!("v1 accuracy = {:?}\n", r1.metric("accuracy"));

    // Version 2: the paper's `+ msExt` edit (Fig. 1a, line 14) — wire the
    // declared-but-unused marital-status extractor into `income`. The
    // parent list is derived from the live workflow (current parents with
    // `ms` slotted in ahead of the trailing label column) so the example
    // stays in lockstep with `census_workflow`'s wiring.
    let mut parents: Vec<String> = session.with(|s| {
        let w = s.workflow();
        let income = w.by_name("income").expect("income node");
        w.node(income)
            .parents
            .iter()
            .map(|&p| w.node(p).name.clone())
            .collect()
    });
    let label = parents.pop().expect("income has a label parent");
    parents.push("ms".to_string());
    parents.push(label);
    let parent_refs: Vec<&str> = parents.iter().map(String::as_str).collect();
    session
        .with(|s| s.rewire("income", &parent_refs))
        .expect("+msExt edit");
    let r2 = session.iterate().expect("run v2");
    println!("v2 (+msExt): {}", r2.summary());
    println!("v2 accuracy = {:?}\n", r2.metric("accuracy"));

    // Fig. 1b: the optimized execution plan for the modified workflow —
    // loaded nodes marked [disk→], newly materialized [→disk], pruned
    // operators grayed out.
    println!("=== optimized plan for v2 (Fig. 1b) ===");
    session.with(|s| println!("{}", viz::ascii_plan(s.workflow(), &r2)));

    // Graphviz output for the DAG pane.
    let annotations: Vec<viz::NodeAnnotation> = r2
        .nodes
        .iter()
        .map(|n| viz::NodeAnnotation {
            state: Some(n.state),
            materialized: n.materialized,
        })
        .collect();
    let dot_path = dir.join("census_v2.dot");
    let dot = session.with(|s| viz::to_dot(s.workflow(), Some(&annotations)));
    std::fs::write(&dot_path, dot).expect("write dot");
    println!("wrote {} (render with `dot -Tsvg`)\n", dot_path.display());

    // Version comparison (Fig. 3's diff view) from the session's own
    // lineage; the recorded change is the typed edit itself.
    let diff = session
        .with(|s| s.versions().diff(0, 1))
        .expect("both versions exist");
    println!("=== version 1 → 2 diff ===\n{}", viz::diff_text(&diff));
    let change = session.with(|s| s.versions().get(1).unwrap().change_summary.clone());
    println!("recorded edit: {change}");
}
