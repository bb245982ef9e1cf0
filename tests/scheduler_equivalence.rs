//! Property tests: ready-queue parallel execution is observationally
//! identical to sequential execution on random and adversarial DAGs.
//!
//! Three layers, mirroring the engine's split:
//!
//! * **Scheduler-level** — the same compiled plan executed at 1 thread and
//!   at N threads must produce identical outputs and identical plan-order
//!   merge streams, both on all-compute plans and on plans with a random
//!   subset of nodes materialized (mixing loads, computes, and prunes).
//!   Adversarial shapes (a long chain feeding a wide fan-out, stacked
//!   diamonds) target the executor's weak spots: dependency chains that
//!   ready exactly one node at a time and repeated joins where a single
//!   straggler could stall every dependent.
//! * **Engine-level** — two engines differing only in `parallelism` must
//!   produce identical `IterationReport` counts, signatures, and version
//!   histories across repeated runs of random workflows.
//! * **Store-level** — the sharded store's budget ledger must stay exact
//!   under concurrent put/evict traffic at every shard count.

use helix::core::compiler::compile;
use helix::core::config_env;
use helix::core::cost::CostModel;
use helix::core::ops::{OperatorKind, Udf};
use helix::core::scheduler::{execute_plan, ExecOpts};
use helix::core::signature::Signature;
use helix::core::store::StoreOptions;
use helix::core::{
    Engine, EngineConfig, MaterializationPolicyKind, NodeId, NodeOutput, NodeRef,
    RecomputationPolicy, Workflow,
};
use helix::dataflow::{DataCollection, DataType, Row, Schema, Value};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// Default options at an explicit thread count.
fn with_threads(parallelism: usize) -> ExecOpts {
    ExecOpts {
        parallelism,
        ..ExecOpts::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("helix-schedeq-{tag}-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn int_rows(values: &[i64]) -> DataCollection {
    let schema = Schema::of(&[("x", DataType::Int)]);
    let rows = values.iter().map(|&v| Row(vec![Value::Int(v)])).collect();
    DataCollection::from_rows_unchecked(schema, rows)
}

/// Deterministic per-node transform: a keyed fold over all parent cells,
/// so every node's output is a pure function of the DAG shape.
fn mix_udf(salt: i64) -> Udf {
    Udf::new(format!("mix:{salt}"), move |inputs| {
        let mut acc: i64 = salt;
        for dc in inputs {
            for row in dc.rows() {
                acc = acc
                    .wrapping_mul(31)
                    .wrapping_add(row.get(0).as_int().unwrap_or(0));
            }
        }
        Ok(int_rows(&[acc, acc.wrapping_mul(7)]))
    })
}

/// (node count, forward edges).
type ArbDag = (usize, Vec<(usize, usize)>);

fn arb_dag() -> impl Strategy<Value = ArbDag> {
    (2usize..10).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..20).prop_map(move |pairs| {
            pairs
                .into_iter()
                .filter(|&(a, b)| a < b)
                .collect::<Vec<_>>()
        });
        (Just(n), edges)
    })
}

/// Adversarial shape 1: a chain of `chain_len` nodes whose tail feeds a
/// fan-out of `fan` independent nodes, all joined into one sink. The
/// chain readies exactly one node at a time (worst case for stealing);
/// the fan-out then releases `fan` nodes at once.
fn chain_fanout_dag(chain_len: usize, fan: usize) -> ArbDag {
    let mut edges = Vec::new();
    for i in 1..chain_len {
        edges.push((i - 1, i));
    }
    let tail = chain_len - 1;
    let sink = chain_len + fan;
    for k in 0..fan {
        edges.push((tail, chain_len + k));
        edges.push((chain_len + k, sink));
    }
    (sink + 1, edges)
}

/// Adversarial shape 2: `stacks` diamonds end to end — node a fans to
/// (b, c), which join in d, which fans again, … Every join is a point
/// where the wave barrier used to stall on the slower branch.
fn diamond_stack_dag(stacks: usize) -> ArbDag {
    let mut edges = Vec::new();
    let mut top = 0usize;
    let mut next = 1usize;
    for _ in 0..stacks {
        let (left, right, join) = (next, next + 1, next + 2);
        edges.push((top, left));
        edges.push((top, right));
        edges.push((left, join));
        edges.push((right, join));
        top = join;
        next = join + 1;
    }
    (next, edges)
}

fn arb_adversarial_dag() -> impl Strategy<Value = ArbDag> {
    prop_oneof![
        (2usize..6, 2usize..7).prop_map(|(chain, fan)| chain_fanout_dag(chain, fan)),
        (1usize..5).prop_map(diamond_stack_dag),
    ]
}

/// Row-wise transform the scheduler may partition: each output row is a
/// pure function of the corresponding row of the *first* input plus
/// whole-collection context folded from the remaining inputs (which every
/// slice receives unsliced).
fn row_mix_udf(salt: i64) -> Udf {
    Udf::new(format!("rowmix:{salt}"), move |inputs| {
        let context: i64 = inputs[1..]
            .iter()
            .flat_map(|dc| dc.rows())
            .map(|row| row.get(0).as_int().unwrap_or(0))
            .fold(salt, |acc, v| acc.wrapping_mul(31).wrapping_add(v));
        let out: Vec<i64> = inputs[0]
            .rows()
            .iter()
            .map(|row| {
                row.get(0)
                    .as_int()
                    .unwrap_or(0)
                    .wrapping_mul(31)
                    .wrapping_add(context)
            })
            .collect();
        Ok(int_rows(&out))
    })
}

/// Source emitting `rows` deterministic ints, so downstream row-wise
/// nodes have enough rows to split into many partitions.
fn iota_udf(salt: i64, rows: usize) -> Udf {
    Udf::new(format!("iota:{salt}:{rows}"), move |_inputs| {
        let values: Vec<i64> = (0..rows as i64).map(|v| v.wrapping_add(salt)).collect();
        Ok(int_rows(&values))
    })
}

/// Builds the workflow for a random DAG; every sink is an output.
fn dag_workflow(n: usize, edges: &[(usize, usize)]) -> Workflow {
    let mut w = Workflow::new("schedeq");
    let mut refs: Vec<NodeRef> = Vec::new();
    for i in 0..n {
        let parents: Vec<&NodeRef> = edges
            .iter()
            .filter(|&&(_, dst)| dst == i)
            .map(|&(src, _)| &refs[src])
            .collect();
        let r = w
            .add(
                format!("n{i}"),
                OperatorKind::UserDefined(mix_udf(i as i64 + 1)),
                &parents,
            )
            .unwrap();
        refs.push(r);
    }
    for (i, r) in refs.iter().enumerate() {
        if !edges.iter().any(|&(src, _)| src == i) {
            w.output(r);
        }
    }
    w
}

/// Like [`dag_workflow`] but with data-parallelizable nodes: parentless
/// nodes are `rows`-wide iota sources, and `mask` selects which internal
/// nodes are row-wise ([`OperatorKind::RowUdf`], partitionable) versus
/// aggregating classic UDFs.
fn partitioned_dag_workflow(
    n: usize,
    edges: &[(usize, usize)],
    rows: usize,
    mask: &[bool],
) -> Workflow {
    let mut w = Workflow::new("schedeq-part");
    let mut refs: Vec<NodeRef> = Vec::new();
    for i in 0..n {
        let parents: Vec<&NodeRef> = edges
            .iter()
            .filter(|&&(_, dst)| dst == i)
            .map(|&(src, _)| &refs[src])
            .collect();
        let kind = if parents.is_empty() {
            OperatorKind::UserDefined(iota_udf(i as i64 + 1, rows))
        } else if mask[i % mask.len()] {
            OperatorKind::RowUdf(row_mix_udf(i as i64 + 1))
        } else {
            OperatorKind::UserDefined(mix_udf(i as i64 + 1))
        };
        let r = w.add(format!("n{i}"), kind, &parents).unwrap();
        refs.push(r);
    }
    for (i, r) in refs.iter().enumerate() {
        if !edges.iter().any(|&(src, _)| src == i) {
            w.output(r);
        }
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All-compute plans: identical outputs and merge order at any
    /// thread count.
    #[test]
    fn parallel_executes_random_dags_identically((n, edges) in arb_dag()) {
        let w = dag_workflow(n, &edges);
        let store = StoreOptions::new(tmpdir("fresh")).budget_bytes(1 << 24).open().unwrap();
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();

        let mut merged_seq: Vec<NodeId> = Vec::new();
        let seq = execute_plan(&w, &plan, &store, &with_threads(1), |id, _, _| {
            merged_seq.push(id);
            Ok(())
        }).unwrap();
        for threads in [2, 8] {
            let mut merged_par: Vec<NodeId> = Vec::new();
            let par = execute_plan(&w, &plan, &store, &with_threads(threads), |id, _, _| {
                merged_par.push(id);
                Ok(())
            }).unwrap();
            prop_assert_eq!(&seq, &par, "outputs at {} threads", threads);
            prop_assert_eq!(&merged_seq, &merged_par, "merge order at {} threads", threads);
            // The merge callback fires once per non-pruned node at any
            // thread count.
            prop_assert_eq!(merged_par.len(), plan.compute_count() + plan.load_count());
        }
    }

    /// Mixed load/compute/prune plans: materialize a random node subset,
    /// recompile (loads now shadow ancestors), and require the parallel
    /// run to reproduce the sequential run's outputs exactly.
    #[test]
    fn parallel_handles_random_materialization_subsets(
        (n, edges) in arb_dag(),
        mask in proptest::collection::vec(any::<bool>(), 9),
    ) {
        let w = dag_workflow(n, &edges);
        let store = StoreOptions::new(tmpdir("mixed")).budget_bytes(1 << 24).open().unwrap();
        let mut cm = CostModel::new();
        // First pass computes everything so we have real outputs to
        // materialize.
        let plan0 = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let first = execute_plan(&w, &plan0, &store, &with_threads(1), |_, _, _| Ok(())).unwrap();
        for (i, node) in w.nodes().iter().enumerate() {
            cm.observe_compute(&node.name, 1.0);
            if mask[i % mask.len()] {
                let output = first[i].as_ref().unwrap();
                store.put(plan0.signatures[i], output).unwrap();
            }
        }

        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let seq = execute_plan(&w, &plan, &store, &with_threads(1), |_, _, _| Ok(())).unwrap();
        let par = execute_plan(&w, &plan, &store, &with_threads(8), |_, _, _| Ok(())).unwrap();
        prop_assert_eq!(&seq, &par);
        // Loaded results equal their original computation (reuse
        // correctness through the store round-trip).
        for (i, output) in par.iter().enumerate() {
            if let Some(output) = output {
                prop_assert_eq!(Some(output), first[i].as_ref(), "node {}", i);
            }
        }
    }

    /// Adversarial shapes: long chains feeding wide fan-outs and stacked
    /// diamonds execute identically to the sequential loop at 2 and 8
    /// threads (2 is where ready-queue/merge-cursor races bite hardest —
    /// one worker and the helping merge thread).
    #[test]
    fn adversarial_shapes_execute_identically((n, edges) in arb_adversarial_dag()) {
        let w = dag_workflow(n, &edges);
        let store = StoreOptions::new(tmpdir("adv")).budget_bytes(1 << 24).open().unwrap();
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let mut merged_seq: Vec<NodeId> = Vec::new();
        let seq = execute_plan(&w, &plan, &store, &with_threads(1), |id, _, _| {
            merged_seq.push(id);
            Ok(())
        }).unwrap();
        for threads in [2, 8] {
            let mut merged_par: Vec<NodeId> = Vec::new();
            let par = execute_plan(&w, &plan, &store, &with_threads(threads), |id, _, _| {
                merged_par.push(id);
                Ok(())
            }).unwrap();
            prop_assert_eq!(&seq, &par, "outputs at {} threads", threads);
            prop_assert_eq!(&merged_seq, &merged_par, "merge order at {} threads", threads);
        }
    }

    /// Sharded-store stress: concurrent puts racing an evictor, at shard
    /// counts from single-lock to plenty, must keep the budget ledger
    /// exact — used bytes equal the sum of surviving entries, never over
    /// budget, and every accepted entry decodes intact.
    #[test]
    fn sharded_store_keeps_budget_invariants(
        shards in prop_oneof![Just(1usize), Just(2), Just(4), Just(16)],
        writers in 2usize..5,
        per_writer in 4u64..12,
    ) {
        let entry_bytes = NodeOutput::Data(int_rows(&[1, 2])).encode().len() as u64;
        // Budget admits roughly half the candidate entries, so accepts
        // and rejects both happen while the evictor frees space.
        let budget = entry_bytes * (writers as u64 * per_writer / 2).max(2);
        let store = StoreOptions::new(tmpdir("shards")).budget_bytes(budget).shards(shards).open().unwrap();
        let total = writers as u64 * per_writer;
        std::thread::scope(|scope| {
            for w in 0..writers as u64 {
                let store = &store;
                scope.spawn(move || {
                    for k in 0..per_writer {
                        let sig = Signature(w * per_writer + k + 1);
                        let payload = NodeOutput::Data(int_rows(&[sig.0 as i64, -(sig.0 as i64)]));
                        match store.put(sig, &payload) {
                            Ok(_) => {}
                            Err(helix::core::HelixError::Store(_)) => {}
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                });
            }
            let store = &store;
            scope.spawn(move || {
                for round in 0..(total * 2) {
                    let _ = store.evict(Signature(round % total + 1));
                }
            });
        });
        let mut summed = 0u64;
        for sig in 1..=total {
            if let Some(meta) = store.lookup(Signature(sig)) {
                summed += meta.bytes;
                let (out, ..) = store.get(Signature(sig)).unwrap();
                let expect = NodeOutput::Data(int_rows(&[sig as i64, -(sig as i64)]));
                prop_assert_eq!(out, expect, "entry {} corrupt", sig);
            }
        }
        prop_assert_eq!(store.used_bytes(), summed, "ledger out of sync");
        prop_assert!(store.used_bytes() <= store.budget_bytes(), "budget exceeded");
    }

    /// Engine-level: identical reports, signatures, and version history at
    /// 1 vs N threads across two iterations of the same random workflow.
    #[test]
    fn engines_report_identically_across_thread_counts((n, edges) in arb_dag()) {
        let dir = tmpdir("engine");
        // `Never` keeps the second iteration's plan independent of
        // measured timings (materialization under the online policy is
        // timing-sensitive for microsecond UDFs and is covered by the
        // workload-scale tests in end_to_end.rs).
        let config = |suffix: &str, threads: usize| EngineConfig {
            materialization: MaterializationPolicyKind::Never,
            parallelism: threads,
            ..EngineConfig::helix(dir.join(suffix))
        };
        let seq = Engine::new(config("seq", 1)).unwrap();
        let par = Engine::new(config("par", 8)).unwrap();
        for iteration in 0..2 {
            let w = dag_workflow(n, &edges);
            let plan_seq = seq.compile_only(&w).unwrap();
            let plan_par = par.compile_only(&w).unwrap();
            prop_assert_eq!(&plan_seq.signatures, &plan_par.signatures, "signatures");
            let a = seq.run(&w).unwrap();
            let b = par.run(&w).unwrap();
            prop_assert_eq!(a.loaded(), b.loaded(), "loaded, iter {}", iteration);
            prop_assert_eq!(a.computed(), b.computed(), "computed, iter {}", iteration);
            prop_assert_eq!(a.pruned(), b.pruned(), "pruned, iter {}", iteration);
            prop_assert_eq!(&a.metrics, &b.metrics, "metrics, iter {}", iteration);
        }
        prop_assert_eq!(seq.versions().len(), par.versions().len());
    }

    /// Operator partitioning: random DAGs with a random subset of
    /// row-wise (partitionable) nodes produce identical outputs and
    /// identical plan-order merge streams across the full matrix of
    /// partition granularity {whole, ~4 slices, max slices} ×
    /// parallelism {1, 2, default}.
    #[test]
    fn partitioned_nodes_execute_identically(
        (n, edges) in arb_dag(),
        rows in 2usize..40,
        mask in proptest::collection::vec(any::<bool>(), 9),
    ) {
        let w = partitioned_dag_workflow(n, &edges, rows, &mask);
        let store = StoreOptions::new(tmpdir("part")).budget_bytes(1 << 24).open().unwrap();
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();

        let base = ExecOpts { parallelism: 1, partition_rows: usize::MAX, ..ExecOpts::default() };
        let mut merged_seq: Vec<NodeId> = Vec::new();
        let seq = execute_plan(&w, &plan, &store, &base, |id, _, _| {
            merged_seq.push(id);
            Ok(())
        }).unwrap();

        // ~4 slices: threshold of ceil(rows/4) partitions a rows-wide
        // node into 4 ranges; threshold 1 forces the per-node maximum.
        for partition_rows in [usize::MAX, rows.div_ceil(4).max(1), 1] {
            for parallelism in [1, 2, config_env::parallelism()] {
                let opts = ExecOpts { parallelism, partition_rows, ..ExecOpts::default() };
                let mut merged: Vec<NodeId> = Vec::new();
                let par = execute_plan(&w, &plan, &store, &opts, |id, _, _| {
                    merged.push(id);
                    Ok(())
                }).unwrap();
                prop_assert_eq!(
                    &seq, &par,
                    "outputs at parallelism {} / partition_rows {}", parallelism, partition_rows
                );
                prop_assert_eq!(
                    &merged_seq, &merged,
                    "merge order at parallelism {} / partition_rows {}", parallelism, partition_rows
                );
            }
        }
    }

    /// Engine-level partitioning: an engine forced to maximum operator
    /// partitioning at default parallelism reports exactly what the
    /// sequential, unpartitioned engine reports — same signatures,
    /// counts, and metrics — across two iterations.
    #[test]
    fn engines_report_identically_with_partitioning(
        (n, edges) in arb_dag(),
        rows in 2usize..40,
        mask in proptest::collection::vec(any::<bool>(), 9),
    ) {
        let dir = tmpdir("engine-part");
        let seq = Engine::new(EngineConfig {
            materialization: MaterializationPolicyKind::Never,
            parallelism: 1,
            ..EngineConfig::helix(dir.join("seq"))
        }).unwrap();
        let par = Engine::new(EngineConfig {
            materialization: MaterializationPolicyKind::Never,
            parallelism: config_env::parallelism().max(2),
            ..EngineConfig::helix(dir.join("par"))
        }.with_partition_rows(1)).unwrap();
        for iteration in 0..2 {
            let w = partitioned_dag_workflow(n, &edges, rows, &mask);
            let plan_seq = seq.compile_only(&w).unwrap();
            let plan_par = par.compile_only(&w).unwrap();
            prop_assert_eq!(&plan_seq.signatures, &plan_par.signatures, "signatures");
            let a = seq.run(&w).unwrap();
            let b = par.run(&w).unwrap();
            prop_assert_eq!(a.loaded(), b.loaded(), "loaded, iter {}", iteration);
            prop_assert_eq!(a.computed(), b.computed(), "computed, iter {}", iteration);
            prop_assert_eq!(a.pruned(), b.pruned(), "pruned, iter {}", iteration);
            prop_assert_eq!(&a.metrics, &b.metrics, "metrics, iter {}", iteration);
        }
    }
}
