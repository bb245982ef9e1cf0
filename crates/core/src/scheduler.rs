//! Ready-queue parallel plan execution with work stealing.
//!
//! [`execute_plan`] is the one entry point. At `parallelism = 1` it runs
//! the sequential loop — one node at a time in plan order, the oracle
//! every equivalence test compares against; at higher counts it runs the
//! ready-queue executor described here.
//!
//! The compiled plan's topological `order` hides abundant inter-operator
//! parallelism: Census fans one scan out into several extractors, and the
//! IE pipeline runs five independent feature UDFs over the same candidate
//! set. Earlier versions executed the plan in dependency *waves* with a
//! barrier between levels, which left speedup on the table: one slow
//! member of a wave gated every node of the next, exactly on the wide
//! DAGs where parallelism matters most.
//!
//! The executor here is barrier-free. Each non-pruned node carries an
//! atomic count of unsatisfied parents; a node becomes ready the instant
//! its last parent finishes. Workers pull ready nodes from a per-worker
//! local deque (LIFO, for locality along just-unlocked dependency
//! chains), falling back to a shared injector seeded with the initially
//! ready nodes and then to stealing from other workers' deques (FIFO, so
//! thieves take the oldest — widest-fanout — work). When the injector
//! holds more than one entry, workers pop the node with the largest
//! *downstream critical-path estimate*
//! ([`crate::recompute::critical_path_priority_us`]) instead of pure
//! FIFO: starting the longest chain first keeps its dependents flowing
//! while shallow work fills the remaining slots. Plan order breaks ties,
//! and merge semantics are untouched — the plan-order merge cursor makes
//! results independent of execution order by construction. The thread
//! count is capped at [`crate::EngineConfig::parallelism`]. The per-node
//! timings in [`ExecutedNode`] are the only execution record; the engine
//! copies them into [`crate::report::NodeReport`].
//!
//! # Determinism
//!
//! Parallel execution must be observationally identical to sequential
//! execution — the paper's reuse correctness argument ("a materialized
//! result must equal its recomputation") extends to the scheduler. Raw
//! node execution (compute or load) is free of side effects, so ready
//! nodes may run in any interleaving; everything stateful — cost-model
//! observations, the online materialization decision (which consults the
//! evolving storage budget), and metric harvesting — happens in the
//! `merge` callback, which the calling thread invokes **strictly in plan
//! order** while workers keep executing: a cursor walks `plan.order` and
//! stalls at the first node whose raw result is not yet available. The
//! merged outcome stream is therefore identical at any thread count,
//! including 1.
//!
//! # Failure determinism
//!
//! A failed run surfaces the error of the **plan-order-earliest failing
//! node**, at every thread count. When a node fails, the executor stops
//! scheduling nodes that come after it in plan order but keeps executing
//! everything before it (any earlier node could still fail and take over
//! as the reported error; plan order is topological, so all its
//! dependencies precede it too). Merges therefore commit for exactly the
//! nodes preceding the failing node in plan order — the same prefix, with
//! the same side effects (materializations, cost observations), that the
//! sequential loop commits before erroring at that same node.

use crate::compiler::CompiledPlan;
use crate::ops::NodeOutput;
use crate::pool::{Job, WorkerPool};
use crate::recompute::NodeState;
use crate::store::IntermediateStore;
use crate::workflow::{NodeId, Workflow};
use crate::{HelixError, Result};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Fallback for [`crate::config_env::partition_rows`] when `HELIX_PARTITION_ROWS`
/// is unset: measured on the scaled benchmark workloads as the smallest
/// slice for which the split/merge overhead stays well under the
/// per-slice compute time (see `docs/PERFORMANCE.md`).
pub const DEFAULT_PARTITION_ROWS: usize = 4096;

/// Hard cap on partitions per node: beyond the machine's useful fan-out,
/// more slices only add merge overhead.
const MAX_PARTITIONS: usize = 32;

/// Tuning knobs for [`execute_plan`].
#[derive(Debug, Clone)]
pub struct ExecOpts {
    /// Worker-slot budget, counting the calling thread (which merges
    /// *and* helps execute). `1` runs the classic sequential loop.
    pub parallelism: usize,
    /// Rows-per-partition threshold for data-parallel operators (see
    /// [`crate::config_env::partition_rows`]).
    pub partition_rows: usize,
    /// Per-node partition thresholds by [`NodeId::index`], overriding
    /// `partition_rows` where present. The engine derives these from the
    /// optimizer memo's observed per-row costs
    /// ([`partition_rows_for_observed`]); `None` uses the scalar
    /// threshold for every node. Purely a performance hint — partition
    /// boundaries never change results.
    pub node_partition_rows: Option<Arc<Vec<usize>>>,
    /// Worker pool to draw helper threads from. `None` falls back to a
    /// process-global pool — the engine passes its own so sessions share
    /// one warmed set of threads.
    pub pool: Option<Arc<WorkerPool>>,
}

impl Default for ExecOpts {
    fn default() -> Self {
        ExecOpts {
            parallelism: crate::config_env::parallelism(),
            partition_rows: crate::config_env::partition_rows(),
            node_partition_rows: None,
            pool: None,
        }
    }
}

/// Target wall-clock seconds per partition when sizing from observed
/// per-row cost: small enough that a partitioned node spreads across
/// workers, large enough that split/merge overhead stays negligible.
const TARGET_PARTITION_SECS: f64 = 0.005;

/// Derives a rows-per-partition threshold from a memo-observed per-row
/// compute cost: enough rows that one partition takes about
/// `TARGET_PARTITION_SECS` (5 ms), clamped to a sane range. Falls back
/// to `fallback` when the observation is degenerate.
pub fn partition_rows_for_observed(per_row_secs: f64, fallback: usize) -> usize {
    if !per_row_secs.is_finite() || per_row_secs <= 0.0 {
        return fallback.max(1);
    }
    let rows = (TARGET_PARTITION_SECS / per_row_secs).round();
    // Clamp: never slice finer than 64 rows (overhead) and never demand
    // more than ~1M rows per slice (that disables partitioning outright
    // for any realistic input, which is the right call for ultra-cheap
    // per-row operators).
    (rows as usize).clamp(64, 1 << 20)
}

/// Process-global worker pool for standalone [`execute_plan`] callers
/// (the engine owns its own). Never dropped — its threads park idle for
/// the life of the process.
fn global_pool() -> &'static Arc<WorkerPool> {
    static POOL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(WorkerPool::new()))
}

/// The raw, side-effect-free result of running one node.
#[derive(Debug)]
pub struct ExecutedNode {
    /// Wall-clock seconds spent computing or loading this node.
    pub secs: f64,
    /// `Some(bytes_read)` when the node was loaded from the store,
    /// `None` when it was computed.
    pub loaded_bytes: Option<u64>,
    /// Number of data-chunk partitions served from the store while
    /// *computing* this node (see [`crate::slicing::chunk_plan`]); `0`
    /// for whole-node loads and chunk-free computes.
    pub chunks_loaded: usize,
}

/// Raw per-node result held until the merge cursor reaches it.
struct RawResult {
    output: NodeOutput,
    executed: ExecutedNode,
}

/// Executes a compiled plan, invoking `merge` once per non-pruned node in
/// plan order with the node's raw result, and returns the node outputs
/// by [`NodeId::index`] (`None` for pruned nodes).
///
/// The merge callback owns every stateful step (cost observation,
/// materialization, metric harvesting); see the module docs for why that
/// split makes parallel execution deterministic. `opts.parallelism <= 1`
/// runs the sequential loop: each node executes and merges before the
/// next starts (no partitioning — one thread gains nothing from splitting
/// a node). Higher counts use the ready-queue executor, with `merge`
/// still running on the calling thread. The engine passes its persistent
/// pool in `opts`; standalone callers fall back to a process-global one.
///
/// # Errors
/// Propagates node execution failures (deterministically the
/// plan-order-earliest failing node's error) and merge failures.
pub fn execute_plan<M>(
    workflow: &Workflow,
    plan: &CompiledPlan,
    store: &IntermediateStore,
    opts: &ExecOpts,
    mut merge: M,
) -> Result<Vec<Option<NodeOutput>>>
where
    M: FnMut(NodeId, &ExecutedNode, &NodeOutput) -> Result<()>,
{
    if opts.parallelism <= 1 {
        execute_sequential(workflow, plan, store, merge)
    } else {
        execute_ready_queue(workflow, plan, store, opts, &mut merge)
    }
}

/// The sequential path: execute and merge one node at a time in plan
/// order — exactly the engine's historical iteration loop.
fn execute_sequential<M>(
    workflow: &Workflow,
    plan: &CompiledPlan,
    store: &IntermediateStore,
    mut merge: M,
) -> Result<Vec<Option<NodeOutput>>>
where
    M: FnMut(NodeId, &ExecutedNode, &NodeOutput) -> Result<()>,
{
    let n = workflow.len();
    let mut outputs: Vec<Option<NodeOutput>> = (0..n).map(|_| None).collect();
    for &id in &plan.order {
        let i = id.index();
        if plan.states[i] == NodeState::Prune {
            continue;
        }
        let raw = run_node(workflow, plan, store, id, |p| outputs[p.index()].as_ref())?;
        merge(id, &raw.executed, &raw.output)?;
        outputs[i] = Some(raw.output);
    }
    Ok(outputs)
}

// ---------------------------------------------------------------------------
// Ready-queue executor
// ---------------------------------------------------------------------------

/// Injector plus the sleep coordination for idle workers. Pushes to any
/// queue bump `notify` under this lock, so a worker that scanned every
/// queue empty while holding it cannot miss the wakeup.
struct InjectorState {
    /// Globally visible ready tasks (seeded with the dependency-free
    /// nodes; partitioned nodes fan their slices out here). With one
    /// entry it behaves as a FIFO; with more, workers pop the entry with
    /// the largest downstream critical-path estimate
    /// ([`crate::recompute::critical_path_priority_us`]), plan order
    /// breaking ties — starting the longest chain first shrinks the
    /// makespan on wide plans without touching merge semantics (the
    /// plan-order merge cursor is ordering-oblivious).
    ready: VecDeque<Task>,
}

/// One schedulable unit: a whole node, or one partition of a node whose
/// input was split for data parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    /// Execute (or, for a wide node, partition) node `i`.
    Node(usize),
    /// Execute slice `part` of a partitioned node.
    Part { node: usize, part: usize },
}

impl Task {
    fn node(self) -> usize {
        match self {
            Task::Node(i) => i,
            Task::Part { node, .. } => node,
        }
    }

    fn part(self) -> usize {
        match self {
            Task::Node(_) => 0,
            Task::Part { part, .. } => part,
        }
    }
}

/// One slice's outcome: its output plus compute seconds, or its error.
type SliceResult = std::result::Result<(NodeOutput, f64), HelixError>;

/// Fan-out bookkeeping for one partitioned node: created when the node's
/// `Task::Node` runs, completed by whichever worker finishes the last
/// slice. Slice outputs are assembled **in index order**, so the merged
/// output — and, on failure, the surfaced error (the slice holding the
/// globally first failing row) — is identical to a whole-node run.
struct PartitionState {
    /// `[start, end)` row ranges, covering the input exactly.
    ranges: Vec<(usize, usize)>,
    /// Per-slice outcome, `take`n by the assembling worker.
    outs: Vec<Mutex<Option<SliceResult>>>,
    /// Slices still running; the decrement-to-zero worker assembles.
    remaining: AtomicUsize,
}

/// Shared state of one ready-queue execution. The executor *owns* clones
/// of the workflow, plan, and store handle so pool workers (plain
/// `'static` jobs, unlike the scoped threads of earlier versions) can
/// hold it via `Arc`; the calling thread drives the merge cursor
/// concurrently.
struct ReadyExecutor {
    workflow: Workflow,
    plan: CompiledPlan,
    store: IntermediateStore,
    /// Rows-per-partition threshold ([`ExecOpts::partition_rows`]).
    partition_rows: usize,
    /// Per-node threshold overrides ([`ExecOpts::node_partition_rows`]).
    node_partition_rows: Option<Arc<Vec<usize>>>,
    /// Plan position by node index (`usize::MAX` for pruned nodes).
    pos: Vec<usize>,
    /// Downstream critical-path estimate per node (µs) — the injector's
    /// pop priority.
    prio: Vec<u64>,
    /// Non-pruned compute children to notify per node (one entry per
    /// parent edge, mirroring the initial `deps` counts).
    children: Vec<Vec<usize>>,
    /// Unsatisfied-parent counts; a node enqueues when its count hits 0.
    deps: Vec<AtomicUsize>,
    /// Write-once raw results, readable by children (for parent outputs)
    /// and by the merge cursor.
    results: Vec<OnceLock<RawResult>>,
    /// Write-once partition fan-out state per node (`set` only for nodes
    /// that actually split).
    parts: Vec<OnceLock<PartitionState>>,
    /// Plan position of the earliest failure observed so far
    /// (`usize::MAX` when none): workers skip nodes past it.
    min_fail: AtomicUsize,
    /// The earliest failure's `(plan position, error)` — authoritative
    /// where `min_fail` is the advisory fast path.
    failure: Mutex<Option<(usize, HelixError)>>,
    /// Set by the merge loop once the outcome is decided; workers exit.
    shutdown: AtomicBool,
    injector: Mutex<InjectorState>,
    /// Workers sleep here when every queue is empty.
    work_cv: Condvar,
    /// Per-worker local deques: owners push/pop the back, thieves steal
    /// from the front.
    locals: Vec<Mutex<VecDeque<Task>>>,
    /// The plan position the merge cursor is stalled on (`usize::MAX`
    /// while draining): workers skip the merger wakeup for completions
    /// that cannot advance the cursor.
    waiting_pos: AtomicUsize,
    /// Completed-node generation counter; the merge loop sleeps on it.
    progress: Mutex<u64>,
    progress_cv: Condvar,
}

impl ReadyExecutor {
    fn new(
        workflow: &Workflow,
        plan: &CompiledPlan,
        store: &IntermediateStore,
        workers: usize,
        partition_rows: usize,
        node_partition_rows: Option<Arc<Vec<usize>>>,
    ) -> Self {
        let n = workflow.len();
        let mut pos = vec![usize::MAX; n];
        for (k, id) in plan.order.iter().enumerate() {
            pos[id.index()] = k;
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut dep_counts = vec![0usize; n];
        for &id in &plan.order {
            let i = id.index();
            if plan.states[i] != NodeState::Compute {
                continue;
            }
            for parent in &workflow.node(id).parents {
                let p = parent.index();
                if plan.states[p] != NodeState::Prune {
                    children[p].push(i);
                    dep_counts[i] += 1;
                }
            }
        }
        let mut ready = VecDeque::new();
        for &id in &plan.order {
            let i = id.index();
            if plan.states[i] != NodeState::Prune && dep_counts[i] == 0 {
                ready.push_back(Task::Node(i));
            }
        }
        let prio = crate::recompute::critical_path_priority_us(workflow, &plan.states, &plan.costs);
        ReadyExecutor {
            workflow: workflow.clone(),
            plan: plan.clone(),
            store: store.clone(),
            partition_rows,
            node_partition_rows,
            pos,
            prio,
            children,
            deps: dep_counts.into_iter().map(AtomicUsize::new).collect(),
            results: (0..n).map(|_| OnceLock::new()).collect(),
            parts: (0..n).map(|_| OnceLock::new()).collect(),
            min_fail: AtomicUsize::new(usize::MAX),
            failure: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            injector: Mutex::new(InjectorState { ready }),
            work_cv: Condvar::new(),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            waiting_pos: AtomicUsize::new(usize::MAX),
            progress: Mutex::new(0),
            progress_cv: Condvar::new(),
        }
    }

    /// Pops the injector entry with the highest downstream
    /// critical-path priority (plan order breaks ties, then lower slice
    /// index; a single entry pops straight off the front). The injector
    /// is short-lived and small — seeded ready tasks drain into local
    /// deques immediately — so a linear scan beats maintaining a heap.
    fn pop_injector(&self, injector: &mut InjectorState) -> Option<Task> {
        if injector.ready.len() <= 1 {
            return injector.ready.pop_front();
        }
        let key = |t: Task| {
            let i = t.node();
            (
                self.prio[i],
                std::cmp::Reverse(self.pos[i]),
                std::cmp::Reverse(t.part()),
            )
        };
        let mut best = 0usize;
        for k in 1..injector.ready.len() {
            if key(injector.ready[k]) > key(injector.ready[best]) {
                best = k;
            }
        }
        injector.ready.remove(best)
    }

    /// Pops the next ready node for worker `me`: own deque (LIFO), then
    /// the injector (highest critical-path priority first), then stealing
    /// (FIFO); sleeps when everything is empty. Returns `None` on
    /// shutdown.
    fn next_task(&self, me: usize) -> Option<Task> {
        if self.shutdown.load(Ordering::Acquire) {
            return None;
        }
        if let Some(t) = lock(&self.locals[me]).pop_back() {
            return Some(t);
        }
        let mut injector = lock(&self.injector);
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            if let Some(t) = self.pop_injector(&mut injector) {
                return Some(t);
            }
            if let Some(t) = self.steal(me) {
                return Some(t);
            }
            // Pushes notify under the injector lock, which we hold since
            // the scans above — no wakeup can slip past into the wait.
            injector = self
                .work_cv
                .wait(injector)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn steal(&self, me: usize) -> Option<Task> {
        for (w, victim) in self.locals.iter().enumerate() {
            if w == me {
                continue;
            }
            if let Some(t) = lock(victim).pop_front() {
                return Some(t);
            }
        }
        None
    }

    /// Executes one task on worker `me`. Returns a follow-on task for the
    /// worker to continue into directly (chains never touch the queues).
    fn run_task(&self, me: usize, task: Task) -> Option<Task> {
        match task {
            Task::Node(i) => self.run_node_task(me, i),
            Task::Part { node, part } => self.run_part(me, node, part),
        }
    }

    /// Collects the already-computed outputs of `id`'s parents, in
    /// declaration order (the same order `exec::execute` sees).
    fn parent_outputs(&self, id: NodeId) -> Result<Vec<&NodeOutput>> {
        let node = self.workflow.node(id);
        let mut outputs = Vec::with_capacity(node.parents.len());
        for parent in &node.parents {
            outputs.push(
                self.results[parent.index()]
                    .get()
                    .map(|raw| &raw.output)
                    .ok_or_else(|| {
                        HelixError::Exec(format!(
                            "parent `{}` of `{}` unavailable (plan bug)",
                            self.workflow.node(*parent).name,
                            node.name
                        ))
                    })?,
            );
        }
        Ok(outputs)
    }

    /// Executes node `i` on worker `me` — splitting it into partitions
    /// first when it is a wide data-parallel compute node — recording the
    /// result, enqueuing any children it readies, and waking the merge
    /// cursor when the completion can advance it.
    /// Effective rows-per-partition threshold for node `i`: the memo-
    /// derived per-node override when present, otherwise the scalar knob.
    fn threshold_for(&self, i: usize) -> usize {
        self.node_partition_rows
            .as_ref()
            .and_then(|rows| rows.get(i).copied())
            .unwrap_or(self.partition_rows)
            .max(1)
    }

    fn run_node_task(&self, me: usize, i: usize) -> Option<Task> {
        if self.shutdown.load(Ordering::Acquire) {
            // A merge error ended the run; stop chaining continuations.
            return None;
        }
        if self.pos[i] > self.min_fail.load(Ordering::Acquire) {
            // Past the earliest failure in plan order: the sequential loop
            // would never have reached this node, so drop it unexecuted.
            return None;
        }
        let id = NodeId(i as u32);
        if self.plan.states[i] == NodeState::Compute && self.locals.len() > 1 {
            if let Ok(parents) = self.parent_outputs(id) {
                let rows = crate::exec::partitionable_rows(&self.workflow.node(id).kind, &parents);
                if let Some(rows) = rows {
                    if rows >= self.threshold_for(i).saturating_mul(2) {
                        drop(parents);
                        return self.start_partitioned(me, i, rows);
                    }
                }
            }
            // A missing parent falls through to `run_node`, which reports
            // the plan bug with the standard error.
        }
        let outcome = run_node(&self.workflow, &self.plan, &self.store, id, |p| {
            self.results[p.index()].get().map(|raw| &raw.output)
        });
        let continuation = match outcome {
            Ok(raw) => self.finish_ok(me, i, raw),
            Err(err) => {
                self.record_failure(self.pos[i], err);
                None
            }
        };
        self.wake_merger(i);
        continuation
    }

    /// Splits ready node `i` (whose first data input holds `rows` rows)
    /// into deterministic, even row ranges, fans slices 1.. out through
    /// the injector for idle workers to grab, and runs slice 0 itself.
    /// The partition count depends only on `rows` and the threshold —
    /// never on how many workers happen to be idle — so the split (and
    /// with it every slice boundary) is reproducible run to run.
    fn start_partitioned(&self, me: usize, i: usize, rows: usize) -> Option<Task> {
        let threshold = self.threshold_for(i);
        let count = rows
            .div_ceil(threshold)
            .min(MAX_PARTITIONS)
            .min(rows)
            .max(1);
        let base = rows / count;
        let extra = rows % count;
        let mut ranges = Vec::with_capacity(count);
        let mut start = 0usize;
        for k in 0..count {
            let len = base + usize::from(k < extra);
            ranges.push((start, start + len));
            start += len;
        }
        debug_assert_eq!(start, rows, "ranges must cover the input exactly");
        let state = PartitionState {
            ranges,
            outs: (0..count).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(count),
        };
        let set = self.parts[i].set(state);
        debug_assert!(set.is_ok(), "node partitioned twice");
        if count > 1 {
            // Publish the sibling slices before running our own, so idle
            // workers overlap with slice 0. Notify under the injector
            // lock (see `next_task` for why that cannot miss a sleeper).
            let mut injector = lock(&self.injector);
            for part in 1..count {
                injector.ready.push_back(Task::Part { node: i, part });
            }
            for _ in 1..count {
                self.work_cv.notify_one();
            }
        }
        self.run_part(me, i, 0)
    }

    /// Executes one slice of a partitioned node; the worker that finishes
    /// the last slice assembles the outputs and completes the node.
    fn run_part(&self, me: usize, node_idx: usize, part: usize) -> Option<Task> {
        if self.shutdown.load(Ordering::Acquire) {
            return None;
        }
        if self.pos[node_idx] > self.min_fail.load(Ordering::Acquire) {
            // The node can no longer merge (an earlier failure wins), so
            // drop the slice: `remaining` never reaches zero and the node
            // simply never completes — the merge cursor stops first.
            return None;
        }
        let state = self.parts[node_idx]
            .get()
            .expect("slices are enqueued only after the partition state is set");
        let id = NodeId(node_idx as u32);
        let node = self.workflow.node(id);
        let (start, end) = state.ranges[part];
        let outcome = (|| {
            let parents = self.parent_outputs(id)?;
            let started = Instant::now();
            // Same panic conversion — and message — as `run_node`, so a
            // row's panic reads identically whether its node split or not.
            let output = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                crate::exec::execute_slice(&node.kind, &node.name, &parents, start, end)
            }))
            .unwrap_or_else(|payload| {
                Err(HelixError::Exec(format!(
                    "node `{}` panicked: {}",
                    node.name,
                    panic_message(&*payload)
                )))
            })?;
            Ok((output, started.elapsed().as_secs_f64()))
        })();
        *lock(&state.outs[part]) = Some(outcome);
        if state.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        // Last slice home: assemble in index order. The first error by
        // slice index holds the globally first failing row, matching the
        // error a whole-node run reports; a node's cost is the *sum* of
        // its slice times (the work done, not the wall time).
        let mut outputs = Vec::with_capacity(state.outs.len());
        let mut total_secs = 0.0;
        let mut first_err: Option<HelixError> = None;
        for cell in &state.outs {
            match lock(cell).take() {
                Some(Ok((output, secs))) => {
                    outputs.push(output);
                    total_secs += secs;
                }
                Some(Err(err)) => {
                    first_err = Some(err);
                    break;
                }
                None => {
                    debug_assert!(false, "slice finished without recording an outcome");
                    first_err = Some(HelixError::Exec(format!(
                        "node `{}`: partition outcome missing (scheduler bug)",
                        node.name
                    )));
                    break;
                }
            }
        }
        let continuation = match first_err {
            Some(err) => {
                self.record_failure(self.pos[node_idx], err);
                None
            }
            None => match crate::exec::concat_slices(outputs) {
                Ok(output) => self.finish_ok(
                    me,
                    node_idx,
                    RawResult {
                        output,
                        executed: ExecutedNode {
                            secs: total_secs,
                            loaded_bytes: None,
                            chunks_loaded: 0,
                        },
                    },
                ),
                Err(err) => {
                    self.record_failure(self.pos[node_idx], err);
                    None
                }
            },
        };
        self.wake_merger(node_idx);
        continuation
    }

    /// Publishes node `i`'s result and readies its children: the first
    /// becomes the worker's continuation, the rest go to its local deque.
    fn finish_ok(&self, me: usize, i: usize, raw: RawResult) -> Option<Task> {
        let set = self.results[i].set(raw);
        debug_assert!(set.is_ok(), "node executed twice");
        let mut next = None;
        let mut pushed = 0usize;
        {
            let mut local = lock(&self.locals[me]);
            for &child in &self.children[i] {
                if self.deps[child].fetch_sub(1, Ordering::AcqRel) == 1 {
                    if next.is_none() {
                        // Run the first readied child ourselves.
                        next = Some(Task::Node(child));
                    } else {
                        local.push_back(Task::Node(child));
                        pushed += 1;
                    }
                }
            }
        }
        if pushed > 0 {
            // Notify under the injector lock: a worker that scanned every
            // queue empty holds it until its wait, so the wakeup cannot
            // slip past (see `next_task`). One wakeup per item avoids a
            // thundering herd.
            let _guard = lock(&self.injector);
            for _ in 0..pushed {
                self.work_cv.notify_one();
            }
        }
        next
    }

    /// Wakes the merge cursor if node `i`'s completion can unblock it —
    /// i.e. it is at (or, for failures, before) the published stall
    /// position. The merger re-checks after publishing, so a stale read
    /// here at worst delays it one timed-wait tick.
    fn wake_merger(&self, i: usize) {
        if self.pos[i] <= self.waiting_pos.load(Ordering::SeqCst) {
            let mut progress = lock(&self.progress);
            *progress += 1;
            self.progress_cv.notify_one();
        }
    }

    fn worker(&self, me: usize) {
        while let Some(mut t) = self.next_task(me) {
            while let Some(next) = self.run_task(me, t) {
                t = next;
            }
        }
    }

    /// Records a failure if it is the plan-order-earliest seen so far.
    /// Execution continues for earlier nodes only (see module docs).
    fn record_failure(&self, pos: usize, err: HelixError) {
        let mut failure = lock(&self.failure);
        if failure.as_ref().is_none_or(|(p, _)| pos < *p) {
            *failure = Some((pos, err));
        }
        self.min_fail.fetch_min(pos, Ordering::AcqRel);
    }

    /// Pops a ready node for the helping merge thread (its own deque,
    /// the injector, then a steal) without ever sleeping.
    fn try_pop(&self, me: usize) -> Option<Task> {
        if let Some(t) = lock(&self.locals[me]).pop_back() {
            return Some(t);
        }
        if let Some(t) = self.pop_injector(&mut lock(&self.injector)) {
            return Some(t);
        }
        self.steal(me)
    }

    /// Drives the plan-order merge cursor on the calling thread while
    /// workers execute; whenever the cursor is stalled the caller *helps*
    /// by executing ready nodes itself (slot `me`), so merging costs no
    /// dedicated thread. Returns when every node has merged, when the
    /// cursor reaches a node that failed (all earlier nodes having
    /// merged, making that failure final), or when `merge` itself errors.
    fn merge_and_help<M>(&self, me: usize, merge: &mut M) -> Result<()>
    where
        M: FnMut(NodeId, &ExecutedNode, &NodeOutput) -> Result<()>,
    {
        let mut cursor = 0usize;
        let mut seen = 0u64;
        // A continuation readied by the caller's last helped task; merging
        // still takes priority over running it.
        let mut pending: Option<Task> = None;
        loop {
            self.waiting_pos.store(usize::MAX, Ordering::SeqCst);
            while cursor < self.plan.order.len() {
                let id = self.plan.order[cursor];
                let i = id.index();
                if self.plan.states[i] == NodeState::Prune {
                    cursor += 1;
                    continue;
                }
                match self.results[i].get() {
                    Some(raw) => {
                        merge(id, &raw.executed, &raw.output)?;
                        cursor += 1;
                    }
                    None => break,
                }
            }
            if cursor >= self.plan.order.len() {
                return Ok(());
            }
            {
                let mut failure = lock(&self.failure);
                if let Some((pos, _)) = failure.as_ref() {
                    // The cursor merged everything before `pos`, so no
                    // plan-order-earlier failure can still happen: this
                    // error is final and deterministic.
                    if *pos == cursor {
                        let (_, err) = failure.take().expect("failure checked above");
                        return Err(err);
                    }
                }
            }
            // Stalled: execute a ready task instead of sleeping.
            if let Some(t) = pending.take().or_else(|| self.try_pop(me)) {
                pending = self.run_task(me, t);
                continue;
            }
            // Nothing to help with. Publish the stall position, then
            // re-check it: a worker that completed this node just before
            // the publish skipped the wakeup, so the decision to sleep
            // must come after.
            self.waiting_pos.store(cursor, Ordering::SeqCst);
            if self.results[self.plan.order[cursor].index()]
                .get()
                .is_some()
                || lock(&self.failure)
                    .as_ref()
                    .is_some_and(|(pos, _)| *pos == cursor)
            {
                continue;
            }
            let progress = lock(&self.progress);
            if *progress == seen {
                // Timed wait as a belt-and-braces backstop: a missed
                // wakeup costs one tick, never a hang.
                let (progress, _timeout) = self
                    .progress_cv
                    .wait_timeout(progress, std::time::Duration::from_millis(2))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                seen = *progress;
            } else {
                seen = *progress;
            }
        }
    }
}

// UDF panics are converted to errors inside [`run_node`], so the
// crate-wide poison-ignoring `lock` is safe here too: a panicking worker
// must not wedge its siblings.
use crate::lock;

/// Helpers bump this counter as their very last act (after dropping
/// their executor handle); the caller waits for it to reach the number
/// of helpers it actually started before reclaiming the executor.
#[derive(Default)]
struct DoneSignal {
    count: Mutex<usize>,
    cv: Condvar,
}

impl DoneSignal {
    fn signal(&self) {
        *lock(&self.count) += 1;
        self.cv.notify_all();
    }

    fn wait_for(&self, target: usize) {
        let mut count = lock(&self.count);
        while *count < target {
            count = self
                .cv
                .wait(count)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// The barrier-free executor: persistent-pool workers race through the
/// dependency DAG while the calling thread merges in plan order.
fn execute_ready_queue<M>(
    workflow: &Workflow,
    plan: &CompiledPlan,
    store: &IntermediateStore,
    opts: &ExecOpts,
    merge: &mut M,
) -> Result<Vec<Option<NodeOutput>>>
where
    M: FnMut(NodeId, &ExecutedNode, &NodeOutput) -> Result<()>,
{
    let n = workflow.len();
    let executable = plan
        .states
        .iter()
        .filter(|&&s| s != NodeState::Prune)
        .count();
    if executable == 0 {
        return Ok((0..n).map(|_| None).collect());
    }
    // The calling thread is a full participant (it merges *and* helps
    // execute), so it takes one of the `parallelism` slots. Unlike
    // earlier versions, `executable` does not cap the slot count: a plan
    // of few wide nodes still fans out via partitions.
    let slots = opts
        .parallelism
        .clamp(2, executable.saturating_mul(MAX_PARTITIONS).max(2));
    let exec = Arc::new(ReadyExecutor::new(
        workflow,
        plan,
        store,
        slots,
        opts.partition_rows,
        opts.node_partition_rows.clone(),
    ));

    /// Signals shutdown on drop, so a panic unwinding out of the merge
    /// callback (or anywhere in the merge loop) still wakes sleeping
    /// workers — otherwise they would keep waiting on a run that no
    /// thread is merging, pinning their pool threads forever.
    struct ShutdownOnDrop<'a>(&'a ReadyExecutor);
    impl Drop for ShutdownOnDrop<'_> {
        fn drop(&mut self) {
            self.0.shutdown.store(true, Ordering::Release);
            let _guard = lock(&self.0.injector);
            self.0.work_cv.notify_all();
        }
    }

    let pool = opts
        .pool
        .clone()
        .unwrap_or_else(|| Arc::clone(global_pool()));
    let done = Arc::new(DoneSignal::default());
    let mut started = 0usize;
    for w in 0..slots - 1 {
        let exec = Arc::clone(&exec);
        let done = Arc::clone(&done);
        let job: Job = Box::new(move || {
            exec.worker(w);
            // Drop our executor handle *before* signalling, so the
            // caller's `Arc::try_unwrap` succeeds once the count is in.
            drop(exec);
            done.signal();
        });
        if pool.try_spawn(job) {
            started += 1;
        } else {
            // Pool saturated: run with fewer helpers rather than queue
            // behind other runs — the caller executes either way.
            break;
        }
    }

    let stop = ShutdownOnDrop(&exec);
    let outcome = exec.merge_and_help(slots - 1, merge);
    drop(stop);
    done.wait_for(started);
    let mut exec = exec;
    let exec = loop {
        match Arc::try_unwrap(exec) {
            Ok(exec) => break exec,
            Err(shared) => {
                // A helper has bumped the counter but its `drop(exec)`
                // write is still propagating; spin briefly.
                exec = shared;
                std::thread::yield_now();
            }
        }
    };
    outcome?;

    Ok(exec
        .results
        .into_iter()
        .map(|cell| cell.into_inner().map(|raw| raw.output))
        .collect())
}

/// Executes a single node (load or compute), timing it. A panicking
/// operator is converted to [`HelixError::Exec`] *here* — not at thread
/// joins — so a UDF panic produces the same error whether the node ran
/// inline or on any worker.
fn run_node<'a>(
    workflow: &Workflow,
    plan: &CompiledPlan,
    store: &IntermediateStore,
    id: NodeId,
    parent_output: impl Fn(NodeId) -> Option<&'a NodeOutput>,
) -> Result<RawResult> {
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_node_inner(workflow, plan, store, id, parent_output)
    }));
    unwound.unwrap_or_else(|payload| {
        Err(HelixError::Exec(format!(
            "node `{}` panicked: {}",
            workflow.node(id).name,
            panic_message(&*payload)
        )))
    })
}

/// Renders a caught panic payload as a message: UDF panics carry a
/// `&str` or `String`; anything else gets a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string payload>".to_string()
    }
}

fn run_node_inner<'a>(
    workflow: &Workflow,
    plan: &CompiledPlan,
    store: &IntermediateStore,
    id: NodeId,
    parent_output: impl Fn(NodeId) -> Option<&'a NodeOutput>,
) -> Result<RawResult> {
    let i = id.index();
    match plan.states[i] {
        NodeState::Prune => Err(HelixError::Exec(format!(
            "pruned node `{}` scheduled (plan bug)",
            workflow.node(id).name
        ))),
        NodeState::Load => {
            let (output, bytes, secs) = store.get(plan.signatures[i])?;
            Ok(RawResult {
                output,
                executed: ExecutedNode {
                    secs,
                    loaded_bytes: Some(bytes),
                    chunks_loaded: 0,
                },
            })
        }
        NodeState::Compute => {
            let node = workflow.node(id);
            let mut parent_outputs: Vec<&NodeOutput> = Vec::with_capacity(node.parents.len());
            for parent in &node.parents {
                parent_outputs.push(parent_output(*parent).ok_or_else(|| {
                    HelixError::Exec(format!(
                        "parent `{}` of `{}` unavailable (plan bug)",
                        workflow.node(*parent).name,
                        node.name
                    ))
                })?);
            }
            let started = Instant::now();
            let (output, chunks_loaded) =
                match assemble_from_chunks(workflow, plan, store, i, &parent_outputs)? {
                    Some(assembled) => assembled,
                    None => (
                        crate::exec::execute(&node.kind, &node.name, &parent_outputs)?,
                        0,
                    ),
                };
            Ok(RawResult {
                output,
                executed: ExecutedNode {
                    secs: started.elapsed().as_secs_f64(),
                    loaded_bytes: None,
                    chunks_loaded,
                },
            })
        }
    }
}

/// The incremental-data fast path: when a computing node carries chunk
/// structure ([`CompiledPlan::chunks`]) and some of its partition
/// signatures are materialized, its output is assembled partition by
/// partition — store hits are loaded, misses are computed with
/// [`crate::exec::execute_slice`] over exactly their row range — and
/// concatenated. Because partition signatures are content-derived, the
/// assembled output is byte-identical to a whole-node compute; after a
/// data delta only the partitions of new chunks miss.
///
/// `Ok(None)` means "no usable chunk entries; compute the node whole":
/// zero hits, an unsliceable operator (a source reads files, not row
/// ranges, so it reuses only on a full hit set), or entries that were
/// evicted between probe and read.
fn assemble_from_chunks(
    workflow: &Workflow,
    plan: &CompiledPlan,
    store: &IntermediateStore,
    i: usize,
    parent_outputs: &[&NodeOutput],
) -> Result<Option<(NodeOutput, usize)>> {
    let Some(chunks) = plan.chunks.get(i).and_then(|c| c.as_ref()) else {
        return Ok(None);
    };
    if chunks.ranges.is_empty() {
        return Ok(None);
    }
    let node = workflow.node(NodeId(i as u32));
    let hits: Vec<bool> = chunks
        .psigs
        .iter()
        .map(|&sig| store.lookup(sig).is_some())
        .collect();
    let hit_count = hits.iter().filter(|h| **h).count();
    if hit_count == 0 {
        return Ok(None);
    }
    let sliceable = crate::exec::partitionable_rows(&node.kind, parent_outputs).is_some();
    if !sliceable && hit_count < hits.len() {
        return Ok(None);
    }
    let mut parts = Vec::with_capacity(chunks.ranges.len());
    let mut loaded = 0usize;
    for (k, &(start, end)) in chunks.ranges.iter().enumerate() {
        if hits[k] {
            if let Ok((output, _, _)) = store.get(chunks.psigs[k]) {
                parts.push(output);
                loaded += 1;
                continue;
            }
            if !sliceable {
                return Ok(None);
            }
        }
        parts.push(crate::exec::execute_slice(
            &node.kind,
            &node.name,
            parent_outputs,
            start,
            end,
        )?);
    }
    if loaded == 0 {
        return Ok(None);
    }
    Ok(Some((crate::exec::concat_slices(parts)?, loaded)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use crate::cost::CostModel;
    use crate::ops::{OperatorKind, Udf};
    use crate::recompute::RecomputationPolicy;
    use crate::workflow::NodeRef;
    use helix_dataflow::{DataCollection, DataType, Row, Schema, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tmp_store(tag: &str) -> IntermediateStore {
        let dir =
            std::env::temp_dir().join(format!("helix-scheduler-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        crate::store::StoreOptions::new(dir)
            .budget_bytes(1 << 24)
            .open()
            .unwrap()
    }

    /// Default options at an explicit thread count.
    fn with_threads(parallelism: usize) -> ExecOpts {
        ExecOpts {
            parallelism,
            ..ExecOpts::default()
        }
    }

    fn int_rows(values: &[i64]) -> DataCollection {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let rows = values.iter().map(|&v| Row(vec![Value::Int(v)])).collect();
        DataCollection::from_rows_unchecked(schema, rows)
    }

    /// A deterministic UDF: sums all parent cells and appends `salt`.
    fn sum_udf(salt: i64) -> Udf {
        Udf::new(format!("sum:{salt}"), move |inputs| {
            let mut total = salt;
            for dc in inputs {
                for row in dc.rows() {
                    total += row.get(0).as_int().unwrap_or(0);
                }
            }
            Ok(int_rows(&[total]))
        })
    }

    /// Random-ish DAG: node i gets edges from the given pairs.
    fn dag(n: usize, edges: &[(usize, usize)], outputs: &[usize]) -> Workflow {
        let mut w = Workflow::new("sched-test");
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
                    OperatorKind::UserDefined(sum_udf(i as i64 + 1)),
                    &parents,
                )
                .unwrap();
            refs.push(r);
        }
        for &o in outputs {
            w.output(&refs[o]);
        }
        w
    }

    fn run(w: &Workflow, parallelism: usize) -> (Vec<Option<NodeOutput>>, Vec<NodeId>) {
        let store = tmp_store(&format!("run-{parallelism}-{}", w.len()));
        let cm = CostModel::new();
        let plan = compile(w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let mut merged = Vec::new();
        let result = execute_plan(w, &plan, &store, &with_threads(parallelism), |id, _, _| {
            merged.push(id);
            Ok(())
        })
        .unwrap();
        (result, merged)
    }

    #[test]
    fn parallel_outputs_match_sequential() {
        let w = dag(
            6,
            &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5), (4, 5)],
            &[5],
        );
        let (seq, seq_merged) = run(&w, 1);
        let (par, par_merged) = run(&w, 4);
        assert_eq!(seq, par);
        assert_eq!(seq_merged, par_merged, "merge order must be plan order");
    }

    #[test]
    fn thread_counts_agree_on_outputs_and_merge_order() {
        let w = dag(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (2, 4),
                (3, 5),
                (4, 5),
                (0, 6),
            ],
            &[5, 6],
        );
        let store = tmp_store("strategies");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        // Parallelism 1 is the sequential loop, the oracle; 2 and 4 run
        // the ready queue through the same entry point.
        let mut reference: Option<(Vec<Option<NodeOutput>>, Vec<NodeId>)> = None;
        for parallelism in [1, 2, 4] {
            let mut merged = Vec::new();
            let result = execute_plan(&w, &plan, &store, &with_threads(parallelism), |id, _, _| {
                merged.push(id);
                Ok(())
            })
            .unwrap();
            match &reference {
                None => reference = Some((result, merged)),
                Some((outputs, order)) => {
                    assert_eq!(outputs, &result, "parallelism {parallelism} outputs");
                    assert_eq!(order, &merged, "parallelism {parallelism} merge order");
                }
            }
        }
    }

    #[test]
    fn merge_order_is_plan_order_even_when_levels_interleave() {
        // 0 -> 1 (output), 0 -> 2 -> 3 (output), with node 2 materialized
        // so it plans as a dependency-free Load. Plan order is [0, 1, 2, 3]
        // but node 2 is ready immediately and node 3 right after it — both
        // can finish before node 1, yet 2 and 3 must still merge in plan
        // position, after 1.
        let w = dag(4, &[(0, 1), (0, 2), (2, 3)], &[1, 3]);
        let store = tmp_store("interleave");
        let mut cm = CostModel::new();
        for node in w.nodes() {
            cm.observe_compute(&node.name, 1.0);
        }
        let sigs = crate::signature::compute_signatures(&w).unwrap();
        // Node 2's recorded output: salt 3 + parent 0's output (salt 1).
        store
            .put(sigs[2], &NodeOutput::Data(int_rows(&[4])))
            .unwrap();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        assert_eq!(plan.order, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(plan.states[2], NodeState::Load);
        let mut merged = Vec::new();
        let result = execute_plan(&w, &plan, &store, &with_threads(4), |id, _, _| {
            merged.push(id);
            Ok(())
        })
        .unwrap();
        assert_eq!(merged, plan.order, "merge must follow plan order");
        // Node 3 = salt 4 + loaded parent value 4.
        assert_eq!(result[3], Some(NodeOutput::Data(int_rows(&[8]))));
    }

    #[test]
    fn worker_errors_surface_deterministically() {
        let mut w = Workflow::new("err");
        let root = w
            .add("root", OperatorKind::UserDefined(sum_udf(0)), &[])
            .unwrap();
        // Two failing siblings: the plan-order-earlier one must win
        // regardless of which thread finishes first.
        for tag in ["fail_a", "fail_b"] {
            let udf = Udf::new(
                format!("boom:{tag}"),
                move |_inputs: &[&DataCollection]| -> crate::Result<DataCollection> {
                    Err(HelixError::Exec(format!("{tag} failed")))
                },
            );
            let r = w
                .add(tag, OperatorKind::UserDefined(udf), &[&root])
                .unwrap();
            w.output(&r);
        }
        let store = tmp_store("err");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let mut merged_by_mode: Vec<Vec<NodeId>> = Vec::new();
        for parallelism in [1, 4] {
            let mut merged = Vec::new();
            let err = execute_plan(&w, &plan, &store, &with_threads(parallelism), |id, _, _| {
                merged.push(id);
                Ok(())
            })
            .expect_err("failing UDF must propagate");
            assert!(
                err.to_string().contains("fail_a failed"),
                "expected fail_a first at parallelism {parallelism}, got: {err}"
            );
            merged_by_mode.push(merged);
        }
        // Both modes commit the same plan-order prefix before erroring:
        // the successful root, nothing at or after the failing node.
        assert_eq!(merged_by_mode[0], merged_by_mode[1]);
        assert_eq!(merged_by_mode[0], vec![NodeId(0)]);
    }

    #[test]
    fn failure_commits_sequential_prefix_and_records_timings() {
        // root -> ok (pos 1) -> tail (pos 3), root -> boom (pos 2).
        // Plan order is [root, ok, boom, tail]: the sequential loop runs
        // root and ok, fails at boom, and never reaches tail. The ready
        // queue may have tail in flight, but it must commit exactly the
        // same merge prefix — with real timings for the completed nodes —
        // and surface boom's error, at every thread count.
        let mut w = Workflow::new("fail-prefix");
        let root = w
            .add("root", OperatorKind::UserDefined(sum_udf(0)), &[])
            .unwrap();
        let ok = w
            .add("ok", OperatorKind::UserDefined(sum_udf(10)), &[&root])
            .unwrap();
        let boom = Udf::new(
            "boom",
            move |_inputs: &[&DataCollection]| -> crate::Result<DataCollection> {
                Err(HelixError::Exec("boom failed".into()))
            },
        );
        let boom = w
            .add("boom", OperatorKind::UserDefined(boom), &[&root])
            .unwrap();
        let tail = w
            .add("tail", OperatorKind::UserDefined(sum_udf(20)), &[&ok])
            .unwrap();
        w.output(&boom);
        w.output(&tail);
        let store = tmp_store("fail-prefix");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let mut merged_by_mode: Vec<Vec<(NodeId, f64)>> = Vec::new();
        for parallelism in [1, 2, 8] {
            let mut merged = Vec::new();
            let err = execute_plan(
                &w,
                &plan,
                &store,
                &with_threads(parallelism),
                |id, executed, _| {
                    merged.push((id, executed.secs));
                    Ok(())
                },
            )
            .expect_err("boom must propagate");
            assert!(
                err.to_string().contains("boom failed"),
                "parallelism {parallelism}: {err}"
            );
            assert!(
                merged.iter().all(|&(_, secs)| secs >= 0.0),
                "completed nodes carry timings"
            );
            merged_by_mode.push(merged);
        }
        for merged in &merged_by_mode {
            let ids: Vec<NodeId> = merged.iter().map(|&(id, _)| id).collect();
            assert_eq!(
                ids,
                vec![NodeId(0), NodeId(1)],
                "exactly the sequential pre-failure prefix merges"
            );
        }
    }

    #[test]
    fn worker_panic_becomes_error() {
        let mut w = Workflow::new("panic");
        let root = w
            .add("root", OperatorKind::UserDefined(sum_udf(0)), &[])
            .unwrap();
        // Enough panicking siblings that execution actually fans out.
        for i in 0..4 {
            let udf = Udf::new(
                format!("panic:{i}"),
                move |_inputs: &[&DataCollection]| -> crate::Result<DataCollection> {
                    panic!("kaboom {i}")
                },
            );
            let r = w
                .add(format!("p{i}"), OperatorKind::UserDefined(udf), &[&root])
                .unwrap();
            w.output(&r);
        }
        let store = tmp_store("panic");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let err = execute_plan(&w, &plan, &store, &with_threads(4), |_, _, _| Ok(()))
            .expect_err("panicking UDF must become an error");
        assert!(err.to_string().contains("kaboom"), "got: {err}");
    }

    #[test]
    fn singleton_and_sequential_panics_become_errors_too() {
        // A panicking node with no independent siblings (like every
        // learner/evaluate node) must yield the same Err at every thread
        // count — not unwind at parallelism 1 and Err at 4.
        let mut w = Workflow::new("panic-singleton");
        let root = w
            .add("root", OperatorKind::UserDefined(sum_udf(0)), &[])
            .unwrap();
        let udf = Udf::new(
            "panic:solo",
            move |_inputs: &[&DataCollection]| -> crate::Result<DataCollection> {
                panic!("solo kaboom")
            },
        );
        let r = w
            .add("solo", OperatorKind::UserDefined(udf), &[&root])
            .unwrap();
        w.output(&r);
        let store = tmp_store("panic-solo");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        for parallelism in [1, 4] {
            let err = execute_plan(&w, &plan, &store, &with_threads(parallelism), |_, _, _| {
                Ok(())
            })
            .expect_err("panic must become an error at any thread count");
            assert!(
                err.to_string().contains("solo kaboom"),
                "parallelism {parallelism}: {err}"
            );
        }
    }

    #[test]
    fn parallelism_cap_limits_concurrency() {
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        LIVE.store(0, Ordering::SeqCst);
        PEAK.store(0, Ordering::SeqCst);
        let mut w = Workflow::new("cap");
        for i in 0..8 {
            let udf = Udf::new(format!("slow:{i}"), move |_inputs: &[&DataCollection]| {
                let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK.fetch_max(live, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(20));
                LIVE.fetch_sub(1, Ordering::SeqCst);
                Ok(int_rows(&[i]))
            });
            let r = w
                .add(format!("s{i}"), OperatorKind::UserDefined(udf), &[])
                .unwrap();
            w.output(&r);
        }
        let store = tmp_store("cap");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        execute_plan(&w, &plan, &store, &with_threads(2), |_, _, _| Ok(())).unwrap();
        let peak = PEAK.load(Ordering::SeqCst);
        assert!(peak <= 2, "parallelism 2 must cap live workers, saw {peak}");
        assert!(peak >= 2, "8 ready nodes should actually use both workers");
    }

    #[test]
    fn dependent_starts_without_waiting_for_slow_sibling() {
        // chain: a -> b, plus a slow independent node s. Under the wave
        // barrier, b sat in wave 1 behind the whole of wave 0 = {a, s}, so
        // the makespan was sleep(s) + sleep(b). The ready queue starts b
        // the moment a finishes, overlapping it with s.
        let slow_ms = 60u64;
        let step_ms = 15u64;
        let mut w = Workflow::new("no-barrier");
        let slow = Udf::new("slow", move |_inputs: &[&DataCollection]| {
            std::thread::sleep(std::time::Duration::from_millis(slow_ms));
            Ok(int_rows(&[0]))
        });
        let s = w.add("s", OperatorKind::UserDefined(slow), &[]).unwrap();
        let quick = |tag: i64| {
            Udf::new(
                format!("quick:{tag}"),
                move |_inputs: &[&DataCollection]| {
                    std::thread::sleep(std::time::Duration::from_millis(step_ms));
                    Ok(int_rows(&[tag]))
                },
            )
        };
        let a = w
            .add("a", OperatorKind::UserDefined(quick(1)), &[])
            .unwrap();
        let b = w
            .add("b", OperatorKind::UserDefined(quick(2)), &[&a])
            .unwrap();
        let c = w
            .add("c", OperatorKind::UserDefined(quick(3)), &[&b])
            .unwrap();
        w.output(&s);
        w.output(&c);
        let store = tmp_store("no-barrier");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let started = Instant::now();
        execute_plan(&w, &plan, &store, &with_threads(2), |_, _, _| Ok(())).unwrap();
        let elapsed = started.elapsed();
        // Barrier executor needs ≥ slow + 2 * step (chain stalls behind
        // the slow wave member twice); the ready queue overlaps the chain
        // with the slow node. Allow generous scheduling slack.
        let barrier_floor = std::time::Duration::from_millis(slow_ms + 2 * step_ms);
        assert!(
            elapsed < barrier_floor,
            "ready queue should overlap the chain with the slow sibling: \
             took {elapsed:?}, wave-barrier floor is {barrier_floor:?}"
        );
    }

    #[test]
    fn loads_are_ready_immediately() {
        // Materialize a mid-chain node, then recompile: the load has no
        // dependencies, executes immediately, and downstream computes
        // stack above it.
        let w = dag(3, &[(0, 1), (1, 2)], &[2]);
        let store = tmp_store("load");
        let mut cm = CostModel::new();
        for node in w.nodes() {
            cm.observe_compute(&node.name, 1.0);
        }
        let sigs = crate::signature::compute_signatures(&w).unwrap();
        store
            .put(sigs[1], &NodeOutput::Data(int_rows(&[42])))
            .unwrap();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        assert_eq!(plan.states[1], NodeState::Load);
        let result = execute_plan(&w, &plan, &store, &with_threads(4), |_, _, _| Ok(())).unwrap();
        assert_eq!(result[1], Some(NodeOutput::Data(int_rows(&[42]))));
    }

    #[test]
    #[should_panic(expected = "merge kaboom")]
    fn merge_panic_unwinds_instead_of_hanging() {
        // A panic in the merge callback must shut the workers down (the
        // ShutdownOnDrop guard) and unwind out of the scoped join — not
        // leave sleeping workers blocking the join forever.
        let w = dag(6, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)], &[4, 5, 3]);
        let store = tmp_store("mergepanic");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let _ = execute_plan(&w, &plan, &store, &with_threads(4), |_, _, _| {
            panic!("merge kaboom")
        });
    }

    #[test]
    fn merge_failure_propagates() {
        let w = dag(2, &[(0, 1)], &[1]);
        let store = tmp_store("mergefail");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let err = execute_plan(&w, &plan, &store, &with_threads(4), |_, _, _| {
            Err(HelixError::Exec("merge refused".into()))
        })
        .expect_err("merge error must propagate");
        assert!(err.to_string().contains("merge refused"));
    }

    #[test]
    fn wide_fanout_is_faster_with_threads() {
        // Smoke-level perf sanity (the real comparison lives in
        // benches/scheduler.rs): 6 independent 15 ms nodes at 6 threads
        // should beat 1 thread comfortably.
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 4 {
            return;
        }
        let build = || {
            let mut w = Workflow::new("fan");
            for i in 0..6 {
                let udf = Udf::new(
                    format!("sleep:{i}"),
                    move |_inputs: &[&DataCollection]| {
                        std::thread::sleep(std::time::Duration::from_millis(15));
                        Ok(int_rows(&[i]))
                    },
                );
                let r = w
                    .add(format!("f{i}"), OperatorKind::UserDefined(udf), &[])
                    .unwrap();
                w.output(&r);
            }
            w
        };
        let w = build();
        let store = tmp_store("fan");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let t1 = Instant::now();
        execute_plan(&w, &plan, &store, &with_threads(1), |_, _, _| Ok(())).unwrap();
        let sequential = t1.elapsed();
        let t2 = Instant::now();
        execute_plan(&w, &plan, &store, &with_threads(6), |_, _, _| Ok(())).unwrap();
        let parallel = t2.elapsed();
        assert!(
            parallel < sequential,
            "6-wide fan-out at 6 threads ({parallel:?}) should beat 1 thread ({sequential:?})"
        );
    }

    #[test]
    fn injector_pops_longest_critical_path_first() {
        // Three shallow singletons (ids 0-2) ahead of a 3-deep chain
        // (ids 3-5) in plan order. All four roots are ready at t=0 with
        // identical per-node cost estimates, so the chain head's
        // downstream tail makes it the highest-priority injector entry:
        // the first pop must take the chain head, not the
        // plan-order-first singleton a FIFO pop would pick. Pop order is
        // asserted directly on the executor (single-threaded, so it is
        // deterministic — a log written from racing workers would not
        // be); the plan is then executed for the completeness check.
        let started: Arc<std::sync::Mutex<Vec<String>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut w = Workflow::new("prio");
        let tracked = |name: &str, log: &Arc<std::sync::Mutex<Vec<String>>>| {
            let log = Arc::clone(log);
            let name = name.to_string();
            Udf::new(format!("track:{name}"), move |_: &[&DataCollection]| {
                log.lock().unwrap().push(name.clone());
                std::thread::sleep(std::time::Duration::from_millis(10));
                Ok(int_rows(&[1]))
            })
        };
        for i in 0..3 {
            let name = format!("s{i}");
            let udf = tracked(&name, &started);
            let r = w.add(&name, OperatorKind::UserDefined(udf), &[]).unwrap();
            w.output(&r);
        }
        let a = w
            .add("a", OperatorKind::UserDefined(tracked("a", &started)), &[])
            .unwrap();
        let b = w
            .add(
                "b",
                OperatorKind::UserDefined(tracked("b", &started)),
                &[&a],
            )
            .unwrap();
        let c = w
            .add(
                "c",
                OperatorKind::UserDefined(tracked("c", &started)),
                &[&b],
            )
            .unwrap();
        w.output(&c);
        let store = tmp_store("prio");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();

        let exec = ReadyExecutor::new(&w, &plan, &store, 2, usize::MAX, None);
        let mut injector = lock(&exec.injector);
        let popped: Vec<String> = std::iter::from_fn(|| exec.pop_injector(&mut injector))
            .map(|t| w.nodes()[t.node()].name.clone())
            .collect();
        drop(injector);
        assert_eq!(
            popped,
            ["a", "s0", "s1", "s2"],
            "chain head pops first (deepest downstream tail), singletons follow in plan order"
        );

        execute_plan(&w, &plan, &store, &with_threads(2), |_, _, _| Ok(())).unwrap();
        let log = started.lock().unwrap();
        assert_eq!(log.len(), 6, "every node executed");
    }

    /// Source UDF producing `0..n` ints, and a RowUdf doubling each row —
    /// the partitionable stage the tests below split.
    fn rows_workflow(n: i64) -> Workflow {
        let mut w = Workflow::new("partition");
        let src = Udf::new(format!("iota:{n}"), move |_: &[&DataCollection]| {
            Ok(int_rows(&(0..n).collect::<Vec<_>>()))
        });
        let src = w.add("src", OperatorKind::UserDefined(src), &[]).unwrap();
        let double = Udf::new("double:v1", |inputs: &[&DataCollection]| {
            let rows = inputs[0]
                .rows()
                .iter()
                .map(|r| r.get(0).as_int().unwrap_or(0) * 2)
                .collect::<Vec<_>>();
            Ok(int_rows(&rows))
        });
        let d = w.row_udf("double", &[&src], double).unwrap();
        w.output(&d);
        w
    }

    fn run_opts(
        w: &Workflow,
        opts: &ExecOpts,
        tag: &str,
    ) -> (Vec<Option<NodeOutput>>, Vec<NodeId>) {
        let store = tmp_store(tag);
        let cm = CostModel::new();
        let plan = compile(w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let mut merged = Vec::new();
        let result = execute_plan(w, &plan, &store, opts, |id, _, _| {
            merged.push(id);
            Ok(())
        })
        .unwrap();
        (result, merged)
    }

    #[test]
    fn partitioned_node_matches_sequential_output() {
        let w = rows_workflow(200);
        let (seq, seq_merged) = run_opts(
            &w,
            &ExecOpts {
                parallelism: 1,
                partition_rows: 8,
                ..ExecOpts::default()
            },
            "part-seq",
        );
        for (parallelism, partition_rows) in [(2, 8), (4, 8), (4, 1), (4, usize::MAX)] {
            let (par, par_merged) = run_opts(
                &w,
                &ExecOpts {
                    parallelism,
                    partition_rows,
                    ..ExecOpts::default()
                },
                &format!("part-{parallelism}-{partition_rows}"),
            );
            assert_eq!(
                seq, par,
                "parallelism {parallelism}, partition_rows {partition_rows}"
            );
            assert_eq!(seq_merged, par_merged, "merge order must be plan order");
        }
    }

    #[test]
    fn partition_failure_matches_sequential_error() {
        // The UDF rejects the first row it sees whose value is in the bad
        // set, scanning its slice in order — exactly what a whole-input
        // run does. The sequential loop reports value 10 (the globally
        // first bad row); every partitioned run must report the same,
        // even though the slice holding value 150 may fail first in wall
        // time.
        let mut w = Workflow::new("part-fail");
        let src = Udf::new("iota:200", move |_: &[&DataCollection]| {
            Ok(int_rows(&(0..200).collect::<Vec<_>>()))
        });
        let src = w.add("src", OperatorKind::UserDefined(src), &[]).unwrap();
        let picky = Udf::new("picky:v1", |inputs: &[&DataCollection]| {
            for r in inputs[0].rows() {
                let v = r.get(0).as_int().unwrap_or(0);
                if v == 10 || v == 150 {
                    return Err(HelixError::Exec(format!("bad row {v}")));
                }
            }
            Ok(inputs[0].clone())
        });
        let p = w.row_udf("picky", &[&src], picky).unwrap();
        w.output(&p);
        let store = tmp_store("part-fail");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let mut messages = Vec::new();
        for (parallelism, partition_rows) in [(1, 8), (4, 8), (4, 1)] {
            let opts = ExecOpts {
                parallelism,
                partition_rows,
                ..ExecOpts::default()
            };
            let err = execute_plan(&w, &plan, &store, &opts, |_, _, _| Ok(()))
                .expect_err("picky must fail");
            messages.push(err.to_string());
        }
        for msg in &messages {
            assert!(
                msg.contains("bad row 10"),
                "expected the globally first bad row, got: {msg}"
            );
        }
    }

    #[test]
    fn partitioned_panic_becomes_error() {
        let mut w = Workflow::new("part-panic");
        let src = Udf::new("iota:100", move |_: &[&DataCollection]| {
            Ok(int_rows(&(0..100).collect::<Vec<_>>()))
        });
        let src = w.add("src", OperatorKind::UserDefined(src), &[]).unwrap();
        let bomb = Udf::new("bomb:v1", |inputs: &[&DataCollection]| {
            if inputs[0].rows().iter().any(|r| r.get(0) == &Value::Int(42)) {
                panic!("slice kaboom");
            }
            Ok(inputs[0].clone())
        });
        let b = w.row_udf("bomb", &[&src], bomb).unwrap();
        w.output(&b);
        let store = tmp_store("part-panic");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let opts = ExecOpts {
            parallelism: 4,
            partition_rows: 8,
            ..ExecOpts::default()
        };
        let err = execute_plan(&w, &plan, &store, &opts, |_, _, _| Ok(()))
            .expect_err("panicking slice must surface as an error");
        let msg = err.to_string();
        assert!(
            msg.contains("node `bomb` panicked") && msg.contains("slice kaboom"),
            "got: {msg}"
        );
    }

    #[test]
    fn explicit_pool_is_reused_across_runs() {
        let pool = Arc::new(crate::pool::WorkerPool::with_max_threads(2));
        let w = rows_workflow(200);
        let opts = ExecOpts {
            parallelism: 3,
            partition_rows: 8,
            node_partition_rows: None,
            pool: Some(Arc::clone(&pool)),
        };
        let (first, _) = run_opts(&w, &opts, "pool-reuse-a");
        let (second, _) = run_opts(&w, &opts, "pool-reuse-b");
        assert_eq!(first, second);
        assert!(
            pool.threads() <= 2,
            "runs must reuse the capped pool, spawned {}",
            pool.threads()
        );
    }

    #[test]
    fn shared_udf_state_is_threadsafe() {
        // UDFs capturing shared state must see a consistent picture.
        let counter = Arc::new(AtomicUsize::new(0));
        let mut w = Workflow::new("shared");
        for i in 0..8 {
            let counter = Arc::clone(&counter);
            let udf = Udf::new(
                format!("count:{i}"),
                move |_inputs: &[&DataCollection]| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    Ok(int_rows(&[i]))
                },
            );
            let r = w
                .add(format!("c{i}"), OperatorKind::UserDefined(udf), &[])
                .unwrap();
            w.output(&r);
        }
        let store = tmp_store("shared");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        execute_plan(&w, &plan, &store, &with_threads(4), |_, _, _| Ok(())).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }
}
