//! Helix core: a declarative ML workflow system that optimizes execution
//! *across* human-in-the-loop iterations (Xin et al., VLDB 2018).
//!
//! # Architecture (paper Fig. 1c)
//!
//! * **Programming interface** — [`workflow`] provides the DSL: named
//!   operator declarations (`FieldExtractor`, `Bucketizer`,
//!   `InteractionFeature`, `Learner`, `Reducer`, UDFs) wired into a DAG of
//!   data collections.
//! * **Compilation** — [`compiler`] turns a [`workflow::Workflow`] into an
//!   optimized physical plan: Merkle-style operator
//!   [signatures](signature) drive the *iterative change tracker*, the
//!   [program slicer](slicing) prunes operators that do not contribute to
//!   outputs, and the [recomputation optimizer](recompute) picks the
//!   cost-optimal `{load, compute, prune}` state per node in PTIME via a
//!   reduction to the Project Selection Problem (`helix-mincut`).
//! * **Execution** — [`engine`] runs the plan through the ready-queue
//!   [`scheduler`] (operators execute the instant their dependencies are
//!   satisfied, on work-stealing workers; stateful outcomes merge in plan
//!   order), measures real per-operator costs, and consults the online
//!   [materialization optimizer](materialize) after every operator
//!   completes, under a storage budget enforced by the sharded
//!   [intermediate store](store).
//! * **Iteration support** — [`session`] is the serving-shaped API: a
//!   [`session::Session`] owns a live workflow plus typed edit handles and
//!   iterates over a shared `&self` engine, and a
//!   [`session::SessionManager`] multiplexes many concurrent sessions over
//!   one store; [`version`] keeps every workflow version with its metrics
//!   (the Versions/Metrics tabs of §3.1); [`viz`] renders DAGs (DOT +
//!   ASCII) and git-style version diffs.

#![warn(missing_docs)]

pub mod compiler;
pub mod config_env;
pub mod cost;
pub mod data;
pub mod engine;
pub mod error;
pub mod exec;
pub mod materialize;
pub mod memo;
pub mod ops;
pub(crate) mod persist;
pub mod pool;
pub mod recompute;
pub mod report;
pub mod scheduler;
pub mod session;
pub mod signature;
pub mod slicing;
pub mod store;
pub mod version;
pub mod viz;
pub mod workflow;

pub use engine::{Engine, EngineConfig, EngineRecovery, Lineage, OptimizerStats, RunOptions};
pub use error::HelixError;
pub use materialize::MaterializationPolicyKind;
pub use memo::{DecisionSource, MemoEntry, MemoTable, Observation, OfflineOutcome};
pub use ops::{
    EvalSpec, ExtractorKind, LearnerSpec, MetricKind, ModelType, NodeOutput, OperatorKind, Udf,
};
pub use pool::WorkerPool;
pub use recompute::{NodeState, RecomputationPolicy};
pub use report::IterationReport;
pub use scheduler::ExecOpts;
pub use session::{
    LearnerParam, Session, SessionHandle, SessionManager, UncertainExample, WorkflowEdit,
};
pub use store::{Durability, IntermediateStore, RecoveryInfo, StoreOptions};
pub use workflow::{NodeId, NodeRef, Workflow};

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, HelixError>;

/// `Mutex::lock` without poison propagation — the crate-wide policy for
/// engine, session, and scheduler state: a panicking sibling thread must
/// not wedge unrelated work, and every shared structure is only mutated
/// at well-defined merge points, so a poisoned guard's contents are
/// still consistent.
pub(crate) fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Name of the split column threaded through source collections.
pub const SPLIT_COL: &str = "__split__";
/// Split value for training rows.
pub const SPLIT_TRAIN: &str = "train";
/// Split value for held-out rows.
pub const SPLIT_TEST: &str = "test";
