//! The paper's two demo applications, with synthetic data generators and
//! the iteration scripts used to reproduce Figure 2.
//!
//! * [`census`] — §3 Application 1: income classification over structured
//!   demographic records (UCI-Adult-like, synthesized).
//! * [`news`] + [`ie`] — §3 Application 2: person-mention extraction from
//!   news articles (synthetic corpus over a name gazetteer). [`news`]
//!   additionally hosts [`news::news_workflow`], a document-density
//!   classifier over the same corpus whose wide extractor fan-out
//!   exercises the engine's parallel scheduler.
//! * [`iterations`] — the shared "human-in-the-loop" machinery: a list of
//!   workflow modifications, each tagged with the paper's iteration
//!   category (data pre-processing / ML / evaluation).
//! * [`active_learning`] — the label-driven iteration loop: rank
//!   uncertain predictions, oracle-label a batch, append the labels as a
//!   data delta, retrain with partition-level upstream reuse.

#![warn(missing_docs)]

pub mod active_learning;
pub mod census;
pub mod ie;
pub mod iterations;
pub mod news;

pub use active_learning::{run_active_learning, ActiveLearningRound, ActiveLearningSpec};
pub use iterations::{IterationSpec, IterationStage};
