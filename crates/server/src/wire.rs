//! Translation between engine types and their JSON wire shapes.
//!
//! One direction serializes [`IterationReport`], version history, and
//! diffs into [`Json`] values (the shapes documented in
//! `docs/API.md`); the other parses the typed-edit request bodies into
//! an [`EditRequest`] the routing layer applies through a
//! [`helix_core::SessionHandle`]. Parsing rejects unknown fields'
//! *values* loudly (unknown edit kinds, bad metric names) but ignores
//! extra keys, so clients can be newer than the server.

use crate::json::Json;
use helix_core::ops::{EvalSpec, MetricKind, ModelType, OperatorKind};
use helix_core::report::{IterationReport, NodeReport};
use helix_core::signature::ChangeKind;
use helix_core::version::{DagSnapshot, VersionDiff, WorkflowVersion};
use helix_core::{LearnerParam, LearnerSpec, NodeState};

/// Stable wire name of a plan state.
pub fn node_state_str(state: NodeState) -> &'static str {
    match state {
        NodeState::Load => "load",
        NodeState::Compute => "compute",
        NodeState::Prune => "prune",
    }
}

/// Stable wire name of a change kind.
pub fn change_kind_str(change: ChangeKind) -> &'static str {
    match change {
        ChangeKind::Unchanged => "unchanged",
        ChangeKind::LocallyChanged => "locally-changed",
        ChangeKind::TransitivelyAffected => "transitively-affected",
        ChangeKind::Added => "added",
    }
}

fn node_json(node: &NodeReport) -> Json {
    Json::obj([
        ("name", Json::str(&node.name)),
        ("stage", Json::str(node.stage.to_string())),
        ("state", Json::str(node_state_str(node.state))),
        ("change", Json::str(change_kind_str(node.change))),
        ("duration_secs", Json::Num(node.duration_secs)),
        ("output_bytes", Json::Num(node.output_bytes as f64)),
        ("materialized", Json::Bool(node.materialized)),
        ("chunks_loaded", Json::Num(node.chunks_loaded as f64)),
        (
            "decision_source",
            Json::str(node.decision_source.to_string()),
        ),
    ])
}

fn metrics_json(metrics: &[(String, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value)| (name.clone(), Json::Num(*value)))
            .collect(),
    )
}

/// The full report shape returned by `POST /sessions/{name}/iterate`:
/// per-node timings and states, reuse counts, and harvested metrics.
pub fn report_json(report: &IterationReport) -> Json {
    Json::obj([
        ("iteration", Json::Num(report.iteration as f64)),
        ("workflow", Json::str(&report.workflow_name)),
        (
            "session",
            report.session.as_deref().map_or(Json::Null, Json::str),
        ),
        ("change_summary", Json::str(&report.change_summary)),
        ("total_secs", Json::Num(report.total_secs)),
        ("optimizer_secs", Json::Num(report.optimizer_secs)),
        ("materialize_secs", Json::Num(report.materialize_secs)),
        ("loaded", Json::Num(report.loaded() as f64)),
        ("computed", Json::Num(report.computed() as f64)),
        ("pruned", Json::Num(report.pruned() as f64)),
        ("reuse_rate", Json::Num(report.reuse_rate())),
        ("chunks_reused", Json::Num(report.chunks_reused() as f64)),
        ("metrics", metrics_json(&report.metrics)),
        (
            "nodes",
            Json::Arr(report.nodes.iter().map(node_json).collect()),
        ),
    ])
}

/// A version-history entry, without its DAG snapshot (list view).
pub fn version_json(version: &WorkflowVersion) -> Json {
    Json::obj([
        ("id", Json::Num(version.id as f64)),
        (
            "session",
            version.session.as_deref().map_or(Json::Null, Json::str),
        ),
        ("change_summary", Json::str(&version.change_summary)),
        ("total_secs", Json::Num(version.total_secs)),
        ("metrics", metrics_json(&version.metrics)),
    ])
}

/// A version-history entry including its full DAG snapshot (detail /
/// lineage view).
pub fn version_detail_json(version: &WorkflowVersion) -> Json {
    let Json::Obj(mut pairs) = version_json(version) else {
        unreachable!("version_json returns an object");
    };
    pairs.push(("dag".to_string(), snapshot_json(&version.snapshot)));
    Json::Obj(pairs)
}

/// The executed DAG: nodes with operator tag, canonical params, parents,
/// and stage, plus the output set.
pub fn snapshot_json(snapshot: &DagSnapshot) -> Json {
    let nodes = snapshot
        .nodes
        .iter()
        .map(|node| {
            Json::obj([
                ("name", Json::str(&node.name)),
                ("tag", Json::str(&node.tag)),
                ("params", Json::str(&node.params)),
                (
                    "parents",
                    Json::Arr(node.parents.iter().map(Json::str).collect()),
                ),
                ("stage", Json::str(node.stage.to_string())),
            ])
        })
        .collect();
    Json::obj([
        ("nodes", Json::Arr(nodes)),
        (
            "outputs",
            Json::Arr(snapshot.outputs.iter().map(Json::str).collect()),
        ),
    ])
}

/// A git-style structural diff between two versions.
pub fn diff_json(diff: &VersionDiff) -> Json {
    Json::obj([
        (
            "added",
            Json::Arr(diff.added.iter().map(Json::str).collect()),
        ),
        (
            "removed",
            Json::Arr(diff.removed.iter().map(Json::str).collect()),
        ),
        (
            "changed",
            Json::Arr(
                diff.changed
                    .iter()
                    .map(|(name, old, new)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("old", Json::str(old)),
                            ("new", Json::str(new)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One ranked prediction from `GET /sessions/{name}/uncertain` — the
/// active-learning candidate shape documented in `docs/API.md`.
pub fn uncertain_json(example: &helix_core::UncertainExample) -> Json {
    Json::obj([
        ("index", Json::Num(example.index as f64)),
        ("label", Json::Num(example.label)),
        ("score", Json::Num(example.score)),
        ("pred", Json::Num(example.pred)),
        ("margin", Json::Num(example.margin)),
    ])
}

/// A typed edit parsed off the wire — the four `Session` edit handles.
#[derive(Debug, Clone)]
pub enum EditRequest {
    /// `Session::set_learner_param`.
    SetLearnerParam {
        /// Learner node addressed by the client.
        learner: String,
        /// The knob to turn.
        param: LearnerParam,
    },
    /// `Session::replace_operator` (evaluate and train specs only — the
    /// operator kinds whose parameters fit a flat JSON object).
    ReplaceOperator {
        /// The node to edit in place.
        node: String,
        /// The replacement operator.
        kind: OperatorKind,
    },
    /// `Session::rewire`.
    Rewire {
        /// The node whose parents change.
        node: String,
        /// New parent names, in wiring order.
        parents: Vec<String>,
    },
    /// `Session::add_output`.
    AddOutput {
        /// The node to mark as output.
        node: String,
    },
}

/// A malformed edit body: the message names the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditParseError(pub String);

impl std::fmt::Display for EditParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn required_str(body: &Json, key: &str) -> Result<String, EditParseError> {
    body.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| EditParseError(format!("missing or non-string field `{key}`")))
}

fn parse_model(name: &str) -> Result<ModelType, EditParseError> {
    match name {
        "logreg" | "logistic_regression" => Ok(ModelType::LogisticRegression),
        "linreg" | "linear_regression" => Ok(ModelType::LinearRegression),
        "naive_bayes" => Ok(ModelType::NaiveBayes),
        "perceptron" => Ok(ModelType::Perceptron),
        other => Err(EditParseError(format!("unknown model `{other}`"))),
    }
}

fn parse_metric(name: &str) -> Result<MetricKind, EditParseError> {
    match name {
        "accuracy" => Ok(MetricKind::Accuracy),
        "precision" => Ok(MetricKind::Precision),
        "recall" => Ok(MetricKind::Recall),
        "f1" => Ok(MetricKind::F1),
        "log_loss" => Ok(MetricKind::LogLoss),
        "rmse" => Ok(MetricKind::Rmse),
        other => Err(EditParseError(format!("unknown metric `{other}`"))),
    }
}

fn parse_learner_param(body: &Json) -> Result<LearnerParam, EditParseError> {
    let param = required_str(body, "param")?;
    let value = body
        .get("value")
        .ok_or_else(|| EditParseError("missing field `value`".into()))?;
    let num = |what: &str| {
        value
            .as_f64()
            .ok_or_else(|| EditParseError(format!("`value` for `{what}` must be a number")))
    };
    // Counts and seeds must be exact non-negative integers; silently
    // truncating 2.7 epochs (or saturating -3 to 0) would make the
    // recorded edit diverge from what actually trains.
    let uint = |what: &str| {
        value.as_u64().ok_or_else(|| {
            EditParseError(format!(
                "`value` for `{what}` must be a non-negative integer"
            ))
        })
    };
    match param.as_str() {
        "reg_param" => Ok(LearnerParam::RegParam(num("reg_param")?)),
        "learning_rate" => Ok(LearnerParam::LearningRate(num("learning_rate")?)),
        "epochs" => Ok(LearnerParam::Epochs(uint("epochs")? as usize)),
        "seed" => Ok(LearnerParam::Seed(uint("seed")?)),
        "model" => {
            let name = value
                .as_str()
                .ok_or_else(|| EditParseError("`value` for `model` must be a string".into()))?;
            Ok(LearnerParam::Model(parse_model(name)?))
        }
        other => Err(EditParseError(format!("unknown learner param `{other}`"))),
    }
}

fn parse_operator(spec: &Json) -> Result<OperatorKind, EditParseError> {
    match required_str(spec, "kind")?.as_str() {
        "evaluate" => {
            let metric_names = spec
                .get("metrics")
                .and_then(Json::as_array)
                .ok_or_else(|| EditParseError("evaluate spec needs a `metrics` array".into()))?;
            let metrics = metric_names
                .iter()
                .map(|m| {
                    m.as_str()
                        .ok_or_else(|| EditParseError("metric names must be strings".into()))
                        .and_then(parse_metric)
                })
                .collect::<Result<Vec<_>, _>>()?;
            if metrics.is_empty() {
                return Err(EditParseError(
                    "evaluate spec needs at least one metric".into(),
                ));
            }
            let split = spec
                .get("split")
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| EditParseError("`split` must be a string".into()))
                })
                .transpose()?
                .unwrap_or_else(|| helix_core::SPLIT_TEST.to_string());
            Ok(OperatorKind::Evaluate(EvalSpec { metrics, split }))
        }
        "train" => {
            let mut learner = LearnerSpec::default();
            if let Some(model) = spec.get("model") {
                let name = model
                    .as_str()
                    .ok_or_else(|| EditParseError("`model` must be a string".into()))?;
                learner.model_type = parse_model(name)?;
            }
            let num = |key: &str| -> Result<Option<f64>, EditParseError> {
                spec.get(key)
                    .map(|v| {
                        v.as_f64()
                            .ok_or_else(|| EditParseError(format!("`{key}` must be a number")))
                    })
                    .transpose()
            };
            let uint = |key: &str| -> Result<Option<u64>, EditParseError> {
                spec.get(key)
                    .map(|v| {
                        v.as_u64().ok_or_else(|| {
                            EditParseError(format!("`{key}` must be a non-negative integer"))
                        })
                    })
                    .transpose()
            };
            if let Some(v) = num("reg_param")? {
                learner.reg_param = v;
            }
            if let Some(v) = uint("epochs")? {
                learner.epochs = v as usize;
            }
            if let Some(v) = num("learning_rate")? {
                learner.learning_rate = v;
            }
            if let Some(v) = uint("seed")? {
                learner.seed = v;
            }
            Ok(OperatorKind::Train(learner))
        }
        other => Err(EditParseError(format!(
            "unsupported operator kind `{other}` (wire edits support `evaluate` and `train`)"
        ))),
    }
}

/// Parses one typed-edit request body.
pub fn parse_edit(body: &Json) -> Result<EditRequest, EditParseError> {
    match required_str(body, "kind")?.as_str() {
        "set_learner_param" => Ok(EditRequest::SetLearnerParam {
            learner: required_str(body, "learner")?,
            param: parse_learner_param(body)?,
        }),
        "replace_operator" => {
            let spec = body
                .get("operator")
                .ok_or_else(|| EditParseError("missing field `operator`".into()))?;
            Ok(EditRequest::ReplaceOperator {
                node: required_str(body, "node")?,
                kind: parse_operator(spec)?,
            })
        }
        "rewire" => {
            let parents = body
                .get("parents")
                .and_then(Json::as_array)
                .ok_or_else(|| EditParseError("rewire needs a `parents` array".into()))?
                .iter()
                .map(|p| {
                    p.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| EditParseError("parent names must be strings".into()))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(EditRequest::Rewire {
                node: required_str(body, "node")?,
                parents,
            })
        }
        "add_output" => Ok(EditRequest::AddOutput {
            node: required_str(body, "node")?,
        }),
        other => Err(EditParseError(format!("unknown edit kind `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_four_edit_kinds() {
        let edit = parse_edit(
            &Json::parse(
                r#"{"kind":"set_learner_param","learner":"preds","param":"reg_param","value":0.5}"#,
            )
            .unwrap(),
        )
        .unwrap();
        match edit {
            EditRequest::SetLearnerParam { learner, param } => {
                assert_eq!(learner, "preds");
                assert_eq!(param, LearnerParam::RegParam(0.5));
            }
            other => panic!("unexpected {other:?}"),
        }

        let edit = parse_edit(
            &Json::parse(
                r#"{"kind":"replace_operator","node":"checked",
                    "operator":{"kind":"evaluate","metrics":["f1"],"split":"test"}}"#,
            )
            .unwrap(),
        )
        .unwrap();
        match edit {
            EditRequest::ReplaceOperator { node, kind } => {
                assert_eq!(node, "checked");
                assert_eq!(kind.tag(), "evaluate");
            }
            other => panic!("unexpected {other:?}"),
        }

        let edit = parse_edit(
            &Json::parse(r#"{"kind":"rewire","node":"x","parents":["a","b"]}"#).unwrap(),
        )
        .unwrap();
        match edit {
            EditRequest::Rewire { node, parents } => {
                assert_eq!(node, "x");
                assert_eq!(parents, vec!["a".to_string(), "b".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }

        let edit =
            parse_edit(&Json::parse(r#"{"kind":"add_output","node":"income"}"#).unwrap()).unwrap();
        match edit {
            EditRequest::AddOutput { node } => assert_eq!(node, "income"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_model_param_and_train_spec() {
        let edit = parse_edit(
            &Json::parse(
                r#"{"kind":"set_learner_param","learner":"p","param":"model","value":"naive_bayes"}"#,
            )
            .unwrap(),
        )
        .unwrap();
        match edit {
            EditRequest::SetLearnerParam { learner, param } => {
                assert_eq!(learner, "p");
                assert_eq!(param, LearnerParam::Model(ModelType::NaiveBayes));
            }
            other => panic!("unexpected {other:?}"),
        }

        let edit = parse_edit(
            &Json::parse(
                r#"{"kind":"replace_operator","node":"p__model",
                    "operator":{"kind":"train","model":"perceptron","epochs":3}}"#,
            )
            .unwrap(),
        )
        .unwrap();
        match edit {
            EditRequest::ReplaceOperator {
                kind: OperatorKind::Train(spec),
                ..
            } => {
                assert_eq!(spec.model_type, ModelType::Perceptron);
                assert_eq!(spec.epochs, 3);
                assert_eq!(spec.reg_param, LearnerSpec::default().reg_param);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_kinds_and_missing_fields() {
        for bad in [
            r#"{"kind":"drop_table"}"#,
            r#"{"learner":"p"}"#,
            r#"{"kind":"set_learner_param","learner":"p","param":"volume","value":11}"#,
            r#"{"kind":"set_learner_param","learner":"p","param":"reg_param","value":"loud"}"#,
            r#"{"kind":"set_learner_param","learner":"p","param":"epochs","value":2.7}"#,
            r#"{"kind":"set_learner_param","learner":"p","param":"seed","value":-3}"#,
            r#"{"kind":"replace_operator","node":"n","operator":{"kind":"train","epochs":1.5}}"#,
            r#"{"kind":"replace_operator","node":"n","operator":{"kind":"csv_source"}}"#,
            r#"{"kind":"replace_operator","node":"n","operator":{"kind":"evaluate","metrics":["vibes"]}}"#,
            r#"{"kind":"rewire","node":"n"}"#,
        ] {
            assert!(
                parse_edit(&Json::parse(bad).unwrap()).is_err(),
                "should reject: {bad}"
            );
        }
    }

    #[test]
    fn report_json_shape() {
        use helix_core::ops::Stage;
        use std::sync::Arc;
        let report = IterationReport {
            iteration: 2,
            workflow_name: "census".into(),
            session: Some("alice".into()),
            change_summary: "set preds reg_param=0.5".into(),
            total_secs: 1.25,
            optimizer_secs: 0.01,
            materialize_secs: 0.25,
            nodes: vec![NodeReport {
                name: "rows".into(),
                stage: Stage::DataPreProcessing,
                state: NodeState::Load,
                change: ChangeKind::Unchanged,
                duration_secs: 0.5,
                output_bytes: 2048,
                materialized: false,
                chunks_loaded: 0,
                decision_source: helix_core::DecisionSource::Estimate,
            }],
            metrics: vec![("accuracy".into(), 0.83)],
            snapshot: Arc::default(),
        };
        let json = report_json(&report);
        assert_eq!(json.get("iteration").unwrap().as_u64(), Some(2));
        assert_eq!(json.get("loaded").unwrap().as_u64(), Some(1));
        assert_eq!(json.get("session").unwrap().as_str(), Some("alice"));
        assert_eq!(
            json.get("metrics")
                .unwrap()
                .get("accuracy")
                .unwrap()
                .as_f64(),
            Some(0.83)
        );
        let node = &json.get("nodes").unwrap().as_array().unwrap()[0];
        assert_eq!(node.get("state").unwrap().as_str(), Some("load"));
        assert_eq!(node.get("change").unwrap().as_str(), Some("unchanged"));
        assert_eq!(
            node.get("decision_source").unwrap().as_str(),
            Some("estimate")
        );
        // The whole report reparses as valid JSON.
        assert_eq!(Json::parse(&json.to_string()).unwrap(), json);
    }
}
