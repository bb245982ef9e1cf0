//! Durable-tier codecs: JSON serialization for the engine's cross-run
//! state (cost model, global version history, session records) plus the
//! atomic-replace file writer every snapshot goes through.
//!
//! The store's entries are indexed by their files alone
//! ([`crate::store`]); this module covers everything *above* the store: what a restarted engine needs to resume
//! every session's lineage. All files are single JSON documents written
//! via temp-file + rename ([`write_atomic`]), so readers only ever observe
//! a complete old or a complete new state — never a torn one. Parse
//! errors surface as `String`s; recovery callers warn and start fresh
//! rather than refuse to open (see `docs/ARCHITECTURE.md`, "Durability").

use crate::cost::CostModel;
use crate::engine::Lineage;
use crate::memo::{MemoEntry, MemoTable, Observation};
use crate::ops::Stage;
use crate::session::WorkflowEdit;
use crate::signature::Signature;
use crate::version::{DagSnapshot, NodeSnapshot, VersionStore, WorkflowVersion};
use helix_dataflow::fx::FxHashMap;
use helix_json::Json;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Format version stamped into every persisted document.
const FORMAT_V: f64 = 1.0;

// ---------------------------------------------------------------------------
// Paths and atomic writes
// ---------------------------------------------------------------------------

/// Directory holding engine- and session-level metadata, beside the
/// store's payload files.
pub(crate) fn meta_dir(store_dir: &Path) -> PathBuf {
    store_dir.join("meta")
}

/// Engine-wide state: cost model plus global version history.
pub(crate) fn engine_meta_path(store_dir: &Path) -> PathBuf {
    meta_dir(store_dir).join("engine.json")
}

/// Directory of per-session records.
pub(crate) fn sessions_dir(store_dir: &Path) -> PathBuf {
    meta_dir(store_dir).join("sessions")
}

/// Record path for one named session. The file name percent-encodes the
/// session name so arbitrary names (slashes, dots, unicode) can never
/// escape the sessions directory; the real name is stored inside the
/// record.
pub(crate) fn session_path(store_dir: &Path, name: &str) -> PathBuf {
    sessions_dir(store_dir).join(format!("{}.json", encode_name(name)))
}

/// Injective percent-encoding over `[A-Za-z0-9_-]`: every other byte
/// becomes `%XX`, so distinct names never collide and no encoded name
/// contains a path separator.
pub(crate) fn encode_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for byte in name.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => out.push(byte as char),
            _ => out.push_str(&format!("%{byte:02X}")),
        }
    }
    out
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes `text` to `path` atomically: unique temp file in the same
/// directory, flush + fsync, then rename over the target. A crash at any
/// point leaves either the previous file or the new one, plus at worst a
/// stray `*.tmp` that [`sweep_tmp`] removes on the next open.
pub(crate) fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::create_dir_all(dir)?;
    let token = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "state".to_string());
    let tmp = dir.join(format!("{file_name}.{}-{token}.tmp", std::process::id()));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_data()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Removes stray `*.tmp` files left by a crash mid-[`write_atomic`].
pub(crate) fn sweep_tmp(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "tmp") {
            let _ = std::fs::remove_file(&path);
        }
    }
}

// ---------------------------------------------------------------------------
// Primitive helpers
// ---------------------------------------------------------------------------

fn u64_hex(v: u64) -> String {
    format!("{v:016x}")
}

fn hex_u64(text: &str) -> Result<u64, String> {
    u64::from_str_radix(text, 16).map_err(|e| format!("bad hex `{text}`: {e}"))
}

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().map(Json::str).collect())
}

fn field<'j>(obj: &'j Json, key: &str) -> Result<&'j Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn str_field(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

fn f64_field(obj: &Json, key: &str) -> Result<f64, String> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))
}

fn arr_field<'j>(obj: &'j Json, key: &str) -> Result<&'j [Json], String> {
    field(obj, key)?
        .as_array()
        .ok_or_else(|| format!("field `{key}` is not an array"))
}

fn string_list(obj: &Json, key: &str) -> Result<Vec<String>, String> {
    arr_field(obj, key)?
        .iter()
        .map(|j| {
            j.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` entry is not a string"))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// DAG snapshots and versions
// ---------------------------------------------------------------------------

fn node_to_json(node: &NodeSnapshot) -> Json {
    Json::obj([
        ("name", Json::str(&node.name)),
        ("tag", Json::str(&node.tag)),
        ("params", Json::str(&node.params)),
        ("parents", str_arr(&node.parents)),
        ("stage", Json::str(node.stage.to_string())),
    ])
}

fn node_from_json(json: &Json) -> Result<NodeSnapshot, String> {
    let stage_name = str_field(json, "stage")?;
    Ok(NodeSnapshot {
        name: str_field(json, "name")?,
        tag: str_field(json, "tag")?,
        params: str_field(json, "params")?,
        parents: string_list(json, "parents")?,
        stage: Stage::from_name(&stage_name)
            .ok_or_else(|| format!("unknown stage `{stage_name}`"))?,
    })
}

fn snapshot_to_json(snapshot: &DagSnapshot) -> Json {
    Json::obj([
        (
            "nodes",
            Json::Arr(snapshot.nodes.iter().map(node_to_json).collect()),
        ),
        ("outputs", str_arr(&snapshot.outputs)),
    ])
}

fn snapshot_from_json(json: &Json) -> Result<DagSnapshot, String> {
    Ok(DagSnapshot {
        nodes: arr_field(json, "nodes")?
            .iter()
            .map(node_from_json)
            .collect::<Result<_, _>>()?,
        outputs: string_list(json, "outputs")?,
    })
}

fn metrics_to_json(metrics: &[(String, f64)]) -> Json {
    Json::Arr(
        metrics
            .iter()
            .map(|(name, value)| Json::Arr(vec![Json::str(name), Json::Num(*value)]))
            .collect(),
    )
}

fn metrics_from_json(json: &Json, key: &str) -> Result<Vec<(String, f64)>, String> {
    arr_field(json, key)?
        .iter()
        .map(|pair| {
            let items = pair
                .as_array()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| format!("`{key}` entry is not a [name, value] pair"))?;
            let name = items[0]
                .as_str()
                .ok_or_else(|| format!("`{key}` name is not a string"))?;
            let value = items[1]
                .as_f64()
                .ok_or_else(|| format!("`{key}` value is not a number"))?;
            Ok((name.to_string(), value))
        })
        .collect()
}

fn version_to_json(version: &WorkflowVersion) -> Json {
    Json::obj([
        ("id", Json::Num(version.id as f64)),
        (
            "session",
            version
                .session
                .as_deref()
                .map(Json::str)
                .unwrap_or(Json::Null),
        ),
        ("snapshot", snapshot_to_json(&version.snapshot)),
        ("metrics", metrics_to_json(&version.metrics)),
        ("total_secs", Json::Num(version.total_secs)),
        ("change_summary", Json::str(&version.change_summary)),
    ])
}

fn version_from_json(json: &Json) -> Result<WorkflowVersion, String> {
    Ok(WorkflowVersion {
        id: f64_field(json, "id")? as usize,
        session: match field(json, "session")? {
            Json::Null => None,
            other => Some(
                other
                    .as_str()
                    .map(str::to_string)
                    .ok_or("field `session` is not a string or null")?,
            ),
        },
        snapshot: Arc::new(snapshot_from_json(field(json, "snapshot")?)?),
        metrics: metrics_from_json(json, "metrics")?,
        total_secs: f64_field(json, "total_secs")?,
        change_summary: str_field(json, "change_summary")?,
    })
}

fn versions_to_json(versions: &VersionStore) -> Json {
    Json::Arr(versions.all().iter().map(version_to_json).collect())
}

fn versions_from_json(json: &Json) -> Result<Vec<WorkflowVersion>, String> {
    json.as_array()
        .ok_or("versions is not an array")?
        .iter()
        .map(version_from_json)
        .collect()
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

fn cost_to_json(cost: &CostModel) -> Json {
    let mut observations: Vec<(&str, f64)> = cost.compute_observations().collect();
    observations.sort_by(|a, b| a.0.cmp(b.0));
    Json::obj([
        ("bytes_per_sec", Json::Num(cost.bytes_per_sec())),
        ("io_latency_sec", Json::Num(cost.io_latency_sec())),
        ("encode_ratio", Json::Num(cost.encode_ratio())),
        (
            "compute_secs",
            Json::Arr(
                observations
                    .into_iter()
                    .map(|(name, secs)| Json::Arr(vec![Json::str(name), Json::Num(secs)]))
                    .collect(),
            ),
        ),
    ])
}

fn cost_from_json(json: &Json) -> Result<CostModel, String> {
    let observations = metrics_from_json(json, "compute_secs")?;
    Ok(CostModel::from_parts(
        observations,
        f64_field(json, "bytes_per_sec")?,
        f64_field(json, "io_latency_sec")?,
        f64_field(json, "encode_ratio")?,
    ))
}

// ---------------------------------------------------------------------------
// Optimizer memo
// ---------------------------------------------------------------------------

fn observation_to_json(obs: &Observation) -> Json {
    Json::obj([
        ("secs", Json::Num(obs.exec_secs)),
        ("bytes", Json::Num(obs.output_bytes as f64)),
        ("loaded", Json::Bool(obs.loaded)),
        ("rows", Json::Num(obs.rows as f64)),
        ("run", Json::Num(obs.run as f64)),
    ])
}

fn observation_from_json(json: &Json) -> Result<Observation, String> {
    Ok(Observation {
        exec_secs: f64_field(json, "secs")?,
        output_bytes: f64_field(json, "bytes")? as u64,
        loaded: field(json, "loaded")?
            .as_bool()
            .ok_or("`loaded` is not a bool")?,
        rows: f64_field(json, "rows")? as u64,
        // Absent in memos persisted before decay existed: treat as run 0,
        // i.e. maximally stale.
        run: json.get("run").and_then(Json::as_u64).unwrap_or(0),
    })
}

fn memo_to_json(memo: &MemoTable) -> Json {
    let mut entries: Vec<(Signature, &MemoEntry)> = memo.entries().collect();
    entries.sort_by_key(|(sig, _)| sig.0);
    Json::obj([
        (
            "observations_recorded",
            Json::Num(memo.observations_recorded() as f64),
        ),
        ("current_run", Json::Num(memo.current_run() as f64)),
        (
            "entries",
            Json::Arr(
                entries
                    .into_iter()
                    .map(|(sig, entry)| {
                        Json::obj([
                            ("sig", Json::str(u64_hex(sig.0))),
                            ("name", Json::str(&entry.name)),
                            (
                                "parents",
                                Json::Arr(
                                    entry
                                        .parents
                                        .iter()
                                        .map(|p| Json::str(u64_hex(p.0)))
                                        .collect(),
                                ),
                            ),
                            ("reuse_hits", Json::Num(entry.reuse_hits as f64)),
                            ("runs", Json::Num(entry.runs as f64)),
                            (
                                "obs",
                                Json::Arr(
                                    entry.observations.iter().map(observation_to_json).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn memo_from_json(json: &Json) -> Result<MemoTable, String> {
    let recorded = f64_field(json, "observations_recorded")? as u64;
    let mut entries = Vec::new();
    for entry in arr_field(json, "entries")? {
        let sig = Signature(hex_u64(&str_field(entry, "sig")?)?);
        let parents = string_list(entry, "parents")?
            .iter()
            .map(|p| hex_u64(p).map(Signature))
            .collect::<Result<Vec<_>, _>>()?;
        let observations = arr_field(entry, "obs")?
            .iter()
            .map(observation_from_json)
            .collect::<Result<std::collections::VecDeque<_>, _>>()?;
        entries.push((
            sig,
            MemoEntry {
                name: str_field(entry, "name")?,
                parents,
                observations,
                reuse_hits: f64_field(entry, "reuse_hits")? as u64,
                runs: f64_field(entry, "runs")? as u64,
            },
        ));
    }
    let current_run = json.get("current_run").and_then(Json::as_u64).unwrap_or(0);
    Ok(MemoTable::from_parts(entries, recorded, current_run))
}

fn signature_list(json: &Json, key: &str) -> Result<Vec<Signature>, String> {
    string_list(json, key)?
        .iter()
        .map(|s| hex_u64(s).map(Signature))
        .collect()
}

// ---------------------------------------------------------------------------
// Lineage
// ---------------------------------------------------------------------------

fn lineage_to_json(lineage: &Lineage) -> Json {
    let previous = match lineage.previous_map() {
        None => Json::Null,
        Some(map) => {
            let mut entries: Vec<(&String, &(u64, Signature))> = map.iter().collect();
            entries.sort_by(|a, b| a.0.cmp(b.0));
            Json::Arr(
                entries
                    .into_iter()
                    .map(|(node, &(local, sig))| {
                        Json::obj([
                            ("node", Json::str(node)),
                            ("local", Json::str(u64_hex(local))),
                            ("sig", Json::str(u64_hex(sig.0))),
                        ])
                    })
                    .collect(),
            )
        }
    };
    Json::obj([
        ("iteration", Json::Num(lineage.iteration() as f64)),
        ("previous", previous),
    ])
}

fn lineage_from_json(json: &Json) -> Result<Lineage, String> {
    let iteration = f64_field(json, "iteration")? as usize;
    let previous = match field(json, "previous")? {
        Json::Null => None,
        entries => {
            let entries = entries.as_array().ok_or("`previous` is not an array")?;
            let mut map = FxHashMap::default();
            for entry in entries {
                let node = str_field(entry, "node")?;
                let local = hex_u64(&str_field(entry, "local")?)?;
                let sig = Signature(hex_u64(&str_field(entry, "sig")?)?);
                map.insert(node, (local, sig));
            }
            Some(map)
        }
    };
    Ok(Lineage::from_parts(iteration, previous))
}

// ---------------------------------------------------------------------------
// Workflow edits
// ---------------------------------------------------------------------------

fn edit_to_json(edit: &WorkflowEdit) -> Json {
    match edit {
        WorkflowEdit::SetLearnerParam { learner, param } => Json::obj([
            ("kind", Json::str("set_learner_param")),
            ("learner", Json::str(learner)),
            ("param", Json::str(param)),
        ]),
        WorkflowEdit::ReplaceOperator { node, tag } => Json::obj([
            ("kind", Json::str("replace_operator")),
            ("node", Json::str(node)),
            ("tag", Json::str(tag)),
        ]),
        WorkflowEdit::Rewire { node, parents } => Json::obj([
            ("kind", Json::str("rewire")),
            ("node", Json::str(node)),
            ("parents", str_arr(parents)),
        ]),
        WorkflowEdit::AddOutput { node } => {
            Json::obj([("kind", Json::str("add_output")), ("node", Json::str(node))])
        }
        WorkflowEdit::Freeform { description } => Json::obj([
            ("kind", Json::str("freeform")),
            ("description", Json::str(description)),
        ]),
        WorkflowEdit::AppendData { source, rows } => Json::obj([
            ("kind", Json::str("append_data")),
            ("source", Json::str(source)),
            ("rows", Json::Num(*rows as f64)),
        ]),
    }
}

fn edit_from_json(json: &Json) -> Result<WorkflowEdit, String> {
    let kind = str_field(json, "kind")?;
    match kind.as_str() {
        "set_learner_param" => Ok(WorkflowEdit::SetLearnerParam {
            learner: str_field(json, "learner")?,
            param: str_field(json, "param")?,
        }),
        "replace_operator" => Ok(WorkflowEdit::ReplaceOperator {
            node: str_field(json, "node")?,
            tag: str_field(json, "tag")?,
        }),
        "rewire" => Ok(WorkflowEdit::Rewire {
            node: str_field(json, "node")?,
            parents: string_list(json, "parents")?,
        }),
        "add_output" => Ok(WorkflowEdit::AddOutput {
            node: str_field(json, "node")?,
        }),
        "freeform" => Ok(WorkflowEdit::Freeform {
            description: str_field(json, "description")?,
        }),
        "append_data" => Ok(WorkflowEdit::AppendData {
            source: str_field(json, "source")?,
            rows: json
                .get("rows")
                .and_then(Json::as_u64)
                .ok_or_else(|| "append_data edit missing `rows`".to_string())?
                as usize,
        }),
        other => Err(format!("unknown edit kind `{other}`")),
    }
}

fn edits_to_json(edits: &[WorkflowEdit]) -> Json {
    Json::Arr(edits.iter().map(edit_to_json).collect())
}

fn edits_from_json(json: &Json, key: &str) -> Result<Vec<WorkflowEdit>, String> {
    arr_field(json, key)?.iter().map(edit_from_json).collect()
}

// ---------------------------------------------------------------------------
// Engine meta (cost model + global history)
// ---------------------------------------------------------------------------

/// Engine-wide durable state loaded back on open.
pub(crate) struct EngineMeta {
    /// Recovered cost model.
    pub cost: CostModel,
    /// Recovered global version history.
    pub versions: Vec<WorkflowVersion>,
    /// Recovered optimizer memo (empty for pre-memo meta files).
    pub memo: MemoTable,
    /// Signatures pinned by the last offline Optimal pass.
    pub pinned: Vec<Signature>,
    /// Lifetime adaptive re-plan count.
    pub replans_triggered: u64,
    /// Unix timestamp of the last offline pass (0 = never ran).
    pub last_offline_unix: u64,
}

/// Serializes and atomically replaces the engine meta file.
pub(crate) fn save_engine_meta(
    path: &Path,
    cost: &CostModel,
    versions: &VersionStore,
    memo: &MemoTable,
    pinned: &[Signature],
    replans_triggered: u64,
    last_offline_unix: u64,
) -> Result<(), String> {
    let mut pinned: Vec<Signature> = pinned.to_vec();
    pinned.sort_unstable_by_key(|s| s.0);
    let doc = Json::obj([
        ("v", Json::Num(FORMAT_V)),
        ("cost", cost_to_json(cost)),
        ("versions", versions_to_json(versions)),
        ("memo", memo_to_json(memo)),
        (
            "pinned",
            Json::Arr(pinned.iter().map(|s| Json::str(u64_hex(s.0))).collect()),
        ),
        ("replans_triggered", Json::Num(replans_triggered as f64)),
        ("last_offline_unix", Json::Num(last_offline_unix as f64)),
    ]);
    write_atomic(path, &doc.to_string()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Loads the engine meta file. `Ok(None)` when the file does not exist
/// (fresh directory); `Err` when it exists but cannot be parsed — the
/// caller warns and starts fresh (torn/corrupt policy: never refuse to
/// open).
pub(crate) fn load_engine_meta(path: &Path) -> Result<Option<EngineMeta>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let doc = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    // Optimizer fields default when absent: meta files written before the
    // memo existed must keep loading (forward rolls never refuse).
    let memo = match doc.get("memo") {
        Some(json) => memo_from_json(json)?,
        None => MemoTable::new(),
    };
    let pinned = match doc.get("pinned") {
        Some(_) => signature_list(&doc, "pinned")?,
        None => Vec::new(),
    };
    let replans_triggered = doc
        .get("replans_triggered")
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64;
    let last_offline_unix = doc
        .get("last_offline_unix")
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64;
    Ok(Some(EngineMeta {
        cost: cost_from_json(field(&doc, "cost")?)?,
        versions: versions_from_json(field(&doc, "versions")?)?,
        memo,
        pinned,
        replans_triggered,
        last_offline_unix,
    }))
}

// ---------------------------------------------------------------------------
// Session records
// ---------------------------------------------------------------------------

/// Everything needed to resume one named session after a restart: the
/// registry template it was built from, the replayable edit history, its
/// private lineage, and its version store.
pub(crate) struct SessionRecord {
    /// Session name (the registry key; the file name is an encoding of
    /// this, but this field is authoritative).
    pub name: String,
    /// Workflow template the session was created from, when known.
    pub template: Option<String>,
    /// Whether the live workflow can no longer be rebuilt from
    /// `template` + edits (wholesale replacement or a non-replayable
    /// edit happened). Recovery of such a session is degraded: lineage
    /// and history survive, the workflow resets to the template.
    pub workflow_replaced: bool,
    /// The session's private lineage.
    pub lineage: Lineage,
    /// Edits already folded into executed iterations, oldest first.
    pub applied_edits: Vec<WorkflowEdit>,
    /// Edits recorded since the last iteration.
    pub pending_edits: Vec<WorkflowEdit>,
    /// The session's private version history.
    pub versions: Vec<WorkflowVersion>,
}

/// Serializes and atomically replaces one session record.
pub(crate) fn save_session_record(path: &Path, record: &SessionRecord) -> Result<(), String> {
    let doc = Json::obj([
        ("v", Json::Num(FORMAT_V)),
        ("name", Json::str(&record.name)),
        (
            "template",
            record
                .template
                .as_deref()
                .map(Json::str)
                .unwrap_or(Json::Null),
        ),
        ("workflow_replaced", Json::Bool(record.workflow_replaced)),
        ("lineage", lineage_to_json(&record.lineage)),
        ("applied_edits", edits_to_json(&record.applied_edits)),
        ("pending_edits", edits_to_json(&record.pending_edits)),
        (
            "versions",
            Json::Arr(record.versions.iter().map(version_to_json).collect()),
        ),
    ]);
    write_atomic(path, &doc.to_string()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Parses one session record file.
pub(crate) fn load_session_record(path: &Path) -> Result<SessionRecord, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    Ok(SessionRecord {
        name: str_field(&doc, "name")?,
        template: match field(&doc, "template")? {
            Json::Null => None,
            other => Some(
                other
                    .as_str()
                    .map(str::to_string)
                    .ok_or("field `template` is not a string or null")?,
            ),
        },
        workflow_replaced: field(&doc, "workflow_replaced")?
            .as_bool()
            .ok_or("field `workflow_replaced` is not a bool")?,
        lineage: lineage_from_json(field(&doc, "lineage")?)?,
        applied_edits: edits_from_json(&doc, "applied_edits")?,
        pending_edits: edits_from_json(&doc, "pending_edits")?,
        versions: versions_from_json(field(&doc, "versions")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("helix-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_version(id: usize, session: Option<&str>) -> WorkflowVersion {
        WorkflowVersion {
            id,
            session: session.map(str::to_string),
            snapshot: Arc::new(DagSnapshot {
                nodes: vec![NodeSnapshot {
                    name: "rows".into(),
                    tag: "csv_scan".into(),
                    params: "age:int".into(),
                    parents: vec!["data".into()],
                    stage: Stage::DataPreProcessing,
                }],
                outputs: vec!["rows".into()],
            }),
            metrics: vec![("accuracy".into(), 0.91)],
            total_secs: 1.5,
            change_summary: "initial version".into(),
        }
    }

    #[test]
    fn cost_model_roundtrips() {
        let mut cost = CostModel::new();
        cost.observe_compute("rows", 0.25);
        cost.observe_io(1 << 20, 0.01);
        cost.observe_encode(100, 80);
        let json = cost_to_json(&cost);
        let back = cost_from_json(&json).unwrap();
        assert_eq!(back.compute_estimate_secs("rows"), Some(0.25));
        assert_eq!(back.bytes_per_sec(), cost.bytes_per_sec());
        assert_eq!(back.io_latency_sec(), cost.io_latency_sec());
        assert_eq!(back.encode_ratio(), cost.encode_ratio());
    }

    #[test]
    fn corrupt_cost_parameters_fall_back_to_defaults() {
        let defaults = CostModel::new();
        let restored = CostModel::from_parts(
            vec![("bad".into(), f64::NAN), ("ok".into(), 0.5)],
            -1.0,
            f64::INFINITY,
            0.0,
        );
        assert_eq!(restored.bytes_per_sec(), defaults.bytes_per_sec());
        assert_eq!(restored.io_latency_sec(), defaults.io_latency_sec());
        assert_eq!(restored.encode_ratio(), defaults.encode_ratio());
        assert_eq!(restored.compute_estimate_secs("bad"), None);
        assert_eq!(restored.compute_estimate_secs("ok"), Some(0.5));
    }

    #[test]
    fn versions_roundtrip_with_snapshot_and_metrics() {
        let store = VersionStore::from_versions(vec![
            sample_version(0, None),
            sample_version(1, Some("alice")),
        ]);
        let json = versions_to_json(&store);
        let back = VersionStore::from_versions(versions_from_json(&json).unwrap());
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(1).unwrap().session.as_deref(), Some("alice"));
        assert_eq!(
            back.get(0).unwrap().snapshot.nodes,
            store.get(0).unwrap().snapshot.nodes
        );
        assert_eq!(back.get(0).unwrap().metrics, store.get(0).unwrap().metrics);
    }

    #[test]
    fn lineage_roundtrips_including_full_u64_signatures() {
        let mut map = FxHashMap::default();
        // Values outside f64's exact-integer range must survive (hence hex
        // strings, not JSON numbers).
        map.insert("rows".to_string(), (u64::MAX - 1, Signature(u64::MAX)));
        map.insert("data".to_string(), (7, Signature(42)));
        let lineage = Lineage::from_parts(3, Some(map));
        let back = lineage_from_json(&lineage_to_json(&lineage)).unwrap();
        assert_eq!(back.iteration(), 3);
        let mut sigs: Vec<u64> = back.signatures().iter().map(|s| s.0).collect();
        sigs.sort_unstable();
        assert_eq!(sigs, vec![42, u64::MAX]);

        let fresh = lineage_from_json(&lineage_to_json(&Lineage::new())).unwrap();
        assert!(!fresh.has_history());
    }

    #[test]
    fn edits_roundtrip_every_variant() {
        let edits = vec![
            WorkflowEdit::SetLearnerParam {
                learner: "preds".into(),
                param: "reg_param=0.9".into(),
            },
            WorkflowEdit::ReplaceOperator {
                node: "checked".into(),
                tag: "evaluate".into(),
            },
            WorkflowEdit::Rewire {
                node: "income".into(),
                parents: vec!["rows".into(), "edu_f".into()],
            },
            WorkflowEdit::AddOutput {
                node: "income".into(),
            },
            WorkflowEdit::Freeform {
                description: "add age bucketizer".into(),
            },
            WorkflowEdit::AppendData {
                source: "data".into(),
                rows: 64,
            },
        ];
        let json = Json::obj([("edits", edits_to_json(&edits))]);
        let back = edits_from_json(&json, "edits").unwrap();
        assert_eq!(back, edits);
    }

    #[test]
    fn session_record_roundtrips_through_a_file() {
        let dir = tmpdir("session-record");
        let path = session_path(&dir, "alice/../etc");
        assert!(
            path.parent().unwrap().ends_with("meta/sessions"),
            "encoded name must not traverse out of the sessions dir"
        );
        let record = SessionRecord {
            name: "alice/../etc".into(),
            template: Some("census".into()),
            workflow_replaced: false,
            lineage: Lineage::from_parts(2, None),
            applied_edits: vec![WorkflowEdit::AddOutput {
                node: "income".into(),
            }],
            pending_edits: vec![],
            versions: vec![sample_version(0, Some("alice/../etc"))],
        };
        save_session_record(&path, &record).unwrap();
        let back = load_session_record(&path).unwrap();
        assert_eq!(back.name, record.name);
        assert_eq!(back.template.as_deref(), Some("census"));
        assert_eq!(back.lineage.iteration(), 2);
        assert_eq!(back.applied_edits, record.applied_edits);
        assert_eq!(back.versions.len(), 1);
    }

    #[test]
    fn engine_meta_roundtrips_and_absent_file_is_none() {
        let dir = tmpdir("engine-meta");
        let path = engine_meta_path(&dir);
        assert!(load_engine_meta(&path).unwrap().is_none());

        let mut cost = CostModel::new();
        cost.observe_compute("rows", 0.5);
        let versions = VersionStore::from_versions(vec![sample_version(0, None)]);
        let mut memo = MemoTable::new();
        memo.record(
            Signature(7),
            "rows",
            &[Signature(3)],
            Observation {
                exec_secs: 0.25,
                output_bytes: 2048,
                loaded: false,
                rows: 100,
                run: 0,
            },
        );
        memo.record(
            Signature(7),
            "rows",
            &[Signature(3)],
            Observation {
                exec_secs: 0.01,
                output_bytes: 1024,
                loaded: true,
                rows: 0,
                run: 0,
            },
        );
        let pinned = [Signature(7), Signature(3)];
        save_engine_meta(&path, &cost, &versions, &memo, &pinned, 5, 1234).unwrap();
        let meta = load_engine_meta(&path).unwrap().unwrap();
        assert_eq!(meta.cost.compute_estimate_secs("rows"), Some(0.5));
        assert_eq!(meta.versions.len(), 1);
        assert_eq!(meta.memo.len(), 1);
        assert_eq!(meta.memo.observations_recorded(), 2);
        assert_eq!(meta.memo.get(Signature(7)), memo.get(Signature(7)));
        assert_eq!(meta.pinned, vec![Signature(3), Signature(7)]);
        assert_eq!(meta.replans_triggered, 5);
        assert_eq!(meta.last_offline_unix, 1234);
    }

    #[test]
    fn pre_memo_engine_meta_still_loads() {
        // A meta file written before the optimizer memo existed (PR 8
        // format): the new fields must default, not fail the load.
        let dir = tmpdir("engine-meta-premem");
        let path = engine_meta_path(&dir);
        let cost = CostModel::new();
        let versions = VersionStore::new();
        let doc = Json::obj([
            ("v", Json::Num(1.0)),
            ("cost", cost_to_json(&cost)),
            ("versions", versions_to_json(&versions)),
        ]);
        write_atomic(&path, &doc.to_string()).unwrap();
        let meta = load_engine_meta(&path).unwrap().unwrap();
        assert!(meta.memo.is_empty());
        assert!(meta.pinned.is_empty());
        assert_eq!(meta.replans_triggered, 0);
        assert_eq!(meta.last_offline_unix, 0);
    }

    #[test]
    fn corrupt_engine_meta_is_an_error_not_a_panic() {
        let dir = tmpdir("engine-meta-corrupt");
        let path = engine_meta_path(&dir);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "{\"v\":1,\"cost\":tr").unwrap();
        assert!(load_engine_meta(&path).is_err());
    }

    #[test]
    fn write_atomic_replaces_and_sweep_removes_tmp() {
        let dir = tmpdir("atomic");
        let path = dir.join("state.json");
        write_atomic(&path, "one").unwrap();
        write_atomic(&path, "two").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");

        std::fs::write(dir.join("state.json.999-0.tmp"), "torn").unwrap();
        sweep_tmp(&dir);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        assert!(!dir.join("state.json.999-0.tmp").exists());
    }

    #[test]
    fn encode_name_is_injective_and_path_safe() {
        let names = ["alice", "a/b", "a%2Fb", "день", "a.b", "a_b-c"];
        let encoded: Vec<String> = names.iter().map(|n| encode_name(n)).collect();
        for (i, enc) in encoded.iter().enumerate() {
            for (j, other) in encoded.iter().enumerate() {
                if i != j {
                    assert_ne!(enc, other, "{} vs {}", names[i], names[j]);
                }
            }
            assert!(!enc.contains('/') && !enc.contains('\\') && !enc.contains(".."));
        }
    }
}
