//! What one run records, and how its end-to-end and per-layer metrics
//! are derived from it.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use helix_core::ops::Stage;
use helix_core::{Engine, IterationReport, NodeState};
use helix_json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

const MIB: f64 = (1u64 << 20) as f64;

/// One iteration as the caller saw it: the wall time of the public call
/// plus the counts and timings its report carried.
#[derive(Debug, Clone, Default)]
pub struct IterStats {
    /// Wall seconds around `Session::iterate` / `POST …/iterate`.
    pub wall_s: f64,
    /// The report's own `total_secs`.
    pub total_s: f64,
    /// The report's `optimizer_secs`.
    pub optimizer_s: f64,
    /// The report's `materialize_secs`.
    pub materialize_s: f64,
    /// Nodes loaded from the store.
    pub loaded: usize,
    /// Nodes computed.
    pub computed: usize,
    /// Nodes pruned.
    pub pruned: usize,
    /// Σ `duration_secs` over computed nodes.
    pub busy_s: f64,
    /// Σ `duration_secs` over loaded nodes.
    pub load_s: f64,
    /// Σ `duration_secs` per workflow stage: pre-processing, ML, evaluation.
    pub stage_s: [f64; 3],
    /// Nodes newly materialized.
    pub mat_nodes: usize,
    /// `output_bytes` of the newly materialized nodes.
    pub mat_bytes: u64,
    /// Data-chunk partitions served from the store.
    pub chunks_reused: usize,
    /// Evaluation metrics, sorted by name.
    pub metrics: Vec<(String, f64)>,
}

fn stage_index(stage: Stage) -> usize {
    match stage {
        Stage::DataPreProcessing => 0,
        Stage::MachineLearning => 1,
        Stage::Evaluation => 2,
    }
}

struct NodeView {
    state: NodeState,
    stage: Stage,
    secs: f64,
    bytes: u64,
    materialized: bool,
    chunks: usize,
}

impl IterStats {
    fn from_nodes(wall_s: f64, nodes: &[NodeView], mut metrics: Vec<(String, f64)>) -> IterStats {
        let mut it = IterStats {
            wall_s,
            ..IterStats::default()
        };
        for n in nodes {
            match n.state {
                NodeState::Load => {
                    it.loaded += 1;
                    it.load_s += n.secs;
                }
                NodeState::Compute => {
                    it.computed += 1;
                    it.busy_s += n.secs;
                }
                NodeState::Prune => it.pruned += 1,
            }
            it.stage_s[stage_index(n.stage)] += n.secs;
            if n.materialized {
                it.mat_nodes += 1;
                it.mat_bytes += n.bytes;
            }
            it.chunks_reused += n.chunks;
        }
        metrics.sort_by(|a, b| a.0.cmp(&b.0));
        it.metrics = metrics;
        it
    }

    /// From an in-process report.
    pub fn from_report(wall_s: f64, report: &IterationReport) -> IterStats {
        let nodes: Vec<NodeView> = report
            .nodes
            .iter()
            .map(|n| NodeView {
                state: n.state,
                stage: n.stage,
                secs: n.duration_secs,
                bytes: n.output_bytes,
                materialized: n.materialized,
                chunks: n.chunks_loaded,
            })
            .collect();
        IterStats {
            total_s: report.total_secs,
            optimizer_s: report.optimizer_secs,
            materialize_s: report.materialize_secs,
            ..IterStats::from_nodes(wall_s, &nodes, report.metrics.clone())
        }
    }

    /// From the body of a `POST /sessions/:name/iterate` response; `None`
    /// when the body does not have the documented shape.
    pub fn from_wire(wall_s: f64, body: &Json) -> Option<IterStats> {
        let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64);
        let mut nodes = Vec::new();
        for n in body.get("nodes")?.as_array()? {
            let state = match n.get("state")?.as_str()? {
                "load" => NodeState::Load,
                "compute" => NodeState::Compute,
                "prune" => NodeState::Prune,
                _ => return None,
            };
            nodes.push(NodeView {
                state,
                stage: Stage::from_name(n.get("stage")?.as_str()?)?,
                secs: num(n, "duration_secs")?,
                bytes: num(n, "output_bytes")? as u64,
                materialized: matches!(n.get("materialized")?, Json::Bool(true)),
                chunks: num(n, "chunks_loaded")? as usize,
            });
        }
        let Json::Obj(pairs) = body.get("metrics")? else {
            return None;
        };
        // JSON has no NaN; the server writes a non-finite metric as null.
        let metrics = pairs
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
            .collect();
        Some(IterStats {
            total_s: num(body, "total_secs")?,
            optimizer_s: num(body, "optimizer_secs")?,
            materialize_s: num(body, "materialize_secs")?,
            ..IterStats::from_nodes(wall_s, &nodes, metrics)
        })
    }
}

/// Whether two metric lists are equal bit for bit.
pub fn same_metrics(a: &[(String, f64)], b: &[(String, f64)]) -> bool {
    let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka == kb && same(*va, *vb))
}

/// Engine state read once a pass has ended.
#[derive(Debug, Clone, Default)]
pub struct EndState {
    /// `IntermediateStore::used_bytes()`.
    pub used_bytes: u64,
    /// `IntermediateStore::len()`.
    pub entries: usize,
    /// `IntermediateStore::wal_bytes()`.
    pub wal_bytes: u64,
    /// `OptimizerStats::memo_entries`.
    pub memo_entries: usize,
    /// `OptimizerStats::observations_recorded`.
    pub memo_observations: u64,
    /// `OptimizerStats::replans_triggered` (the engine is fresh per pass).
    pub replans: u64,
    /// MiB/s of `Engine::fetch` over every stored signature (traced only).
    pub fetch_mib_per_s: f64,
}

impl EndState {
    /// Reads the end-of-pass getters; with `fetch`, also times
    /// `Engine::fetch` over every stored signature.
    pub fn read(engine: &Engine, fetch: Option<&mut Tracer>) -> EndState {
        let store = engine.store();
        let stats = engine.optimizer_stats();
        let mut end = EndState {
            used_bytes: store.used_bytes(),
            entries: store.len(),
            wal_bytes: store.wal_bytes(),
            memo_entries: stats.memo_entries,
            memo_observations: stats.observations_recorded,
            replans: stats.replans_triggered,
            fetch_mib_per_s: 0.0,
        };
        if let Some(tracer) = fetch {
            let mut bytes = 0u64;
            let mut secs = 0.0;
            for sig in store.signatures() {
                let (fetched, took) = tracer.leaf("fetch", || engine.fetch(sig));
                secs += took;
                if fetched.is_ok() {
                    bytes += store.lookup(sig).map_or(0, |m| m.bytes);
                }
            }
            if secs > 0.0 {
                end.fetch_mib_per_s = bytes as f64 / MIB / secs;
            }
        }
        end
    }
}

/// One pass: a fresh engine and session running the workload's script.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Whether spans and the extra layer calls were recorded.
    pub traced: bool,
    /// Every iteration in order; `iters[0]` is the cold one.
    pub iters: Vec<IterStats>,
    /// Wall seconds of the scripted edits per `IterationStage` (P, M, E).
    pub edit_s: [f64; 3],
    /// End-of-pass engine state.
    pub end: EndState,
    /// Σ `workflow_manifests` seconds (traced only).
    pub sign_s: f64,
    /// Σ sizes of the chunk-signed files (traced only).
    pub bytes_signed: u64,
    /// Σ `compile_preview` seconds (traced only).
    pub compile_s: f64,
    /// Peak resident memory during the pass.
    pub peak_rss_mb: f64,
    /// TCP connections the client opened (wire workload only).
    pub connects: usize,
    /// Connections shed by the server during the pass (wire workload only).
    pub shed: u64,
}

impl Pass {
    /// Σ iteration wall time.
    pub fn cumulative_s(&self) -> f64 {
        self.iters.iter().map(|i| i.wall_s).sum()
    }

    fn warm_s(&self) -> f64 {
        self.iters.iter().skip(1).map(|i| i.wall_s).sum()
    }
}

/// Everything one invocation measured.
#[derive(Debug)]
pub struct Run {
    /// Completed passes, traced and untraced.
    pub passes: Vec<Pass>,
    /// Seconds of each untraced set-up: engine open and session create
    /// (on the wire workload the session manager and bind).
    pub setups: Vec<f64>,
    /// Cold iterations timed on their own after each pass, each on a
    /// fresh engine, beside the passes' own first iterations.
    pub colds: Vec<IterStats>,
    /// Request and durable-open latencies in ms by name (wire workload
    /// only).
    pub latencies_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Public calls made, plus iterations checked against the reference.
    pub attempted: u64,
    /// Calls that failed, plus iterations that differed from the reference.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Spans of the traced passes.
    pub tracer: Tracer,
    /// Bytes of the generated input files.
    pub input_bytes: u64,
    /// Engine worker threads.
    pub parallelism: usize,
}

/// Extra set-ups timed after each pass, beyond the pass's own, so that
/// the median set-up time rests on many samples spread over the run.
const SETUPS_PER_PASS: usize = 20;

/// Every iteration's metrics from a reference pass, in order.
pub type Expected = Vec<Vec<(String, f64)>>;

impl Run {
    /// An empty run.
    pub fn new(input_bytes: u64, parallelism: usize) -> Run {
        Run {
            passes: Vec::new(),
            setups: Vec::new(),
            colds: Vec::new(),
            latencies_ms: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            tracer: Tracer::new(),
            input_bytes,
            parallelism,
        }
    }

    /// Runs passes until `seconds` have elapsed and at least
    /// `min_passes` untraced ones ran (with tracing, as many traced ones
    /// too, alternating), resetting the peak-memory mark before each.
    /// After each pass it times `setup` [`SETUPS_PER_PASS`] times and
    /// `cold` `colds_per_pass` times (untraced runs only), so that set-up
    /// and cold-iteration samples are many and span the run. Last, it
    /// makes the reference pass (untimed, after the peak-memory marks
    /// were read) and checks every iteration against it.
    #[allow(clippy::too_many_arguments)]
    pub fn drive(
        &mut self,
        work: &Path,
        seconds: f64,
        trace: bool,
        min_passes: usize,
        colds_per_pass: usize,
        mut setup: impl FnMut(&Path, &mut Run),
        mut cold: impl FnMut(&Path, &mut Run),
        mut pass: impl FnMut(&Path, bool, &mut Run) -> Option<Pass>,
        reference: impl FnOnce(&Path) -> helix_core::Result<Expected>,
    ) -> Result<(), String> {
        let min_passes = if trace { 2 * min_passes } else { min_passes };
        let budget = Duration::from_secs_f64(seconds);
        let started = Instant::now();
        let mut k = 0;
        while k < min_passes || started.elapsed() < budget {
            // A pass and the samples after it work below one directory,
            // removed once they are done.
            let cycle = work.join(format!("cycle-{k}"));
            reset_peak_rss();
            if let Some(mut p) = pass(&cycle.join("pass"), trace && k % 2 == 1, self) {
                p.peak_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
                self.passes.push(p);
            }
            for i in 0..SETUPS_PER_PASS {
                setup(&cycle.join(format!("setup-{i}")), self);
            }
            // Traced runs report no end-to-end metric, so they skip these.
            for i in 0..if trace { 0 } else { colds_per_pass } {
                cold(&cycle.join(format!("cold-{i}")), self);
            }
            let _ = std::fs::remove_dir_all(&cycle);
            k += 1;
        }
        let expected = reference(&work.join("reference")).map_err(|e| format!("reference: {e}"))?;
        self.check(&expected);
        Ok(())
    }

    /// Counts every iteration of every pass, and every extra cold
    /// iteration, as one check against the reference metrics; a
    /// difference is a failure.
    fn check(&mut self, expected: &[Vec<(String, f64)>]) {
        let passes = self.passes.iter().enumerate().flat_map(|(p, pass)| {
            pass.iters
                .iter()
                .enumerate()
                .map(move |(i, it)| (format!("pass {p} iteration {i}"), i, it))
        });
        let colds = (self.colds.iter().enumerate()).map(|(c, it)| (format!("cold {c}"), 0, it));
        let mut verdicts = Vec::new();
        for (what, i, it) in passes.chain(colds) {
            let ok = expected
                .get(i)
                .is_some_and(|e| same_metrics(&it.metrics, e));
            verdicts.push((!ok).then(|| {
                format!(
                    "{what}: metrics {:?} differ from the reference {:?}",
                    it.metrics,
                    expected.get(i)
                )
            }));
        }
        for v in verdicts {
            self.count(v);
        }
    }

    /// Counts one attempted operation, and its failure if `err` is set.
    pub fn count(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(msg) = err {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(msg);
            }
        }
    }

    /// Records one request latency.
    pub fn latency(&mut self, name: &'static str, secs: f64) {
        self.latencies_ms.entry(name).or_default().push(secs * 1e3);
    }

    fn passes(&self, traced: bool) -> impl Iterator<Item = &Pass> {
        self.passes.iter().filter(move |p| p.traced == traced)
    }

    /// Median over untraced (or traced) passes of a per-pass value, with
    /// the pass count.
    fn per_pass(&self, traced: bool, f: impl Fn(&Pass) -> f64) -> (f64, usize) {
        let v: Vec<f64> = self.passes(traced).map(f).collect();
        (median(&v).unwrap_or(f64::NAN), v.len())
    }

    /// The end-to-end metrics, from untraced passes only.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let m = |name: &str, unit, (value, n)| Metric {
            name: name.to_string(),
            unit,
            value,
            samples: n,
        };
        let used = self.per_pass(false, |p| p.end.used_bytes as f64);
        let firsts: Vec<f64> = (self.passes(false).filter_map(|p| p.iters.first()))
            .chain(&self.colds)
            .map(|i| i.wall_s)
            .collect();
        vec![
            m(
                "setup_s",
                "s",
                (median(&self.setups).unwrap_or(f64::NAN), self.setups.len()),
            ),
            m(
                "first_iter_s",
                "s",
                (median(&firsts).unwrap_or(f64::NAN), firsts.len()),
            ),
            m(
                "cumulative_s",
                "s",
                self.per_pass(false, Pass::cumulative_s),
            ),
            m("warm_s", "s", self.per_pass(false, Pass::warm_s)),
            m(
                "store_bytes_per_input_byte",
                "ratio",
                (used.0 / self.input_bytes as f64, used.1),
            ),
            m(
                "peak_rss_mb",
                "MiB",
                self.per_pass(false, |p| p.peak_rss_mb),
            ),
        ]
    }

    /// Workload-specific end-to-end figures that are printed but not
    /// gated: each exists on only some workloads (see the README).
    pub fn workload_specific(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        if self.latencies_ms.is_empty() {
            for (i, name) in ["edit_P_s", "edit_M_s", "edit_E_s"].into_iter().enumerate() {
                let (value, samples) = self.per_pass(false, |p| p.edit_s[i]);
                out.push(Metric {
                    name: name.to_string(),
                    unit: "s",
                    value,
                    samples,
                });
            }
        }
        for (request, values) in &self.latencies_ms {
            for (p, suffix) in [(50.0, "p50_ms"), (90.0, "p90_ms")] {
                let pct = percentile(values, p);
                out.push(Metric {
                    name: format!("{request}_{suffix}"),
                    unit: "ms",
                    value: pct.map_or(f64::NAN, |x| x.value),
                    samples: values.len(),
                });
            }
        }
        out.push(Metric {
            name: "error_rate".to_string(),
            unit: "ratio",
            value: self.failed as f64 / self.attempted.max(1) as f64,
            samples: self.attempted as usize,
        });
        out
    }

    /// The per-layer metrics, from traced passes (medians of per-pass
    /// sums) and, for `trace.overhead_s`, the untraced passes beside them.
    pub fn per_layer(&self) -> Vec<Metric> {
        let traced = |f: &dyn Fn(&Pass) -> f64| self.per_pass(true, f);
        let sum = |f: &dyn Fn(&IterStats) -> f64| {
            self.per_pass(true, |p| p.iters.iter().map(f).sum::<f64>())
        };
        let wire = !self.latencies_ms.is_empty();
        let parallelism = self.parallelism as f64;
        let exec = |i: &IterStats| i.total_s - i.optimizer_s - i.materialize_s;
        let mut out = Vec::new();
        let mut add = |name: &'static str, unit: &'static str, (value, samples): (f64, usize)| {
            out.push(Metric {
                name: name.to_string(),
                unit,
                value,
                samples,
            })
        };
        add("data.sign_s", "s", traced(&|p| p.sign_s));
        add(
            "data.bytes_signed",
            "bytes",
            traced(&|p| p.bytes_signed as f64),
        );
        add("compiler.compile_s", "s", traced(&|p| p.compile_s));
        add("compiler.plan_s", "s", traced(&|p| p.compile_s - p.sign_s));
        add(
            "compiler.replans",
            "count",
            traced(&|p| p.end.replans as f64),
        );
        add("compiler.loaded", "count", sum(&|i| i.loaded as f64));
        add("compiler.computed", "count", sum(&|i| i.computed as f64));
        add("compiler.pruned", "count", sum(&|i| i.pruned as f64));
        add(
            "compiler.reuse_ratio",
            "ratio",
            traced(&|p| {
                let loaded: usize = p.iters.iter().map(|i| i.loaded).sum();
                let computed: usize = p.iters.iter().map(|i| i.computed).sum();
                loaded as f64 / (loaded + computed).max(1) as f64
            }),
        );
        add("scheduler.exec_s", "s", sum(&exec));
        add("scheduler.busy_s", "s", sum(&|i| i.busy_s));
        add(
            "scheduler.utilization",
            "ratio",
            traced(&|p| {
                let busy: f64 = p.iters.iter().map(|i| i.busy_s).sum();
                let exec: f64 = p.iters.iter().map(exec).sum();
                busy / (exec * parallelism)
            }),
        );
        add(
            "scheduler.chunks_reused",
            "count",
            sum(&|i| i.chunks_reused as f64),
        );
        add("ops.preprocess_s", "s", sum(&|i| i.stage_s[0]));
        add("ops.ml_s", "s", sum(&|i| i.stage_s[1]));
        add("ops.eval_s", "s", sum(&|i| i.stage_s[2]));
        add("materialize.write_s", "s", sum(&|i| i.materialize_s));
        add("materialize.nodes", "count", sum(&|i| i.mat_nodes as f64));
        add("materialize.bytes", "bytes", sum(&|i| i.mat_bytes as f64));
        add("store.load_s", "s", sum(&|i| i.load_s));
        add("store.loads", "count", sum(&|i| i.loaded as f64));
        add(
            "store.fetch_mb_per_s",
            "MiB/s",
            traced(&|p| p.end.fetch_mib_per_s),
        );
        add(
            "store.used_bytes",
            "bytes",
            traced(&|p| p.end.used_bytes as f64),
        );
        add("store.entries", "count", traced(&|p| p.end.entries as f64));
        add(
            "persist.wal_bytes",
            "bytes",
            traced(&|p| p.end.wal_bytes as f64),
        );
        add(
            "memo.entries",
            "count",
            traced(&|p| p.end.memo_entries as f64),
        );
        add(
            "memo.observations",
            "count",
            traced(&|p| p.end.memo_observations as f64),
        );
        // In process, iterate's wall time beyond `total_secs` is the
        // session record; over the wire it also holds HTTP framing, so it
        // is reported as server overhead instead.
        let beyond_total = sum(&|i| i.wall_s - i.total_s);
        let none = (0.0, beyond_total.1);
        add(
            "session.record_s",
            "s",
            if wire { none } else { beyond_total },
        );
        add(
            "server.iterate_overhead_s",
            "s",
            if wire { beyond_total } else { none },
        );
        add("server.connects", "count", traced(&|p| p.connects as f64));
        add("server.shed", "count", traced(&|p| p.shed as f64));
        let (traced_cum, n) = self.per_pass(true, Pass::cumulative_s);
        let (plain_cum, _) = self.per_pass(false, Pass::cumulative_s);
        add("trace.overhead_s", "s", (traced_cum - plain_cum, n));
        out
    }
}

/// A named metric value with its unit and sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value (NaN when it could not be computed).
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// Resets the kernel's peak-RSS mark to the current RSS (Linux), so that
/// the next [`peak_rss_mb`] covers only what ran since. Where the reset is
/// unavailable the mark keeps covering the whole process.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process in MiB (`VmHWM`), if the
/// platform reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / MIB)
}
