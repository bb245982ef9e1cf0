//! The intermediate store: signature-keyed materializations on disk.
//!
//! Each materialized node output lives in one file named by its Merkle
//! signature (`<sig>.hlx`), so validity is purely a key-existence check:
//! any workflow change upstream of a node changes its signature and the
//! old file simply stops matching (it stays on disk and becomes reusable
//! again if the user reverts — the paper's version-rollback story).
//!
//! The store enforces the materialization optimizer's **storage budget**
//! (paper §2.3: "with a maximum storage constraint") and reports measured
//! I/O durations to the cost model.
//!
//! # Sharding
//!
//! The entry map is split across `N` shards keyed by signature hash, so
//! the ready-queue executor's concurrent `get`/`put`/`evict` traffic does
//! not serialize on one lock — only operations on signatures that land in
//! the same shard contend. The byte ledger is a store-wide atomic with
//! the same **reservation** semantics the single-lock store had: a `put`
//! reserves its bytes with one compare-and-swap (performed while its
//! shard lock pins the size of any entry it overwrites), so concurrent
//! puts can never jointly overshoot the budget, and a failed write
//! releases exactly its own reservation. The shard count comes from
//! [`crate::EngineConfig::store_shards`] / `HELIX_STORE_SHARDS` (default
//! [`DEFAULT_STORE_SHARDS`]); `1` reproduces the old single-lock store.
//!
//! # Durability
//!
//! A store opened with [`Durability::Wal`] keeps a per-shard write-ahead
//! log under `<dir>/wal/shard-<i>.wal`: one JSON-line record is appended
//! (and optionally fsync'd) for every committed `put` and `evict`, and
//! the log is compacted into a snapshot (a log holding exactly one `put`
//! record per live entry) whenever it outgrows `compact_after_bytes`.
//! Opening a durable store replays the log, **verifies every record
//! against the files actually on disk** (missing file → entry dropped;
//! size mismatch → repaired to the file's actual size; untracked `.hlx`
//! file → adopted), truncates torn or corrupt tail records with a
//! warning — the store never refuses to start — and finally writes a
//! fresh snapshot. Because replay rebuilds the budget ledger from the
//! deduplicated, disk-verified entry map, a crash at *any* point between
//! a file write/rename and the matching log append can never double-count
//! budget. See docs/ARCHITECTURE.md § Durability.

use crate::ops::NodeOutput;
use crate::signature::Signature;
use crate::{HelixError, Result};
use helix_dataflow::fx::FxHashMap;
use helix_json::Json;
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-wide counter for unique temp-file names (see [`IntermediateStore::put`]).
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Default number of shards when `HELIX_STORE_SHARDS` is unset.
pub const DEFAULT_STORE_SHARDS: usize = 16;

/// How (and whether) the store and engine state survive a process crash.
///
/// The default is [`Durability::Volatile`] — identical behavior and put
/// path to the store before the durable tier existed. Servers that must
/// resume sessions across restarts opt into [`Durability::Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No write-ahead log. Entries still live on disk and a reopen
    /// rescans the directory, but evictions, budget history, version
    /// DAGs, and sessions do not survive the process.
    #[default]
    Volatile,
    /// Per-shard write-ahead log plus engine/session snapshots.
    Wal {
        /// `fsync` each log record before `put`/`evict` returns. Turning
        /// this off (`wal-nosync`) keeps crash *consistency* — replay
        /// verifies against the files on disk — but a crash may lose the
        /// most recent records' bookkeeping until the files are rescanned.
        fsync: bool,
        /// Compact a shard's log into a snapshot once it exceeds this
        /// many bytes.
        compact_after_bytes: u64,
    },
}

impl Durability {
    /// Default log-compaction threshold for [`Durability::wal`].
    pub const DEFAULT_COMPACT_AFTER_BYTES: u64 = 1 << 20;

    /// Durable with fsync'd records — the safe default for serving.
    pub fn wal() -> Self {
        Durability::Wal {
            fsync: true,
            compact_after_bytes: Self::DEFAULT_COMPACT_AFTER_BYTES,
        }
    }

    /// Durable log without per-record fsync: crash-consistent but the
    /// tail may be lost on power failure. Useful when the fsync cost on
    /// the put path matters (see docs/PERFORMANCE.md).
    pub fn wal_nosync() -> Self {
        Durability::Wal {
            fsync: false,
            compact_after_bytes: Self::DEFAULT_COMPACT_AFTER_BYTES,
        }
    }

    /// Whether this mode persists state across restarts.
    pub fn is_durable(&self) -> bool {
        matches!(self, Durability::Wal { .. })
    }

    /// Parses the `HELIX_DURABILITY` environment value: `volatile`,
    /// `wal`, or `wal-nosync` (case-insensitive). `None` for anything
    /// else.
    pub fn from_env_value(value: &str) -> Option<Durability> {
        match value.to_ascii_lowercase().as_str() {
            "volatile" => Some(Durability::Volatile),
            "wal" => Some(Durability::wal()),
            "wal-nosync" | "wal_nosync" => Some(Durability::wal_nosync()),
            _ => None,
        }
    }
}

/// Builder for opening an [`IntermediateStore`] — the one way to open a
/// store.
///
/// ```no_run
/// use helix_core::{Durability, StoreOptions};
/// let store = StoreOptions::new("/tmp/helix-store")
///     .budget_bytes(1 << 30)
///     .shards(16)
///     .durability(Durability::wal())
///     .open()
///     .unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct StoreOptions {
    dir: PathBuf,
    budget_bytes: u64,
    shards: usize,
    durability: Durability,
}

impl StoreOptions {
    /// Options rooted at `dir` with an unlimited budget, the default
    /// shard count ([`crate::config_env::store_shards`]), and
    /// [`Durability::Volatile`].
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreOptions {
            dir: dir.into(),
            budget_bytes: u64::MAX,
            shards: crate::config_env::store_shards(),
            durability: Durability::default(),
        }
    }

    /// Sets the storage budget in bytes.
    pub fn budget_bytes(mut self, budget_bytes: u64) -> Self {
        self.budget_bytes = budget_bytes;
        self
    }

    /// Sets the shard count (clamped to ≥ 1; `1` reproduces the
    /// historical single-lock store).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the durability mode.
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Opens (or creates) the store. For durable options this replays
    /// the WAL, verifies every replayed entry against the files on disk,
    /// adopts untracked files, truncates torn tail records with a
    /// warning, and writes a fresh snapshot — it never refuses to start
    /// over a recoverable directory. Volatile stores scan the directory
    /// so prior iterations' materializations stay visible.
    pub fn open(self) -> Result<IntermediateStore> {
        let StoreOptions {
            dir,
            budget_bytes,
            shards,
            durability,
        } = self;
        std::fs::create_dir_all(&dir)?;
        sweep_tmp_files(&dir)?;
        let shard_count = shards.max(1);
        let mut recovery = RecoveryInfo::default();
        let mut map: FxHashMap<u64, u64> = FxHashMap::default();
        let wal_dir = match durability {
            Durability::Volatile => None,
            Durability::Wal { .. } => {
                let wal_dir = dir.join("wal");
                std::fs::create_dir_all(&wal_dir)?;
                sweep_tmp_files(&wal_dir)?;
                let mut wal_files: Vec<PathBuf> = std::fs::read_dir(&wal_dir)?
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("wal"))
                    .collect();
                wal_files.sort();
                for file in &wal_files {
                    replay_wal_file(file, &mut map, &mut recovery)?;
                }
                // Verify every replayed record against the disk: the
                // files are the ground truth, the log is the index.
                let replayed: Vec<(u64, u64)> = map.drain().collect();
                for (sig, logged_bytes) in replayed {
                    match std::fs::metadata(dir.join(sig_file_name(sig))) {
                        Ok(md) => {
                            if md.len() != logged_bytes {
                                recovery.repaired_sizes += 1;
                                eprintln!(
                                    "helix-store: WAL size for {sig:016x} was {logged_bytes}, \
                                     file is {} bytes; using the file",
                                    md.len()
                                );
                            }
                            map.insert(sig, md.len());
                        }
                        Err(_) => {
                            recovery.dropped_entries += 1;
                            eprintln!("helix-store: dropping WAL entry {sig:016x}: file missing");
                        }
                    }
                }
                Some(wal_dir)
            }
        };
        // Scan the directory: the volatile store's entire index, and the
        // durable store's adoption pass for files the log missed.
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("hlx") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Ok(sig) = u64::from_str_radix(stem, 16) else {
                continue;
            };
            if map.contains_key(&sig) {
                continue;
            }
            map.insert(sig, entry.metadata()?.len());
            if wal_dir.is_some() {
                recovery.adopted_files += 1;
            }
        }
        if wal_dir.is_some() {
            recovery.recovered_entries = map.len();
        }
        let mut shard_maps: Vec<Shard> = (0..shard_count).map(|_| Shard::default()).collect();
        let mut used = 0u64;
        for (sig, bytes) in map {
            shard_maps[shard_index(sig, shard_count)]
                .entries
                .insert(sig, EntryMeta { bytes });
            used += bytes;
        }
        let store = IntermediateStore {
            inner: Arc::new(StoreInner {
                dir,
                budget_bytes,
                used_bytes: AtomicU64::new(used),
                shards: shard_maps.into_iter().map(Mutex::new).collect(),
                durability,
                wal_dir,
                last_snapshot_unix: AtomicU64::new(0),
                recovery,
                #[cfg(test)]
                fail_skip_wal_append: std::sync::atomic::AtomicBool::new(false),
                #[cfg(test)]
                fail_skip_clear_compaction: std::sync::atomic::AtomicBool::new(false),
            }),
        };
        // A durable open ends with a fresh snapshot: stale log files from
        // previous shard layouts are dropped and the WAL starts compact.
        store.snapshot_now()?;
        Ok(store)
    }
}

/// Counters describing what the WAL replay found when a durable store
/// was opened. All zeros for [`Durability::Volatile`] stores.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Entries live after replay, verification, and adoption.
    pub recovered_entries: usize,
    /// `.hlx` files present on disk but absent from the log (e.g. written
    /// before a crash beat the log append, or inherited from a volatile
    /// store) that were adopted into the entry map.
    pub adopted_files: usize,
    /// Replayed entries dropped because their file no longer exists.
    pub dropped_entries: usize,
    /// Replayed entries whose logged size disagreed with the file on
    /// disk; the ledger uses the file's actual size.
    pub repaired_sizes: usize,
    /// Torn or corrupt log records skipped under the truncate-and-warn
    /// policy (the tail record after a mid-append crash lands here).
    pub torn_records: usize,
    /// Total WAL bytes read during replay.
    pub wal_bytes_replayed: u64,
}

/// Metadata for one stored entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryMeta {
    /// On-disk size in bytes.
    pub bytes: u64,
}

/// Append handle for one shard's write-ahead log.
#[derive(Debug)]
struct WalWriter {
    file: std::fs::File,
    path: PathBuf,
    bytes: u64,
    fsync: bool,
}

impl WalWriter {
    fn open_append(path: PathBuf, fsync: bool) -> std::io::Result<WalWriter> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let bytes = file.metadata()?.len();
        Ok(WalWriter {
            file,
            path,
            bytes,
            fsync,
        })
    }

    /// Appends one record (the trailing newline is added here) as a
    /// single write, then flushes — and fsyncs when configured — before
    /// returning.
    fn append(&mut self, record: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(record.len() + 1);
        buf.extend_from_slice(record.as_bytes());
        buf.push(b'\n');
        self.file.write_all(&buf)?;
        if self.fsync {
            self.file.sync_data()?;
        }
        self.bytes += buf.len() as u64;
        Ok(())
    }
}

/// One shard of the signature-keyed maps.
#[derive(Debug, Default)]
struct Shard {
    /// Entries whose file exists on disk (visible to `lookup`/`get`).
    entries: FxHashMap<u64, EntryMeta>,
    /// Budget reserved by in-flight `put` calls, keyed by signature.
    /// Invisible to readers and to `evict` — a reservation becomes an
    /// entry only once its file is fully written and renamed.
    reserved: FxHashMap<u64, u64>,
    /// This shard's WAL append handle (durable stores only).
    wal: Option<WalWriter>,
}

/// The shared state behind [`IntermediateStore`] handles.
#[derive(Debug)]
struct StoreInner {
    dir: PathBuf,
    budget_bytes: u64,
    /// Bytes of entries plus in-flight reservations across all shards
    /// (the budget ledger).
    used_bytes: AtomicU64,
    shards: Box<[Mutex<Shard>]>,
    durability: Durability,
    /// `<dir>/wal` when durable, `None` when volatile.
    wal_dir: Option<PathBuf>,
    /// Unix seconds of the most recent snapshot compaction (0 = never).
    last_snapshot_unix: AtomicU64,
    /// What replay found at open time.
    recovery: RecoveryInfo,
    /// Per-instance failpoints for crash-consistency regression tests:
    /// simulate a kill between the file rename and the WAL append
    /// (`put`), or between file removal and log compaction (`clear`).
    #[cfg(test)]
    fail_skip_wal_append: std::sync::atomic::AtomicBool,
    #[cfg(test)]
    fail_skip_clear_compaction: std::sync::atomic::AtomicBool,
}

/// On-disk store with budget accounting, sharded for concurrent access.
///
/// An `IntermediateStore` is a cheap [`Clone`]-able handle to shared
/// state: every clone sees the same entries, ledger, and budget. The
/// ready-queue scheduler clones the handle into its persistent worker
/// threads (`'static` jobs cannot borrow the caller's store).
#[derive(Debug, Clone)]
pub struct IntermediateStore {
    inner: Arc<StoreInner>,
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn sig_file_name(sig: u64) -> String {
    format!("{sig:016x}.hlx")
}

fn wal_record_put(sig: u64, bytes: u64, secs: f64) -> String {
    Json::obj([
        ("v", Json::Num(1.0)),
        ("op", Json::str("put")),
        ("sig", Json::str(format!("{sig:016x}"))),
        ("bytes", Json::Num(bytes as f64)),
        ("secs", Json::Num(secs)),
        ("file", Json::str(sig_file_name(sig))),
    ])
    .to_string()
}

fn wal_record_evict(sig: u64) -> String {
    Json::obj([
        ("v", Json::Num(1.0)),
        ("op", Json::str("evict")),
        ("sig", Json::str(format!("{sig:016x}"))),
    ])
    .to_string()
}

/// Removes leftover `*.tmp` files (half-written entry or snapshot temp
/// files from a crashed process) from `dir`.
fn sweep_tmp_files(dir: &Path) -> Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("tmp") {
            let _ = std::fs::remove_file(&path);
        }
    }
    Ok(())
}

/// Replays one WAL file into `map` (last record per signature wins),
/// applying the truncate-and-warn policy to torn or corrupt records.
fn replay_wal_file(
    path: &Path,
    map: &mut FxHashMap<u64, u64>,
    recovery: &mut RecoveryInfo,
) -> Result<()> {
    let data = std::fs::read(path)?;
    recovery.wal_bytes_replayed += data.len() as u64;
    let mut offset = 0usize;
    while offset < data.len() {
        let (line, next) = match data[offset..].iter().position(|&b| b == b'\n') {
            Some(p) => (&data[offset..offset + p], offset + p + 1),
            None => (&data[offset..], data.len()),
        };
        offset = next;
        if line.is_empty() {
            continue;
        }
        let record = std::str::from_utf8(line)
            .ok()
            .and_then(|text| Json::parse(text).ok());
        let Some(record) = record else {
            recovery.torn_records += 1;
            eprintln!(
                "helix-store: dropping torn/corrupt WAL record in {} (truncate-and-warn)",
                path.display()
            );
            continue;
        };
        let sig = record
            .get("sig")
            .and_then(Json::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok());
        match (record.get("op").and_then(Json::as_str), sig) {
            (Some("put"), Some(sig)) => {
                let Some(bytes) = record.get("bytes").and_then(Json::as_u64) else {
                    recovery.torn_records += 1;
                    eprintln!(
                        "helix-store: put record without byte count in {}",
                        path.display()
                    );
                    continue;
                };
                map.insert(sig, bytes);
            }
            (Some("evict"), Some(sig)) => {
                map.remove(&sig);
            }
            _ => {
                recovery.torn_records += 1;
                eprintln!(
                    "helix-store: skipping unrecognized WAL record in {}",
                    path.display()
                );
            }
        }
    }
    Ok(())
}

impl IntermediateStore {
    /// The storage budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.inner.budget_bytes
    }

    /// Number of shards the entry maps are split across.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The directory the store is rooted at.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// The durability mode the store was opened with.
    pub fn durability(&self) -> Durability {
        self.inner.durability
    }

    /// What WAL replay found when this store was opened (all zeros for
    /// volatile stores).
    pub fn recovery(&self) -> RecoveryInfo {
        self.inner.recovery
    }

    /// Current total size of the write-ahead logs in bytes (0 when
    /// volatile).
    pub fn wal_bytes(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().wal.as_ref().map_or(0, |w| w.bytes))
            .sum()
    }

    /// Unix seconds of the most recent snapshot compaction; 0 if never
    /// (volatile stores stay 0).
    pub fn last_snapshot_unix(&self) -> u64 {
        self.inner.last_snapshot_unix.load(Ordering::Acquire)
    }

    /// Bytes currently used (entries plus in-flight reservations).
    pub fn used_bytes(&self) -> u64 {
        self.inner.used_bytes.load(Ordering::Acquire)
    }

    /// Bytes still available under the budget.
    pub fn remaining_bytes(&self) -> u64 {
        self.inner.budget_bytes.saturating_sub(self.used_bytes())
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().entries.len())
            .sum()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the entry for `sig`, if present.
    pub fn lookup(&self, sig: Signature) -> Option<EntryMeta> {
        self.shard(sig).lock().entries.get(&sig.0).copied()
    }

    fn shard_slot(&self, sig: Signature) -> usize {
        shard_index(sig.0, self.inner.shards.len())
    }

    fn shard(&self, sig: Signature) -> &Mutex<Shard> {
        &self.inner.shards[self.shard_slot(sig)]
    }

    fn path_for(&self, sig: Signature) -> PathBuf {
        self.inner.dir.join(sig_file_name(sig.0))
    }

    /// Rewrites shard `idx`'s WAL as a snapshot — exactly one `put`
    /// record per live entry — via temp file + rename, then reopens the
    /// append handle. Must be called with the shard's lock held.
    fn compact_shard_locked(&self, idx: usize, shard: &mut Shard) -> Result<()> {
        let Some(wal_dir) = &self.inner.wal_dir else {
            return Ok(());
        };
        let fsync = matches!(self.inner.durability, Durability::Wal { fsync: true, .. });
        let path = wal_dir.join(format!("shard-{idx}.wal"));
        let token = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let tmp = wal_dir.join(format!("shard-{idx}.wal.{token}.tmp"));
        let mut text = String::new();
        for (&sig, meta) in &shard.entries {
            text.push_str(&wal_record_put(sig, meta.bytes, 0.0));
            text.push('\n');
        }
        let written = (|| -> Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.flush()?;
            if fsync {
                file.sync_data()?;
            }
            Ok(())
        })();
        if let Err(err) = written.and_then(|()| Ok(std::fs::rename(&tmp, &path)?)) {
            let _ = std::fs::remove_file(&tmp);
            return Err(err);
        }
        shard.wal = Some(WalWriter::open_append(path, fsync)?);
        self.inner
            .last_snapshot_unix
            .store(unix_now(), Ordering::Release);
        Ok(())
    }

    /// Compacts every shard's WAL into a snapshot now and removes log
    /// files left over from older shard layouts. A no-op `Ok(())` for
    /// volatile stores. (`POST /admin/snapshot` lands here.)
    pub fn snapshot_now(&self) -> Result<()> {
        let Some(wal_dir) = &self.inner.wal_dir else {
            return Ok(());
        };
        for (idx, slot) in self.inner.shards.iter().enumerate() {
            let mut shard = slot.lock();
            self.compact_shard_locked(idx, &mut shard)?;
        }
        // Stale files (e.g. `shard-7.wal` after reopening with 4 shards)
        // are only removed after every live shard has a fresh snapshot:
        // a crash in between leaves extra logs whose records deduplicate
        // harmlessly on the next replay.
        let live: Vec<String> = (0..self.inner.shards.len())
            .map(|i| format!("shard-{i}.wal"))
            .collect();
        for entry in std::fs::read_dir(wal_dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("wal") {
                continue;
            }
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !live.iter().any(|l| l == name) {
                let _ = std::fs::remove_file(&path);
            }
        }
        Ok(())
    }

    /// Appends a WAL record for the shard, warning instead of failing:
    /// the entry map and the files on disk are already consistent, and
    /// replay verification self-heals a lost record (the file is the
    /// ground truth), so a log write error must not fail the operation.
    fn wal_append_locked(&self, idx: usize, shard: &mut Shard, record: &str) {
        let Durability::Wal {
            compact_after_bytes,
            ..
        } = self.inner.durability
        else {
            return;
        };
        match shard.wal.as_mut() {
            Some(wal) => {
                if let Err(err) = wal.append(record) {
                    eprintln!(
                        "helix-store: WAL append failed on {}: {err} (entry is on disk; \
                         replay will adopt it)",
                        wal.path.display()
                    );
                }
            }
            None => eprintln!("helix-store: WAL writer missing for shard {idx}"),
        }
        if shard
            .wal
            .as_ref()
            .is_some_and(|w| w.bytes > compact_after_bytes)
        {
            if let Err(err) = self.compact_shard_locked(idx, shard) {
                eprintln!("helix-store: WAL compaction failed for shard {idx}: {err}");
            }
        }
    }

    /// Writes an output under `sig`, enforcing the budget.
    ///
    /// Returns `(bytes_written, seconds)` on success. Writing is atomic
    /// (temp file + rename) so a crash cannot leave a torn entry behind,
    /// and the budget check **reserves** the entry's bytes with a single
    /// compare-and-swap on the ledger while the signature's shard lock is
    /// held — concurrent puts can never jointly overshoot the budget by
    /// each passing a stale check (the ready-queue executor's workers and
    /// any future background materializer rely on this). Reservations are
    /// a side ledger: readers and `evict` never see an entry whose file
    /// is not fully on disk, and a failed write releases only its own
    /// reservation, so racing `get`/`evict` calls cannot be corrupted by
    /// a put that later fails.
    ///
    /// An overwrite conservatively holds both the old entry's bytes and
    /// the new reservation until the rename lands (the old file stays
    /// readable throughout).
    ///
    /// On a durable store, a WAL record is appended (and fsync'd when
    /// configured) after the rename commits, while the shard lock is
    /// still held. A crash between the rename and the append loses only
    /// the record — replay's adoption pass recovers the entry from the
    /// file itself.
    ///
    /// # Errors
    /// [`HelixError::Store`] if the entry would exceed the budget.
    pub fn put(&self, sig: Signature, output: &NodeOutput) -> Result<(u64, f64)> {
        let started = Instant::now();
        // Encoding is part of the materialization cost the optimizer
        // trades off, so it is inside the timed region.
        let bytes = output.encode();
        let size = bytes.len() as u64;
        {
            let mut shard = self.shard(sig).lock();
            if shard.reserved.contains_key(&sig.0) {
                // Two in-flight puts of one signature would race the
                // rename. One run's plan-order merge never does this, but
                // two concurrent sessions materializing the same workflow
                // can: both pass the engine's lookup-before-put check,
                // and the loser lands here. The engine treats the error
                // as "someone else is materializing it" and moves on.
                return Err(HelixError::Store(format!(
                    "concurrent put already in flight for signature {}",
                    sig.hex()
                )));
            }
            // The shard lock pins `existing` (an evict of this signature
            // needs the same lock), so the CAS admits exactly the puts the
            // single-lock store would have.
            let existing = shard.entries.get(&sig.0).map(|m| m.bytes).unwrap_or(0);
            let reserve =
                self.inner
                    .used_bytes
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |used| {
                        (used.saturating_sub(existing) + size <= self.inner.budget_bytes)
                            .then_some(used + size)
                    });
            if reserve.is_err() {
                return Err(HelixError::Store(format!(
                    "materializing {size} bytes would exceed the {}-byte budget ({} used)",
                    self.inner.budget_bytes,
                    self.used_bytes()
                )));
            }
            shard.reserved.insert(sig.0, size);
        }
        // Unique temp name: a racing put of another signature must not
        // write through this one's half-finished temp file.
        let token = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let tmp = self.inner.dir.join(format!("{}.{token}.tmp", sig.hex()));
        let written = (|| -> Result<()> {
            let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            file.write_all(&bytes)?;
            file.flush()?;
            Ok(())
        })();
        let idx = self.shard_slot(sig);
        let mut shard = self.inner.shards[idx].lock();
        shard.reserved.remove(&sig.0);
        // The rename happens under the shard lock (a cheap metadata op)
        // so an `evict` of a replaced entry can never delete the fresh
        // file: evict holds the same lock across its own remove_file.
        let published = written.and_then(|()| Ok(std::fs::rename(&tmp, self.path_for(sig))?));
        if let Err(err) = published {
            // Release only this call's reservation; entries were never
            // touched, so concurrent get/evict state is unaffected.
            self.inner.used_bytes.fetch_sub(size, Ordering::AcqRel);
            drop(shard);
            let _ = std::fs::remove_file(&tmp);
            return Err(err);
        }
        let previous = shard.entries.insert(sig.0, EntryMeta { bytes: size });
        // The reservation's bytes stay in the ledger as the entry's; an
        // overwrite releases the replaced entry's share now.
        if let Some(meta) = previous {
            self.inner
                .used_bytes
                .fetch_sub(meta.bytes, Ordering::AcqRel);
        }
        let secs = started.elapsed().as_secs_f64();
        #[cfg(test)]
        if self
            .inner
            .fail_skip_wal_append
            .load(std::sync::atomic::Ordering::Relaxed)
        {
            return Ok((size, secs));
        }
        self.wal_append_locked(idx, &mut shard, &wal_record_put(sig.0, size, secs));
        Ok((size, secs))
    }

    /// Reads the output stored under `sig`.
    ///
    /// Returns `(output, bytes_read, seconds)`.
    ///
    /// # Errors
    /// [`HelixError::Store`] if the entry is missing or corrupt.
    pub fn get(&self, sig: Signature) -> Result<(NodeOutput, u64, f64)> {
        if self.lookup(sig).is_none() {
            return Err(HelixError::Store(format!(
                "no entry for signature {}",
                sig.hex()
            )));
        }
        let started = Instant::now();
        let mut bytes = Vec::new();
        let mut file = std::io::BufReader::new(std::fs::File::open(self.path_for(sig))?);
        file.read_to_end(&mut bytes)?;
        let output = NodeOutput::decode(&bytes)?;
        let secs = started.elapsed().as_secs_f64();
        Ok((output, bytes.len() as u64, secs))
    }

    /// Deletes the entry for `sig` if present, freeing budget.
    ///
    /// The file removal happens under the signature's shard lock so it
    /// cannot race a concurrent `put`'s rename of a fresh file to the
    /// same path. The file is removed *before* any bookkeeping mutates:
    /// if the removal fails, the entry stays in the map and the ledger
    /// keeps its bytes, so the store's view still matches the disk (a
    /// reopen rescan would find the surviving file). An already-missing
    /// file (`NotFound`) counts as removed. On a durable store an evict
    /// record is appended after the bookkeeping; a crash before the
    /// append is harmless because replay drops entries whose file is
    /// gone.
    pub fn evict(&self, sig: Signature) -> Result<bool> {
        let idx = self.shard_slot(sig);
        let mut shard = self.inner.shards[idx].lock();
        let Some(meta) = shard.entries.get(&sig.0).copied() else {
            return Ok(false);
        };
        match std::fs::remove_file(self.path_for(sig)) {
            Ok(()) => {}
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
            Err(err) => return Err(err.into()),
        }
        shard.entries.remove(&sig.0);
        self.inner
            .used_bytes
            .fetch_sub(meta.bytes, Ordering::AcqRel);
        self.wal_append_locked(idx, &mut shard, &wal_record_evict(sig.0));
        Ok(true)
    }

    /// Every signature currently stored, in no particular order (the
    /// retention sweep walks this to find unreferenced entries).
    pub fn signatures(&self) -> Vec<Signature> {
        self.inner
            .shards
            .iter()
            .flat_map(|shard| shard.lock().entries.keys().copied().collect::<Vec<_>>())
            .map(Signature)
            .collect()
    }

    /// Deletes everything (used between benchmark scenarios). In-flight
    /// `put` reservations keep their budget share so a concurrent put
    /// completing after the clear stays correctly accounted.
    ///
    /// On a durable store each shard's WAL is compacted to an empty
    /// snapshot after its files are removed; a crash in between leaves
    /// stale put records whose files are gone, which replay verification
    /// drops (never double-counts).
    pub fn clear(&self) -> Result<()> {
        // Hold every shard lock at once so the ledger reset sees a
        // consistent picture (locks are acquired in index order, and no
        // other path holds two shard locks, so this cannot deadlock).
        let mut guards: Vec<_> = self.inner.shards.iter().map(|s| s.lock()).collect();
        let mut reserved = 0u64;
        for (idx, guard) in guards.iter_mut().enumerate() {
            let sigs: Vec<u64> = guard.entries.keys().copied().collect();
            for sig in sigs {
                guard.entries.remove(&sig);
                let _ = std::fs::remove_file(self.inner.dir.join(sig_file_name(sig)));
            }
            reserved += guard.reserved.values().sum::<u64>();
            #[cfg(test)]
            if self
                .inner
                .fail_skip_clear_compaction
                .load(std::sync::atomic::Ordering::Relaxed)
            {
                continue;
            }
            if self.inner.wal_dir.is_some() {
                if let Err(err) = self.compact_shard_locked(idx, guard) {
                    eprintln!("helix-store: WAL compaction after clear failed: {err}");
                }
            }
        }
        self.inner.used_bytes.store(reserved, Ordering::Release);
        Ok(())
    }
}

/// Maps a signature to a shard index. Signatures are already Merkle
/// hashes, but the multiply-shift spreads any residual structure (e.g.
/// test signatures 1, 2, 3, …) across shards.
fn shard_index(sig: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mixed = sig.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((mixed >> 32) as usize) % shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_dataflow::{DataCollection, DataType, Row, Schema, Value};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("helix-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open_store(dir: impl Into<PathBuf>, budget: u64) -> IntermediateStore {
        StoreOptions::new(dir).budget_bytes(budget).open().unwrap()
    }

    fn open_wal_store(dir: impl Into<PathBuf>, budget: u64) -> IntermediateStore {
        StoreOptions::new(dir)
            .budget_bytes(budget)
            .durability(Durability::wal())
            .open()
            .unwrap()
    }

    fn sample_output(n: i64) -> NodeOutput {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let rows = (0..n).map(|i| Row(vec![Value::Int(i)])).collect();
        NodeOutput::Data(DataCollection::new(schema, rows).unwrap())
    }

    #[test]
    fn put_get_round_trip() {
        let store = open_store(tmpdir("rt"), 1 << 20);
        let out = sample_output(100);
        let (written, _) = store.put(Signature(7), &out).unwrap();
        assert!(written > 0);
        assert_eq!(store.len(), 1);
        let (back, read, _) = store.get(Signature(7)).unwrap();
        assert_eq!(read, written);
        assert_eq!(back, out);
    }

    #[test]
    fn missing_entry_errors() {
        let store = open_store(tmpdir("miss"), 1 << 20);
        assert!(store.get(Signature(1)).is_err());
        assert!(store.lookup(Signature(1)).is_none());
    }

    #[test]
    fn budget_enforced() {
        let store = open_store(tmpdir("budget"), 64);
        let out = sample_output(1000);
        let err = store.put(Signature(1), &out).unwrap_err();
        assert!(err.to_string().contains("budget"));
        assert_eq!(store.used_bytes(), 0);
    }

    #[test]
    fn overwrite_replaces_budget_share() {
        let dir = tmpdir("overwrite");
        let store = open_store(&dir, 1 << 20);
        store.put(Signature(9), &sample_output(100)).unwrap();
        let used_first = store.used_bytes();
        store.put(Signature(9), &sample_output(100)).unwrap();
        assert_eq!(store.used_bytes(), used_first);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn reopen_rescans_entries() {
        let dir = tmpdir("reopen");
        {
            let store = open_store(&dir, 1 << 20);
            store.put(Signature(3), &sample_output(10)).unwrap();
        }
        let store = open_store(&dir, 1 << 20);
        assert_eq!(store.len(), 1);
        let (out, ..) = store.get(Signature(3)).unwrap();
        assert_eq!(out, sample_output(10));
        assert!(store.used_bytes() > 0);
    }

    #[test]
    fn reopen_with_different_shard_count_sees_all_entries() {
        let dir = tmpdir("reshard");
        {
            let store = StoreOptions::new(&dir)
                .budget_bytes(1 << 20)
                .shards(4)
                .open()
                .unwrap();
            for i in 0..12 {
                store.put(Signature(i + 1), &sample_output(10)).unwrap();
            }
        }
        for shards in [1, 3, 16] {
            let store = StoreOptions::new(&dir)
                .budget_bytes(1 << 20)
                .shards(shards)
                .open()
                .unwrap();
            assert_eq!(store.shard_count(), shards);
            assert_eq!(store.len(), 12, "{shards} shards");
            for i in 0..12 {
                assert_eq!(store.get(Signature(i + 1)).unwrap().0, sample_output(10));
            }
        }
    }

    #[test]
    fn evict_frees_budget() {
        let store = open_store(tmpdir("evict"), 1 << 20);
        store.put(Signature(5), &sample_output(10)).unwrap();
        assert!(store.evict(Signature(5)).unwrap());
        assert!(!store.evict(Signature(5)).unwrap());
        assert_eq!(store.used_bytes(), 0);
        assert!(store.get(Signature(5)).is_err());
    }

    #[test]
    fn evict_failure_leaves_entry_and_ledger_intact() {
        // Force `remove_file` to fail by replacing the entry's file with
        // a non-empty directory of the same name. The failed evict must
        // not mutate the map or the budget ledger — otherwise the store's
        // view disagrees with the disk and a reopen rescan resurrects the
        // "evicted" entry.
        let store = open_store(tmpdir("evict-fail"), 1 << 20);
        store.put(Signature(9), &sample_output(10)).unwrap();
        let used_before = store.used_bytes();
        let path = store.path_for(Signature(9));
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        std::fs::write(path.join("occupant"), b"x").unwrap();

        assert!(store.evict(Signature(9)).is_err());
        assert!(
            store.lookup(Signature(9)).is_some(),
            "failed evict must keep the entry"
        );
        assert_eq!(
            store.used_bytes(),
            used_before,
            "failed evict must not free budget"
        );

        // Once the obstruction is gone the same evict succeeds; the file
        // is already absent (NotFound), which counts as removed.
        std::fs::remove_dir_all(&path).unwrap();
        assert!(store.evict(Signature(9)).unwrap());
        assert_eq!(store.used_bytes(), 0);
    }

    #[test]
    fn evict_treats_missing_file_as_removed() {
        let store = open_store(tmpdir("evict-gone"), 1 << 20);
        store.put(Signature(3), &sample_output(10)).unwrap();
        std::fs::remove_file(store.path_for(Signature(3))).unwrap();
        assert!(store.evict(Signature(3)).unwrap());
        assert_eq!(store.used_bytes(), 0);
        assert!(store.lookup(Signature(3)).is_none());
    }

    #[test]
    fn signatures_lists_live_entries() {
        let store = open_store(tmpdir("sigs"), 1 << 20);
        for i in 1..=5 {
            store.put(Signature(i), &sample_output(4)).unwrap();
        }
        store.evict(Signature(3)).unwrap();
        let mut sigs: Vec<u64> = store.signatures().into_iter().map(|s| s.0).collect();
        sigs.sort_unstable();
        assert_eq!(sigs, vec![1, 2, 4, 5]);
    }

    #[test]
    fn clear_removes_everything() {
        let store = open_store(tmpdir("clear"), 1 << 20);
        store.put(Signature(1), &sample_output(5)).unwrap();
        store.put(Signature(2), &sample_output(5)).unwrap();
        store.clear().unwrap();
        assert!(store.is_empty());
        assert_eq!(store.remaining_bytes(), 1 << 20);
    }

    /// Bookkeeping invariant shared by the stress tests: the byte ledger
    /// must equal the sum of live entries and respect the budget.
    fn assert_ledger_consistent(store: &IntermediateStore, sigs: &[Signature]) {
        let summed: u64 = sigs
            .iter()
            .filter_map(|&s| store.lookup(s))
            .map(|m| m.bytes)
            .sum();
        assert_eq!(
            store.used_bytes(),
            summed,
            "ledger out of sync with entries"
        );
        assert!(
            store.used_bytes() <= store.budget_bytes(),
            "budget exceeded: {} > {}",
            store.used_bytes(),
            store.budget_bytes()
        );
    }

    /// The ledger of a reopened durable store must equal the bytes of the
    /// `.hlx` files actually in the directory — the acceptance check for
    /// "replay can never double-count budget".
    fn assert_matches_disk(store: &IntermediateStore) {
        let on_disk: u64 = std::fs::read_dir(store.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("hlx"))
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert_eq!(store.used_bytes(), on_disk, "ledger != bytes on disk");
    }

    #[test]
    fn concurrent_puts_never_exceed_budget() {
        // Each entry is ~1.3 KiB encoded; a budget of ~8 entries with 32
        // threads racing means most puts must be rejected — and the
        // accepted set must exactly account for every used byte. Run at
        // several shard counts: with many shards the racing puts hold
        // *different* locks, so the ledger CAS is all that stands between
        // them and a joint overshoot.
        let one_entry = sample_output(100).encode().len() as u64;
        let budget = one_entry * 8 + one_entry / 2;
        for shards in [1, 4, 16] {
            let store = StoreOptions::new(tmpdir("race-budget"))
                .budget_bytes(budget)
                .shards(shards)
                .open()
                .unwrap();
            let sigs: Vec<Signature> = (0..32).map(|i| Signature(1000 + i)).collect();
            let accepted: usize = crossbeam::scope(|scope| {
                let handles: Vec<_> = sigs
                    .iter()
                    .map(|&sig| {
                        let store = &store;
                        scope.spawn(move |_| match store.put(sig, &sample_output(100)) {
                            Ok(_) => 1usize,
                            Err(HelixError::Store(_)) => 0usize,
                            Err(other) => panic!("unexpected error: {other}"),
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            })
            .unwrap();
            assert_eq!(
                accepted, 8,
                "{shards} shards: exactly the entries that fit are accepted"
            );
            assert_eq!(store.len(), 8, "{shards} shards");
            assert_ledger_consistent(&store, &sigs);
        }
    }

    #[test]
    fn puts_racing_eviction_never_corrupt_entries() {
        // Writers repeatedly put distinct signatures while an evictor
        // tears entries down; afterwards every surviving entry must decode
        // to exactly what its writer stored. Run durable so the WAL
        // append path is exercised under the same contention.
        let store = open_wal_store(tmpdir("race-evict"), 1 << 22);
        let per_writer = 24i64;
        let writers = 4i64;
        crossbeam::scope(|scope| {
            for w in 0..writers {
                let store = &store;
                scope.spawn(move |_| {
                    for k in 0..per_writer {
                        let sig = Signature((w * per_writer + k) as u64 + 1);
                        // Payload derived from the signature so readers can
                        // verify integrity without coordination.
                        store
                            .put(sig, &sample_output(10 + (sig.0 % 7) as i64))
                            .unwrap();
                    }
                });
            }
            let store = &store;
            scope.spawn(move |_| {
                for round in 0..64u64 {
                    let _ = store.evict(Signature(round % (writers * per_writer) as u64 + 1));
                }
            });
        })
        .unwrap();
        let sigs: Vec<Signature> = (0..writers * per_writer)
            .map(|i| Signature(i as u64 + 1))
            .collect();
        assert_ledger_consistent(&store, &sigs);
        let mut survivors = 0;
        for &sig in &sigs {
            if store.lookup(sig).is_some() {
                let (out, ..) = store.get(sig).unwrap();
                assert_eq!(
                    out,
                    sample_output(10 + (sig.0 % 7) as i64),
                    "entry {sig:?} corrupt"
                );
                survivors += 1;
            }
        }
        assert!(survivors > 0, "eviction should not have removed everything");
    }

    #[test]
    fn concurrent_readers_see_consistent_snapshots() {
        let store = open_store(tmpdir("race-read"), 1 << 22);
        for i in 0..8 {
            store.put(Signature(i + 1), &sample_output(50)).unwrap();
        }
        crossbeam::scope(|scope| {
            for _ in 0..8 {
                let store = &store;
                scope.spawn(move |_| {
                    for i in 0..8u64 {
                        let (out, bytes, _) = store.get(Signature(i + 1)).unwrap();
                        assert_eq!(out, sample_output(50));
                        assert!(bytes > 0);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(store.len(), 8);
    }

    #[test]
    fn failed_put_rolls_back_reservation() {
        // Force the write to fail by deleting the store directory out from
        // under it; the reservation must be rolled back so the budget is
        // not permanently leaked.
        let dir = tmpdir("rollback");
        let store = open_store(&dir, 1 << 20);
        std::fs::remove_dir_all(&dir).unwrap();
        let err = store.put(Signature(7), &sample_output(100)).unwrap_err();
        assert!(matches!(err, HelixError::Io(_)), "got: {err}");
        assert_eq!(store.used_bytes(), 0, "reservation must roll back");
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn shard_index_spreads_and_stays_in_range() {
        for shards in [1usize, 2, 5, 16] {
            let mut hit = vec![false; shards];
            for sig in 0..256u64 {
                let idx = shard_index(sig, shards);
                assert!(idx < shards);
                hit[idx] = true;
            }
            assert!(hit.iter().all(|&h| h), "{shards} shards all reachable");
        }
    }

    // ------------------------------------------------------------------
    // Durable tier
    // ------------------------------------------------------------------

    #[test]
    fn wal_reopen_restores_entries_and_ledger() {
        let dir = tmpdir("wal-reopen");
        let used;
        {
            let store = open_wal_store(&dir, 1 << 20);
            for i in 1..=6 {
                store
                    .put(Signature(i), &sample_output(10 + i as i64))
                    .unwrap();
            }
            store.evict(Signature(4)).unwrap();
            used = store.used_bytes();
            assert!(store.wal_bytes() > 0);
            assert!(store.last_snapshot_unix() > 0);
        }
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.len(), 5);
        assert_eq!(store.used_bytes(), used);
        assert_eq!(store.recovery().recovered_entries, 5);
        assert_eq!(store.recovery().dropped_entries, 0);
        assert_eq!(store.recovery().torn_records, 0);
        assert_matches_disk(&store);
        for i in [1u64, 2, 3, 5, 6] {
            assert_eq!(
                store.get(Signature(i)).unwrap().0,
                sample_output(10 + i as i64)
            );
        }
        assert!(store.lookup(Signature(4)).is_none(), "evict must replay");
    }

    #[test]
    fn wal_replay_drops_entries_whose_file_is_missing() {
        let dir = tmpdir("wal-drop");
        {
            let store = open_wal_store(&dir, 1 << 20);
            for i in 1..=3 {
                store.put(Signature(i), &sample_output(10)).unwrap();
            }
        }
        // Simulate a crash window: the file is gone but its log records
        // survive (an evict whose record append never landed).
        std::fs::remove_file(dir.join(sig_file_name(2))).unwrap();
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.len(), 2);
        assert_eq!(store.recovery().dropped_entries, 1);
        assert_matches_disk(&store);
    }

    #[test]
    fn wal_replay_repairs_size_mismatches_from_disk() {
        let dir = tmpdir("wal-repair");
        {
            let store = open_wal_store(&dir, 1 << 20);
            store.put(Signature(8), &sample_output(50)).unwrap();
        }
        // The file changed size behind the log's back — the file wins.
        std::fs::write(dir.join(sig_file_name(8)), b"short").unwrap();
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.len(), 1);
        assert_eq!(store.recovery().repaired_sizes, 1);
        assert_eq!(store.used_bytes(), 5);
        assert_matches_disk(&store);
    }

    #[test]
    fn wal_open_adopts_files_from_a_volatile_store() {
        let dir = tmpdir("wal-adopt");
        {
            let store = open_store(&dir, 1 << 20);
            for i in 1..=4 {
                store.put(Signature(i), &sample_output(10)).unwrap();
            }
        }
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.len(), 4);
        assert_eq!(store.recovery().adopted_files, 4);
        assert_eq!(store.recovery().recovered_entries, 4);
        assert_matches_disk(&store);
        // The adoption is now snapshotted: a second reopen replays it
        // from the log instead.
        drop(store);
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.recovery().adopted_files, 0);
        assert_eq!(store.recovery().recovered_entries, 4);
    }

    #[test]
    fn torn_wal_tail_is_truncated_with_a_warning() {
        let dir = tmpdir("wal-torn");
        {
            let store = StoreOptions::new(&dir)
                .budget_bytes(1 << 20)
                .shards(1)
                .durability(Durability::wal())
                .open()
                .unwrap();
            for i in 1..=3 {
                store.put(Signature(i), &sample_output(10)).unwrap();
            }
        }
        // Append a torn record (no closing brace, no newline) as a crash
        // mid-append would leave.
        let wal = dir.join("wal").join("shard-0.wal");
        let mut file = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        file.write_all(b"{\"v\":1,\"op\":\"put\",\"sig\":\"00000000000000ff\",\"byt")
            .unwrap();
        drop(file);
        let store = StoreOptions::new(&dir)
            .budget_bytes(1 << 20)
            .shards(1)
            .durability(Durability::wal())
            .open()
            .unwrap();
        assert_eq!(store.len(), 3, "torn tail must not lose committed entries");
        assert_eq!(store.recovery().torn_records, 1);
        assert_matches_disk(&store);
        // Open rewrote the snapshot, so the torn record is gone for good.
        drop(store);
        let store = StoreOptions::new(&dir)
            .budget_bytes(1 << 20)
            .shards(1)
            .durability(Durability::wal())
            .open()
            .unwrap();
        assert_eq!(store.recovery().torn_records, 0);
    }

    #[test]
    fn crash_between_rename_and_wal_append_cannot_double_count() {
        // Failpoint: the put's file rename lands but the WAL record is
        // never appended — the window the ISSUE's bugfix audit names.
        let dir = tmpdir("wal-fp-put");
        {
            let store = open_wal_store(&dir, 1 << 20);
            store.put(Signature(1), &sample_output(30)).unwrap();
            store
                .inner
                .fail_skip_wal_append
                .store(true, std::sync::atomic::Ordering::Relaxed);
            // An overwrite whose new size differs: the log still holds
            // the OLD size for sig 1, the disk holds the new file.
            store.put(Signature(1), &sample_output(90)).unwrap();
            // And a brand-new entry with no log record at all.
            store.put(Signature(2), &sample_output(20)).unwrap();
        }
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.len(), 2);
        // sig 1's stale logged size was repaired from disk; sig 2 was
        // adopted from its file. Either way the ledger equals the disk —
        // counted once, not twice.
        assert_eq!(store.recovery().repaired_sizes, 1);
        assert_eq!(store.recovery().adopted_files, 1);
        assert_matches_disk(&store);
    }

    #[test]
    fn crash_during_clear_cannot_resurrect_entries() {
        // Failpoint: clear removes the files but dies before compacting
        // the WAL, leaving stale put records for deleted files.
        let dir = tmpdir("wal-fp-clear");
        {
            let store = open_wal_store(&dir, 1 << 20);
            for i in 1..=5 {
                store.put(Signature(i), &sample_output(10)).unwrap();
            }
            store
                .inner
                .fail_skip_clear_compaction
                .store(true, std::sync::atomic::Ordering::Relaxed);
            store.clear().unwrap();
        }
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.len(), 0, "stale put records must not resurrect");
        assert_eq!(store.used_bytes(), 0);
        assert_eq!(store.recovery().dropped_entries, 5);
        assert_matches_disk(&store);
    }

    #[test]
    fn wal_compaction_caps_log_size() {
        let dir = tmpdir("wal-compact");
        let store = StoreOptions::new(&dir)
            .budget_bytes(1 << 22)
            .shards(1)
            .durability(Durability::Wal {
                fsync: false,
                compact_after_bytes: 512,
            })
            .open()
            .unwrap();
        for round in 0..40u64 {
            store
                .put(Signature(round % 4 + 1), &sample_output(20))
                .unwrap();
        }
        // 40 puts × ~100 bytes per record would be ~4 KiB of log; the
        // 512-byte threshold keeps it at snapshot size (4 live entries).
        assert!(
            store.wal_bytes() < 1024,
            "log should have compacted: {} bytes",
            store.wal_bytes()
        );
        assert!(store.last_snapshot_unix() > 0);
        drop(store);
        let store = open_wal_store(&dir, 1 << 22);
        assert_eq!(store.len(), 4);
        assert_matches_disk(&store);
    }

    #[test]
    fn snapshot_now_is_a_noop_for_volatile_stores() {
        let store = open_store(tmpdir("vol-snap"), 1 << 20);
        store.put(Signature(1), &sample_output(5)).unwrap();
        store.snapshot_now().unwrap();
        assert_eq!(store.wal_bytes(), 0);
        assert_eq!(store.last_snapshot_unix(), 0);
        assert_eq!(store.recovery(), RecoveryInfo::default());
    }

    #[test]
    fn wal_reopen_across_shard_counts_drops_stale_logs() {
        let dir = tmpdir("wal-reshard");
        {
            let store = StoreOptions::new(&dir)
                .budget_bytes(1 << 20)
                .shards(8)
                .durability(Durability::wal())
                .open()
                .unwrap();
            for i in 1..=10 {
                store.put(Signature(i), &sample_output(10)).unwrap();
            }
        }
        let store = StoreOptions::new(&dir)
            .budget_bytes(1 << 20)
            .shards(2)
            .durability(Durability::wal())
            .open()
            .unwrap();
        assert_eq!(store.len(), 10);
        assert_matches_disk(&store);
        let wal_files: Vec<String> = std::fs::read_dir(dir.join("wal"))
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".wal"))
            .collect();
        assert_eq!(
            wal_files.len(),
            2,
            "stale shard logs removed: {wal_files:?}"
        );
    }
}
