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
//! releases exactly its own reservation. The shard count is
//! [`DEFAULT_STORE_SHARDS`] unless [`StoreOptions::shards`] says
//! otherwise; `1` reproduces the old single-lock store.
//!
//! # The directory is the index
//!
//! The store keeps no index of its own on disk. [`StoreOptions::open`]
//! sweeps leftover `*.tmp` files (puts killed before their rename) and
//! builds the entry map and budget ledger from the `<sig>.hlx` files it
//! finds, taking each entry's size from its file — the same scan for
//! every [`Durability`] tier. Because entries are published by an atomic
//! rename and removed before the ledger forgets them, a crash at any
//! point leaves a directory whose scan is the store's exact state: the
//! ledger can never double-count or resurrect an entry. A file that
//! later fails to read or decode is dropped by [`IntermediateStore::get`]
//! so the next plan recomputes it. See docs/ARCHITECTURE.md § Durability.

use crate::ops::NodeOutput;
use crate::signature::Signature;
use crate::{HelixError, Result};
use helix_dataflow::fx::FxHashMap;
use parking_lot::Mutex;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-wide counter for unique temp-file names (see [`IntermediateStore::put`]).
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Default number of store shards.
pub const DEFAULT_STORE_SHARDS: usize = 16;

/// Whether the engine's cross-run state survives a process restart.
///
/// The store itself behaves the same in both tiers (its directory is its
/// only index); the tier decides whether the engine also persists its
/// meta (cost model, version history, optimizer memo) and its session
/// records. The default is [`Durability::Volatile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Nothing beyond the store's files survives: a reopen still finds
    /// every entry, but budget history, version DAGs, and sessions start
    /// fresh.
    #[default]
    Volatile,
    /// Engine meta and session records are written through fsync'd
    /// atomic replaces, so a reopened engine resumes every session's
    /// lineage (`HELIX_DURABILITY=wal`).
    Wal,
}

impl Durability {
    /// Alias of [`Durability::Wal`], the tier `HELIX_DURABILITY=wal-nosync`
    /// also names. Kept because perfbench calls it.
    pub fn wal_nosync() -> Self {
        Durability::Wal
    }

    /// Whether this mode persists state across restarts.
    pub fn is_durable(&self) -> bool {
        matches!(self, Durability::Wal)
    }

    /// Parses the `HELIX_DURABILITY` environment value: `volatile`,
    /// `wal`, or `wal-nosync` (case-insensitive; the last two name the
    /// same tier). `None` for anything else.
    pub fn from_env_value(value: &str) -> Option<Durability> {
        match value.to_ascii_lowercase().as_str() {
            "volatile" => Some(Durability::Volatile),
            "wal" | "wal-nosync" | "wal_nosync" => Some(Durability::Wal),
            _ => None,
        }
    }
}

/// Builder for opening an [`IntermediateStore`] — the one way to open a
/// store.
///
/// ```no_run
/// use helix_core::StoreOptions;
/// let store = StoreOptions::new("/tmp/helix-store")
///     .budget_bytes(1 << 30)
///     .shards(16)
///     .open()
///     .unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct StoreOptions {
    dir: PathBuf,
    budget_bytes: u64,
    shards: usize,
}

impl StoreOptions {
    /// Options rooted at `dir` with an unlimited budget and
    /// [`DEFAULT_STORE_SHARDS`] shards.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreOptions {
            dir: dir.into(),
            budget_bytes: u64::MAX,
            shards: DEFAULT_STORE_SHARDS,
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

    /// Opens (or creates) the store: sweeps leftover `*.tmp` files and
    /// indexes every `<sig>.hlx` file in the directory at its on-disk
    /// size, so prior runs' materializations stay visible. Other files
    /// and subdirectories are ignored.
    pub fn open(self) -> Result<IntermediateStore> {
        let StoreOptions {
            dir,
            budget_bytes,
            shards,
        } = self;
        std::fs::create_dir_all(&dir)?;
        let mut shard_maps: Vec<Shard> = (0..shards).map(|_| Shard::default()).collect();
        let mut used = 0u64;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            match path.extension().and_then(|e| e.to_str()) {
                Some("tmp") => {
                    let _ = std::fs::remove_file(&path);
                    continue;
                }
                Some("hlx") => {}
                _ => continue,
            }
            let Some(sig) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|stem| u64::from_str_radix(stem, 16).ok())
            else {
                continue;
            };
            let bytes = entry.metadata()?.len();
            shard_maps[shard_index(sig, shards)]
                .entries
                .insert(sig, EntryMeta { bytes });
            used += bytes;
        }
        Ok(IntermediateStore {
            inner: Arc::new(StoreInner {
                dir,
                budget_bytes,
                used_bytes: AtomicU64::new(used),
                shards: shard_maps.into_iter().map(Mutex::new).collect(),
            }),
        })
    }
}

/// What a durable engine found in its store directory at open. All zeros
/// for [`Durability::Volatile`] engines.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Entries the open scan indexed.
    pub recovered_entries: usize,
}

/// Metadata for one stored entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryMeta {
    /// On-disk size in bytes.
    pub bytes: u64,
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

fn sig_file_name(sig: u64) -> String {
    format!("{sig:016x}.hlx")
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

    /// Always 0: the store keeps no write-ahead log. Kept because
    /// perfbench reports it as `persist.wal_bytes`.
    pub fn wal_bytes(&self) -> u64 {
        0
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

    fn shard(&self, sig: Signature) -> &Mutex<Shard> {
        &self.inner.shards[shard_index(sig.0, self.inner.shards.len())]
    }

    fn path_for(&self, sig: Signature) -> PathBuf {
        self.inner.dir.join(sig_file_name(sig.0))
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
        let mut shard = self.shard(sig).lock();
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
        Ok((size, started.elapsed().as_secs_f64()))
    }

    /// Reads the output stored under `sig`.
    ///
    /// Returns `(output, bytes_read, seconds)`.
    ///
    /// An entry whose file cannot be read or decoded (torn by a crash,
    /// truncated or removed behind the store's back) is evicted before
    /// the error returns, so it is offered to no later plan: the next
    /// compile recomputes the node instead of failing on it again.
    ///
    /// # Errors
    /// [`HelixError::Store`] if the entry is missing or unreadable.
    pub fn get(&self, sig: Signature) -> Result<(NodeOutput, u64, f64)> {
        if self.lookup(sig).is_none() {
            return Err(HelixError::Store(format!(
                "no entry for signature {}",
                sig.hex()
            )));
        }
        let started = Instant::now();
        let read = std::fs::read(self.path_for(sig))
            .map_err(HelixError::from)
            .and_then(|bytes| Ok((NodeOutput::decode(&bytes)?, bytes.len() as u64)));
        match read {
            Ok((output, len)) => Ok((output, len, started.elapsed().as_secs_f64())),
            Err(err) => {
                // A failed removal keeps the entry, which still matches
                // the disk; the next `get` tries again.
                let _ = self.evict(sig);
                Err(HelixError::Store(format!(
                    "entry {} is unreadable: {err}",
                    sig.hex()
                )))
            }
        }
    }

    /// Deletes the entry for `sig` if present, freeing budget.
    ///
    /// The file removal happens under the signature's shard lock so it
    /// cannot race a concurrent `put`'s rename of a fresh file to the
    /// same path. The file is removed *before* any bookkeeping mutates:
    /// if the removal fails, the entry stays in the map and the ledger
    /// keeps its bytes, so the store's view still matches the disk (a
    /// reopen rescan would find the surviving file). An already-missing
    /// file (`NotFound`) counts as removed.
    pub fn evict(&self, sig: Signature) -> Result<bool> {
        let mut shard = self.shard(sig).lock();
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
    pub fn clear(&self) -> Result<()> {
        // Hold every shard lock at once so the ledger reset sees a
        // consistent picture (locks are acquired in index order, and no
        // other path holds two shard locks, so this cannot deadlock).
        let mut guards: Vec<_> = self.inner.shards.iter().map(|s| s.lock()).collect();
        let mut reserved = 0u64;
        for guard in guards.iter_mut() {
            for (sig, _) in guard.entries.drain() {
                let _ = std::fs::remove_file(self.inner.dir.join(sig_file_name(sig)));
            }
            reserved += guard.reserved.values().sum::<u64>();
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
            for i in 1..=3 {
                store.put(Signature(i), &sample_output(10)).unwrap();
            }
        }
        // A put killed before its rename leaves only its temp file.
        std::fs::write(dir.join("0000000000000009.7.tmp"), b"half-written").unwrap();
        // A file removed behind the store's back.
        std::fs::remove_file(dir.join(sig_file_name(2))).unwrap();

        let store = open_store(&dir, 1 << 20);
        assert_eq!(store.len(), 2);
        assert_matches_disk(&store);
        assert!(
            store.lookup(Signature(2)).is_none(),
            "removed file is dropped"
        );
        assert!(
            !dir.join("0000000000000009.7.tmp").exists(),
            "stray temp file is swept"
        );
        assert_eq!(store.get(Signature(1)).unwrap().0, sample_output(10));
        assert_eq!(store.get(Signature(3)).unwrap().0, sample_output(10));
    }

    #[test]
    fn crash_between_rename_and_wal_append_cannot_double_count() {
        // A put killed right after its rename leaves the new file and no
        // other record of it; the reopen scan must count it exactly once.
        let dir = tmpdir("crash-put");
        {
            let store = open_store(&dir, 1 << 20);
            store.put(Signature(1), &sample_output(30)).unwrap();
        }
        // An overwrite with a different size: only the new file counts.
        std::fs::write(dir.join(sig_file_name(1)), sample_output(90).encode()).unwrap();
        // An entry file the ledger never recorded.
        std::fs::write(dir.join(sig_file_name(2)), sample_output(20).encode()).unwrap();

        let store = open_store(&dir, 1 << 20);
        assert_eq!(store.len(), 2);
        assert_matches_disk(&store);
        assert_eq!(store.get(Signature(1)).unwrap().0, sample_output(90));
        assert_eq!(store.get(Signature(2)).unwrap().0, sample_output(20));
    }

    #[test]
    fn crash_during_clear_cannot_resurrect_entries() {
        let dir = tmpdir("crash-clear");
        {
            let store = open_store(&dir, 1 << 20);
            for i in 1..=5 {
                store.put(Signature(i), &sample_output(10)).unwrap();
            }
        }
        // A clear killed after removing three of the five files.
        for i in 1..=3 {
            std::fs::remove_file(dir.join(sig_file_name(i))).unwrap();
        }
        let store = open_store(&dir, 1 << 20);
        assert_eq!(store.len(), 2, "removed entries must not resurrect");
        assert_matches_disk(&store);
        for i in 1..=3 {
            assert!(store.lookup(Signature(i)).is_none());
        }

        // A completed clear reopens empty.
        store.clear().unwrap();
        drop(store);
        let store = open_store(&dir, 1 << 20);
        assert!(store.is_empty());
        assert_eq!(store.used_bytes(), 0);
        assert_matches_disk(&store);
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
    fn unreadable_entry_is_dropped_on_get() {
        let store = open_store(tmpdir("unreadable"), 1 << 20);
        store.put(Signature(4), &sample_output(50)).unwrap();
        store.put(Signature(5), &sample_output(50)).unwrap();
        // A torn file: the entry's bytes cut in half.
        let path = store.path_for(Signature(4));
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len / 2)
            .unwrap();
        let err = store.get(Signature(4)).unwrap_err();
        assert!(matches!(err, HelixError::Store(_)), "got: {err}");
        assert!(store.lookup(Signature(4)).is_none(), "torn entry dropped");
        assert!(!path.exists(), "torn file removed");
        assert_matches_disk(&store);
        // A vanished file is dropped the same way.
        std::fs::remove_file(store.path_for(Signature(5))).unwrap();
        let err = store.get(Signature(5)).unwrap_err();
        assert!(matches!(err, HelixError::Store(_)), "got: {err}");
        assert!(store.is_empty());
        assert_eq!(store.used_bytes(), 0);
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

    /// The ledger must equal the bytes of the `.hlx` files actually in
    /// the directory: a reopen can neither double-count nor resurrect.
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
        // to exactly what its writer stored.
        let store = open_store(tmpdir("race-evict"), 1 << 22);
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
}
