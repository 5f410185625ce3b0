//! Content-addressed, tiered result cache.
//!
//! Simulation points are pure functions of their canonical run request
//! (program, parameters, configuration, execution mode, fault plan), so
//! their results are addressable artifacts: the higher layers digest the
//! request into a [`Key`] and store/retrieve the encoded result through a
//! [`CacheStore`]. A warm cache turns a multi-minute sweep re-run into a
//! memory or directory scan.
//!
//! The production store is [`TieredCache`]:
//!
//! ```text
//!   lookup(key) ──► hot tier (in-memory LRU, NSC_CACHE_MEM_BYTES)
//!                      │ miss                         ▲ promote on hit
//!                      ▼                              │
//!                   cold tier (sharded disk files ────┘
//!                      NSC_CACHE_DISK_BYTES budget, LRU eviction,
//!                      optional NSC_CACHE_COMPRESS record packing)
//!                      │ miss
//!                      ▼
//!                   simulate + store (disk, then hot)
//! ```
//!
//! The hot tier holds decoded record blobs so repeat hits never touch
//! disk; the cold tier is the durable sharded blob store
//! (`<dir>/<shard>/<key>.run`) that PR 4 introduced, now bounded by a
//! byte budget with least-recently-stamped eviction and optional
//! [`crate::pack`] compression (bit-exact for the f64 bit patterns
//! records rely on; uncompressed legacy entries stay readable).
//!
//! This module is deliberately value-agnostic: it maps keys to UTF-8
//! blobs. What goes into the digest and how results are encoded lives
//! with the types being cached (`near_stream::RunRequest`), keeping the
//! dependency direction sim → core intact.
//!
//! Arming and tier budgets come from [`crate::config`]: the cache is
//! consulted only when `NSC_CACHE` is on (harnesses' `--no-cache` turns
//! it off; `nscd` turns it on unless `NSC_CACHE=0`). `NSC_RESULTS_DIR`
//! relocates the `results/` root, and `NSC_CACHE_DIR` overrides the
//! cache directory outright. `NSC_CACHE_MEM_BYTES` budgets the hot tier
//! (default 64 MiB, `0` disables it), `NSC_CACHE_DISK_BYTES` the cold
//! tier (default `0` = unbounded), and `NSC_CACHE_COMPRESS` packs
//! cold-tier records. [`shared`] builds its store at first use.
//!
//! Per-tier hits/misses/stores/evictions are tracked in [`CacheStats`];
//! harness reports surface the totals in the `host` block, next to
//! `jobs` and `wall_ms`, because they legitimately differ between a cold
//! and a warm run of otherwise identical work.
//!
//! # Examples
//!
//! ```
//! use nsc_sim::cache::{Digest, Key};
//!
//! let mut d = Digest::new("example-schema-v1");
//! d.str("histogram");
//! d.u64(42);
//! let key: Key = d.finish();
//! let mut d2 = Digest::new("example-schema-v1");
//! d2.str("histogram");
//! d2.u64(43); // one-field perturbation
//! assert_ne!(key, d2.finish());
//! // Keys round-trip through their hex rendering (inspector addressing).
//! assert_eq!(Key::parse_hex(&key.hex()), Some(key));
//! ```

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::config;
use crate::metrics::{self, Metric};

/// A 128-bit content digest, rendered as 32 hex digits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    hi: u64,
    lo: u64,
}

impl Key {
    /// The 32-hex-digit rendering used as the on-disk file stem.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// The high 64 bits (used to tag trace events compactly).
    pub fn hi(&self) -> u64 {
        self.hi
    }

    /// The low 64 bits (with [`Key::hi`], names the full key).
    pub fn lo(&self) -> u64 {
        self.lo
    }

    /// Parses the 32-hex-digit rendering back into a key (the inverse of
    /// [`Key::hex`]), so inspectors can address entries by name.
    pub fn parse_hex(s: &str) -> Option<Key> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Key { hi, lo })
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.hex())
    }
}

/// An incremental 128-bit digest over the canonical byte encoding of a
/// run request.
///
/// Two independent FNV-1a-style lanes (distinct offset bases and primes)
/// are mixed through a splitmix64 finalizer. This is not cryptographic —
/// the threat model is accidental collision between the few thousand
/// distinct simulation points of an evaluation campaign, for which
/// 128 bits of well-mixed state is comfortable.
#[derive(Clone, Debug)]
pub struct Digest {
    a: u64,
    b: u64,
    len: u64,
}

impl Digest {
    /// Starts a digest, folding in `schema` first so any schema/version
    /// bump invalidates every previously stored entry.
    pub fn new(schema: &str) -> Digest {
        let mut d = Digest {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
            len: 0,
        };
        d.str(schema);
        d
    }

    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            self.b = (self.b ^ byte as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (self.b >> 29);
        }
        self.len = self.len.wrapping_add(bytes.len() as u64);
    }

    /// Folds a length-prefixed string (prefixing prevents `"ab" + "c"`
    /// from colliding with `"a" + "bc"` across field boundaries).
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds one little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` by bit pattern (distinguishes `0.0` from `-0.0`;
    /// NaN payloads fold as-is, which is fine for configuration data).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Finalizes into a [`Key`].
    pub fn finish(&self) -> Key {
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        Key {
            hi: mix(self.a ^ mix(self.len)),
            lo: mix(self.b.wrapping_add(mix(self.a.rotate_left(32)))),
        }
    }
}

/// Whether cache consultation is armed (`NSC_CACHE`, or the
/// `--no-cache` flag turning it off; see [`crate::config`]).
pub fn enabled() -> bool {
    config::get().cache
}

/// Flat per-entry bookkeeping charge in the hot tier, on top of blob
/// bytes (map slot, key, stamps). Keeps a million tiny entries from
/// reading as "free".
const MEM_ENTRY_OVERHEAD: u64 = 64;

/// Per-tier counters and occupancy, snapshotted by [`CacheStore::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups answered by this tier.
    pub hits: u64,
    /// Lookups this tier could not answer (for the hot tier: fell
    /// through to disk, whether or not disk then hit).
    pub misses: u64,
    /// Records written into this tier (hot: inserts + promotions).
    pub stores: u64,
    /// Records expelled to stay within the byte budget.
    pub evictions: u64,
    /// Resident payload bytes (hot: blob + fixed overhead per entry;
    /// cold: file bytes, post-compression).
    pub bytes: u64,
    /// Resident record count.
    pub entries: u64,
}

/// Whole-store statistics: one [`TierStats`] per tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hot: TierStats,
    pub cold: TierStats,
}

impl CacheStats {
    /// Total lookups answered from cache, either tier. Matches the
    /// pre-tier process-wide hit counter: a warm replay of a cold run
    /// reports the same total no matter which tier served it.
    pub fn hits(&self) -> u64 {
        self.hot.hits + self.cold.hits
    }

    /// Total lookups no tier could answer (the run had to simulate).
    /// Hot-tier fall-throughs that the cold tier absorbed are *not*
    /// misses at this level.
    pub fn misses(&self) -> u64 {
        self.cold.misses
    }
}

/// Where a single key currently lives ([`TieredCache::probe`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KeyProbe {
    /// Resident in the in-memory hot tier.
    pub in_hot: bool,
    /// Present in the on-disk cold tier.
    pub in_cold: bool,
    /// Stored size: cold file bytes if on disk, else hot blob bytes.
    pub bytes: u64,
    /// Hot-tier hits served for this key since it was (re)admitted.
    pub hits: u64,
}

/// A key-to-blob result store. Implementations must be safe to share
/// across sweep workers ([`TieredCache`] is the production store; tests
/// inject tiny-budget instances to force evictions).
pub trait CacheStore: Send + Sync {
    /// Looks `key` up, counting a hit or miss. Returns the stored blob.
    ///
    /// Unreadable, missing, or corrupt-compressed entries are misses; a
    /// corrupt *decoded* record is the caller's to detect when decoding
    /// (and to overwrite via [`CacheStore::store`]).
    fn lookup(&self, key: &Key) -> Option<String>;

    /// Stores `blob` under `key` durably (and into the hot tier).
    fn store(&self, key: &Key, blob: &str) -> io::Result<()>;

    /// Peeks at `key` without touching hit/miss counters (daemon status
    /// probes and the degraded cache-only admission check).
    fn contains(&self, key: &Key) -> bool;

    /// Deletes every cached entry in every tier, returning how many
    /// durable entries were removed.
    fn purge(&self) -> io::Result<usize>;

    /// Snapshots per-tier counters and occupancy.
    fn stats(&self) -> CacheStats;

    /// Zeroes hit/miss/store/eviction counters (occupancy is left
    /// alone). The daemon's per-window accounting.
    fn reset_stats(&self);
}

// ---------------------------------------------------------------------
// Hot tier: size-budgeted in-memory LRU over decoded record blobs.
// ---------------------------------------------------------------------

struct MemEntry {
    blob: String,
    /// Monotonic access stamp; unique per entry (the tier clock only
    /// moves under the tier lock), so LRU eviction has a total order and
    /// is deterministic for a given access sequence.
    stamp: u64,
    hits: u64,
}

#[derive(Default)]
struct MemInner {
    map: HashMap<Key, MemEntry>,
    bytes: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    stores: u64,
    evictions: u64,
}

struct MemTier {
    budget: u64,
    inner: Mutex<MemInner>,
}

impl MemTier {
    fn new(budget: u64) -> MemTier {
        MemTier {
            budget,
            inner: Mutex::new(MemInner::default()),
        }
    }

    fn cost(blob: &str) -> u64 {
        blob.len() as u64 + MEM_ENTRY_OVERHEAD
    }

    fn get(&self, key: &Key) -> Option<String> {
        if self.budget == 0 {
            return None;
        }
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        inner.clock += 1;
        let stamp = inner.clock;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = stamp;
                entry.hits += 1;
                let blob = entry.blob.clone();
                inner.hits += 1;
                Some(blob)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    fn insert(&self, key: &Key, blob: &str) {
        let cost = MemTier::cost(blob);
        if self.budget == 0 || cost > self.budget {
            return; // tier off, or one entry alone would overflow it
        }
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(old) = inner.map.insert(
            *key,
            MemEntry {
                blob: blob.to_string(),
                stamp,
                hits: 0,
            },
        ) {
            inner.bytes -= MemTier::cost(&old.blob);
        }
        inner.bytes += cost;
        inner.stores += 1;
        // Evict least-recently-stamped first; stamps are unique, so the
        // victim order is fully determined by the access sequence.
        while inner.bytes > self.budget {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(k, e)| (e.stamp, **k))
                .map(|(k, _)| *k)
                .expect("over budget implies at least one resident entry");
            let gone = inner.map.remove(&victim).unwrap();
            inner.bytes -= MemTier::cost(&gone.blob);
            inner.evictions += 1;
            metrics::count_global(Metric::CacheHotEvictions, 1);
        }
    }

    fn contains(&self, key: &Key) -> bool {
        self.budget > 0 && self.inner.lock().unwrap().map.contains_key(key)
    }

    fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.map.clear();
        inner.bytes = 0;
    }

    fn stats(&self) -> TierStats {
        let inner = self.inner.lock().unwrap();
        TierStats {
            hits: inner.hits,
            misses: inner.misses,
            stores: inner.stores,
            evictions: inner.evictions,
            bytes: inner.bytes,
            entries: inner.map.len() as u64,
        }
    }

    fn reset_stats(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.hits = 0;
        inner.misses = 0;
        inner.stores = 0;
        inner.evictions = 0;
    }

    fn hottest(&self, n: usize) -> Vec<(Key, u64)> {
        let inner = self.inner.lock().unwrap();
        let mut all: Vec<(Key, u64)> = inner.map.iter().map(|(k, e)| (*k, e.hits)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    fn probe(&self, key: &Key) -> Option<(u64, u64)> {
        let inner = self.inner.lock().unwrap();
        inner.map.get(key).map(|e| (e.blob.len() as u64, e.hits))
    }
}

// ---------------------------------------------------------------------
// Cold tier: the sharded on-disk blob store, now byte-budgeted with
// LRU-by-access-stamp eviction and optional record compression.
// ---------------------------------------------------------------------

/// File prefix for compressed cold-tier entries: magic, then the raw
/// length as 8 little-endian bytes, then the [`crate::pack`] stream.
/// Files without the magic are read as plain UTF-8 (pre-compression
/// entries remain valid).
const PACK_MAGIC: &[u8; 6] = b"NSCZ1\n";

#[derive(Clone, Copy)]
struct DiskMeta {
    bytes: u64,
    stamp: u64,
}

#[derive(Default)]
struct DiskIndex {
    entries: BTreeMap<Key, DiskMeta>,
    bytes: u64,
}

struct DiskTier {
    dir: PathBuf,
    budget: u64,
    compress: bool,
    /// Lazily-built occupancy index: `None` until the first operation
    /// that needs sizes (budgeted store, stats). Once built it is kept
    /// in sync by every store/lookup/evict.
    index: Mutex<Option<DiskIndex>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
}

impl DiskTier {
    fn new(dir: PathBuf, budget: u64, compress: bool) -> DiskTier {
        DiskTier {
            dir,
            budget,
            compress,
            index: Mutex::new(None),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn entry_path(&self, key: &Key) -> PathBuf {
        let hex = key.hex();
        // 256-way sharding on the first byte keeps directories small
        // even for campaigns with tens of thousands of points.
        self.dir.join(&hex[..2]).join(format!("{hex}.run"))
    }

    fn decode_file(bytes: Vec<u8>) -> Option<String> {
        if let Some(payload) = bytes.strip_prefix(PACK_MAGIC.as_slice()) {
            if payload.len() < 8 {
                return None;
            }
            let raw_len = u64::from_le_bytes(payload[..8].try_into().ok()?);
            let raw = crate::pack::decompress(&payload[8..])?;
            if raw.len() as u64 != raw_len {
                return None;
            }
            String::from_utf8(raw).ok()
        } else {
            String::from_utf8(bytes).ok()
        }
    }

    fn lookup(&self, key: &Key) -> Option<(String, u64)> {
        let path = self.entry_path(key);
        let blob = std::fs::read(&path).ok().and_then(DiskTier::decode_file);
        match blob {
            Some(blob) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                self.touch(key, file_bytes);
                Some((blob, file_bytes))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Bumps the access stamp so budget eviction sees this key as
    /// recently used. A no-op until the index is built.
    fn touch(&self, key: &Key, file_bytes: u64) {
        let mut guard = self.index.lock().unwrap();
        if let Some(idx) = guard.as_mut() {
            let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
            match idx.entries.get_mut(key) {
                Some(meta) => meta.stamp = stamp,
                None => {
                    idx.entries.insert(
                        *key,
                        DiskMeta {
                            bytes: file_bytes,
                            stamp,
                        },
                    );
                    idx.bytes += file_bytes;
                }
            }
        }
    }

    fn store(&self, key: &Key, blob: &str) -> io::Result<()> {
        let payload: Vec<u8> = if self.compress {
            let packed = crate::pack::compress(blob.as_bytes());
            let framed_len = PACK_MAGIC.len() + 8 + packed.len();
            if framed_len < blob.len() {
                let mut framed = Vec::with_capacity(framed_len);
                framed.extend_from_slice(PACK_MAGIC);
                framed.extend_from_slice(&(blob.len() as u64).to_le_bytes());
                framed.extend_from_slice(&packed);
                framed
            } else {
                blob.as_bytes().to_vec() // compression did not pay
            }
        } else {
            blob.as_bytes().to_vec()
        };
        let path = self.entry_path(key);
        let shard = path.parent().expect("entry path has a shard directory");
        std::fs::create_dir_all(shard)?;
        // Atomic store: the write lands in a unique temp file first and
        // is renamed into place, so concurrent sweep workers computing
        // the same point never observe a torn entry.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = shard.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &payload)?;
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.index.lock().unwrap();
        if self.budget > 0 && guard.is_none() {
            *guard = Some(self.scan());
        }
        if let Some(idx) = guard.as_mut() {
            let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
            let new_bytes = payload.len() as u64;
            if let Some(old) = idx.entries.insert(
                *key,
                DiskMeta {
                    bytes: new_bytes,
                    stamp,
                },
            ) {
                idx.bytes -= old.bytes;
            }
            idx.bytes += new_bytes;
            if self.budget > 0 {
                self.evict_locked(idx);
            }
        }
        Ok(())
    }

    /// Removes least-recently-stamped entries until the tier fits its
    /// budget again, always sparing the most recent entry so a budget
    /// smaller than one record still caches the latest point.
    fn evict_locked(&self, idx: &mut DiskIndex) {
        while idx.bytes > self.budget && idx.entries.len() > 1 {
            let victim = idx
                .entries
                .iter()
                .min_by_key(|(k, m)| (m.stamp, **k))
                .map(|(k, _)| *k)
                .expect("over budget implies a resident entry");
            let meta = idx.entries.remove(&victim).unwrap();
            idx.bytes -= meta.bytes;
            let _ = std::fs::remove_file(self.entry_path(&victim));
            self.evictions.fetch_add(1, Ordering::Relaxed);
            metrics::count_global(Metric::CacheColdEvictions, 1);
        }
    }

    /// Walks the shard directories into a fresh index. Entries are
    /// stamped in key order so a rebuilt index evicts deterministically
    /// regardless of directory-listing order.
    fn scan(&self) -> DiskIndex {
        let mut idx = DiskIndex::default();
        let shards = match std::fs::read_dir(&self.dir) {
            Ok(s) => s,
            Err(_) => return idx,
        };
        for shard in shards.flatten() {
            let shard = shard.path();
            if !shard.is_dir() {
                continue;
            }
            let Ok(entries) = std::fs::read_dir(&shard) else {
                continue;
            };
            for entry in entries.flatten() {
                let p = entry.path();
                if p.extension().is_none_or(|e| e != "run") {
                    continue;
                }
                let Some(key) = p
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(Key::parse_hex)
                else {
                    continue;
                };
                let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
                idx.entries.insert(key, DiskMeta { bytes, stamp: 0 });
                idx.bytes += bytes;
            }
        }
        for (i, meta) in idx.entries.values_mut().enumerate() {
            meta.stamp = i as u64 + 1;
        }
        self.clock
            .fetch_max(idx.entries.len() as u64 + 1, Ordering::Relaxed);
        idx
    }

    fn ensure_index(&self) {
        let mut guard = self.index.lock().unwrap();
        if guard.is_none() {
            *guard = Some(self.scan());
        }
    }

    fn contains(&self, key: &Key) -> bool {
        self.entry_path(key).exists()
    }

    fn purge(&self) -> io::Result<usize> {
        let mut removed = 0;
        let shards = match std::fs::read_dir(&self.dir) {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        for shard in shards {
            let shard = shard?.path();
            if !shard.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(&shard)? {
                let p = entry?.path();
                if p.extension().is_some_and(|e| e == "run") {
                    std::fs::remove_file(&p)?;
                    removed += 1;
                }
            }
        }
        *self.index.lock().unwrap() = Some(DiskIndex::default());
        Ok(removed)
    }

    fn stats(&self) -> TierStats {
        self.ensure_index();
        let guard = self.index.lock().unwrap();
        let idx = guard.as_ref().expect("index just ensured");
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: idx.bytes,
            entries: idx.entries.len() as u64,
        }
    }

    fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.stores.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    fn probe(&self, key: &Key) -> Option<u64> {
        std::fs::metadata(self.entry_path(key)).ok().map(|m| m.len())
    }
}

// ---------------------------------------------------------------------
// The tiered store.
// ---------------------------------------------------------------------

/// Hot-over-cold [`CacheStore`]: an in-memory LRU above the sharded
/// on-disk blob store. See the module docs for the tier diagram and the
/// knobs; [`shared`] holds the process-wide instance, and tests
/// construct tiny-budget instances via [`TieredCache::with_config`] to
/// force evictions without touching the process configuration.
pub struct TieredCache {
    mem: MemTier,
    disk: DiskTier,
}

impl TieredCache {
    /// Builds a store with explicit tier budgets (bytes; `0` disables
    /// the hot tier / unbounds the cold tier) rooted at `dir`.
    pub fn with_config(dir: PathBuf, mem_bytes: u64, disk_bytes: u64, compress: bool) -> TieredCache {
        TieredCache {
            mem: MemTier::new(mem_bytes),
            disk: DiskTier::new(dir, disk_bytes, compress),
        }
    }

    /// Hot-tier byte budget (`0` = tier disabled).
    pub fn mem_budget(&self) -> u64 {
        self.mem.budget
    }

    /// Cold-tier byte budget (`0` = unbounded).
    pub fn disk_budget(&self) -> u64 {
        self.disk.budget
    }

    /// Whether cold-tier records are stored compressed.
    pub fn compression(&self) -> bool {
        self.disk.compress
    }

    /// The cold tier's root directory.
    pub fn root(&self) -> &Path {
        &self.disk.dir
    }

    /// The `n` hot-tier keys with the most hits since admission, hottest
    /// first (ties broken by key for stable output).
    pub fn hottest(&self, n: usize) -> Vec<(Key, u64)> {
        self.mem.hottest(n)
    }

    /// Per-key residency for the inspector: which tiers hold `key`, its
    /// stored size, and its hot-tier hit count.
    pub fn probe(&self, key: &Key) -> KeyProbe {
        let hot = self.mem.probe(key);
        let cold_bytes = self.disk.probe(key);
        KeyProbe {
            in_hot: hot.is_some(),
            in_cold: cold_bytes.is_some(),
            bytes: cold_bytes.or(hot.map(|(b, _)| b)).unwrap_or(0),
            hits: hot.map(|(_, h)| h).unwrap_or(0),
        }
    }
}

impl CacheStore for TieredCache {
    fn lookup(&self, key: &Key) -> Option<String> {
        if let Some(blob) = self.mem.get(key) {
            metrics::count(Metric::ResultCacheHits);
            metrics::count_global(Metric::CacheHotHits, 1);
            return Some(blob);
        }
        if self.mem.budget > 0 {
            metrics::count_global(Metric::CacheHotMisses, 1);
        }
        match self.disk.lookup(key) {
            Some((blob, _)) => {
                metrics::count(Metric::ResultCacheHits);
                metrics::count_global(Metric::CacheColdHits, 1);
                // Promote: the next hit is memory-speed.
                self.mem.insert(key, &blob);
                Some(blob)
            }
            None => {
                metrics::count(Metric::ResultCacheMisses);
                metrics::count_global(Metric::CacheColdMisses, 1);
                None
            }
        }
    }

    fn store(&self, key: &Key, blob: &str) -> io::Result<()> {
        let res = self.disk.store(key, blob);
        if res.is_ok() {
            metrics::count(Metric::ResultCacheStores);
            metrics::count_global(Metric::CacheColdStores, 1);
        }
        // Hot admission happens even if the durable store failed (disk
        // full): the process can still replay its own points.
        self.mem.insert(key, blob);
        res
    }

    fn contains(&self, key: &Key) -> bool {
        // Hot first: the degraded cache-only path answers warm probes
        // without any disk I/O.
        self.mem.contains(key) || self.disk.contains(key)
    }

    fn purge(&self) -> io::Result<usize> {
        self.mem.clear();
        self.disk.purge()
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hot: self.mem.stats(),
            cold: self.disk.stats(),
        }
    }

    fn reset_stats(&self) {
        self.mem.reset_stats();
        self.disk.reset_stats();
    }
}

/// The process-wide store, built from [`config::get`] at first use
/// (`RunRequest::run_cached`, the daemon's probe/inspect paths, and the
/// harness host block all share it).
pub fn shared() -> &'static TieredCache {
    static SHARED: OnceLock<TieredCache> = OnceLock::new();
    SHARED.get_or_init(|| {
        let c = config::get();
        TieredCache::with_config(c.cache_root(), c.cache_mem_bytes, c.cache_disk_bytes, c.cache_compress)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(parts: &[&str]) -> Key {
        let mut d = Digest::new("test-v1");
        for p in parts {
            d.str(p);
        }
        d.finish()
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nsc-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        assert_eq!(key_of(&["a", "b"]), key_of(&["a", "b"]));
        assert_ne!(key_of(&["a", "b"]), key_of(&["a", "c"]));
        // Length prefixing: shifting bytes across a field boundary must
        // change the key.
        assert_ne!(key_of(&["ab", "c"]), key_of(&["a", "bc"]));
        assert_ne!(key_of(&[""]), key_of(&[]));
    }

    #[test]
    fn digest_schema_bump_invalidates() {
        let mut v1 = Digest::new("v1");
        v1.u64(7);
        let mut v2 = Digest::new("v2");
        v2.u64(7);
        assert_ne!(v1.finish(), v2.finish());
    }

    #[test]
    fn digest_f64_bit_pattern() {
        let mut a = Digest::new("v");
        a.f64(0.0);
        let mut b = Digest::new("v");
        b.f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn key_hex_roundtrips() {
        let k = key_of(&["x"]);
        assert_eq!(k.hex().len(), 32);
        assert_eq!(k.to_string(), k.hex());
        assert_eq!(Key::parse_hex(&k.hex()), Some(k));
        assert_eq!(((k.hi() as u128) << 64) | k.lo() as u128, {
            u128::from_str_radix(&k.hex(), 16).unwrap()
        });
        assert_eq!(Key::parse_hex("zz"), None);
        assert_eq!(Key::parse_hex(&"f".repeat(31)), None);
        assert_eq!(Key::parse_hex(&"g".repeat(32)), None);
    }

    #[test]
    fn store_lookup_purge_roundtrip() {
        let dir = scratch("roundtrip");
        let store = TieredCache::with_config(dir.clone(), 1 << 20, 0, false);
        let key = key_of(&["roundtrip"]);
        assert_eq!(store.lookup(&key), None);
        store.store(&key, "blob=1\n").unwrap();
        assert_eq!(store.lookup(&key).as_deref(), Some("blob=1\n"));
        assert!(store.contains(&key));
        let s = store.stats();
        assert_eq!((s.hits(), s.misses()), (1, 1));
        assert_eq!(s.hot.hits, 1, "second lookup must be served hot");
        assert_eq!(store.purge().unwrap(), 1);
        assert_eq!(store.lookup(&key), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_tier_serves_without_disk() {
        let dir = scratch("hot-no-disk");
        let store = TieredCache::with_config(dir.clone(), 1 << 20, 0, false);
        let key = key_of(&["hot"]);
        store.store(&key, "v=1\n").unwrap();
        // Delete the cold file out from under the store: a hot-tier hit
        // must not notice.
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(store.lookup(&key).as_deref(), Some("v=1\n"));
        assert!(store.contains(&key), "contains answers from the hot tier");
        let s = store.stats();
        assert_eq!((s.hot.hits, s.cold.hits), (1, 0));
    }

    #[test]
    fn hot_tier_lru_eviction_is_deterministic() {
        let dir = scratch("hot-lru");
        // Budget fits two ~(8 + 64)-byte entries, not three.
        let store = TieredCache::with_config(dir.clone(), 150, 0, false);
        let (a, b, c) = (key_of(&["a"]), key_of(&["b"]), key_of(&["c"]));
        store.store(&a, "aaaaaaaa").unwrap();
        store.store(&b, "bbbbbbbb").unwrap();
        let _ = store.lookup(&a); // b is now least recent
        store.store(&c, "cccccccc").unwrap(); // evicts b
        let s = store.stats();
        assert_eq!(s.hot.evictions, 1);
        assert_eq!(s.hot.entries, 2);
        // b is gone hot but still on disk; a and c are hot.
        let hot: Vec<Key> = store.hottest(8).into_iter().map(|(k, _)| k).collect();
        assert!(hot.contains(&a) && hot.contains(&c) && !hot.contains(&b));
        assert_eq!(store.lookup(&b).as_deref(), Some("bbbbbbbb"));
        assert_eq!(store.stats().cold.hits, 1, "evicted key falls to disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_tier_budget_evicts_lru_files() {
        let dir = scratch("cold-evict");
        // No hot tier; cold budget fits ~3 of the 40-byte records.
        let store = TieredCache::with_config(dir.clone(), 0, 128, false);
        let keys: Vec<Key> = (0..6).map(|i| key_of(&["k", &i.to_string()])).collect();
        for k in &keys {
            store.store(k, &"x".repeat(40)).unwrap();
        }
        let s = store.stats();
        assert!(s.cold.evictions >= 3, "tiny budget must evict: {s:?}");
        assert!(s.cold.bytes <= 128, "occupancy within budget: {s:?}");
        // The most recent key always survives.
        assert!(store.contains(&keys[5]));
        // Evicted keys read as misses and can be re-stored.
        assert_eq!(store.lookup(&keys[0]), None);
        store.store(&keys[0], &"y".repeat(40)).unwrap();
        assert_eq!(store.lookup(&keys[0]).as_deref(), Some(&*"y".repeat(40)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_lookup_bumps_stamp_against_eviction() {
        let dir = scratch("cold-touch");
        let store = TieredCache::with_config(dir.clone(), 0, 100, false);
        let (a, b, c) = (key_of(&["a"]), key_of(&["b"]), key_of(&["c"]));
        store.store(&a, &"x".repeat(40)).unwrap();
        store.store(&b, &"x".repeat(40)).unwrap();
        let _ = store.lookup(&a); // a is now more recent than b
        store.store(&c, &"x".repeat(40)).unwrap(); // must evict b, not a
        assert!(store.contains(&a) && store.contains(&c) && !store.contains(&b));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compressed_records_roundtrip_and_mix_with_plain() {
        let dir = scratch("compress");
        let plain = TieredCache::with_config(dir.clone(), 0, 0, false);
        let packed = TieredCache::with_config(dir.clone(), 0, 0, true);
        let mut rec = String::from("schema=nsc-run-v1\n");
        for i in 0..64u64 {
            rec.push_str(&format!("stats.row{i}=4607182418800017408,{i},42\n"));
        }
        let old = key_of(&["old"]);
        let new = key_of(&["new"]);
        plain.store(&old, &rec).unwrap(); // legacy uncompressed entry
        packed.store(&new, &rec).unwrap();
        // Compressed file is smaller on disk but reads back identically,
        // through either store configuration.
        let old_sz = std::fs::metadata(plain.disk.entry_path(&old)).unwrap().len();
        let new_sz = std::fs::metadata(packed.disk.entry_path(&new)).unwrap().len();
        assert!(new_sz < old_sz, "compression must shrink records ({old_sz} -> {new_sz})");
        assert_eq!(packed.lookup(&old).as_deref(), Some(rec.as_str()));
        assert_eq!(plain.lookup(&new).as_deref(), Some(rec.as_str()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_compressed_entry_is_a_miss() {
        let dir = scratch("corrupt");
        let store = TieredCache::with_config(dir.clone(), 0, 0, true);
        let key = key_of(&["corrupt"]);
        let path = store.disk.entry_path(&key);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let mut junk = PACK_MAGIC.to_vec();
        junk.extend_from_slice(&99u64.to_le_bytes());
        junk.extend_from_slice(&[0x80, 9, 9]); // bogus match token
        std::fs::write(&path, junk).unwrap();
        assert_eq!(store.lookup(&key), None);
        assert_eq!(store.stats().cold.misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_and_hottest_report_residency() {
        let dir = scratch("probe");
        let store = TieredCache::with_config(dir.clone(), 1 << 20, 0, false);
        let key = key_of(&["probe"]);
        assert_eq!(store.probe(&key), KeyProbe::default());
        store.store(&key, "v=1\n").unwrap();
        let _ = store.lookup(&key);
        let _ = store.lookup(&key);
        let p = store.probe(&key);
        assert!(p.in_hot && p.in_cold);
        assert_eq!(p.hits, 2);
        assert!(p.bytes > 0);
        let hottest = store.hottest(1);
        assert_eq!(hottest, vec![(key, 2)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_reset_keeps_occupancy() {
        let dir = scratch("reset");
        let store = TieredCache::with_config(dir.clone(), 1 << 20, 0, false);
        let key = key_of(&["reset"]);
        store.store(&key, "v=1\n").unwrap();
        let _ = store.lookup(&key);
        store.reset_stats();
        let s = store.stats();
        assert_eq!((s.hits(), s.misses(), s.hot.stores, s.cold.stores), (0, 0, 0, 0));
        assert_eq!(s.hot.entries, 1, "reset must not drop residents");
        assert_eq!(s.cold.entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_rebuild_sees_preexisting_entries() {
        let dir = scratch("rebuild");
        let a = TieredCache::with_config(dir.clone(), 0, 0, false);
        for i in 0..4u64 {
            a.store(&key_of(&["pre", &i.to_string()]), &"z".repeat(32)).unwrap();
        }
        // A fresh store over the same directory (new daemon process)
        // must count the existing footprint and evict it under budget.
        let b = TieredCache::with_config(dir.clone(), 0, 120, false);
        let s0 = b.stats();
        assert_eq!(s0.cold.entries, 4);
        b.store(&key_of(&["post"]), &"z".repeat(32)).unwrap();
        let s1 = b.stats();
        assert!(s1.cold.evictions >= 1, "pre-existing entries evict: {s1:?}");
        assert!(s1.cold.bytes <= 120);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
