//! The content-addressed, budget-bounded on-disk result store.
//!
//! Every run in the repo is byte-deterministic — same
//! [`crate::scenario::ScenarioSpec`] → byte-identical report, at any
//! thread count, shard count, or ghost period — so the canonical hash
//! of the *inputs* is a sound address for the *outputs*. A cache entry
//! is a directory named by the spec's 16-hex key:
//!
//! ```text
//! <cache root>/
//!   index.txt          # LRU→MRU recency order, one "<key> <bytes>" line each
//!   1f8b6e2a90c4d371/
//!     spec.json        # the canonical spec (the hash preimage)
//!     report.txt       # the deterministic run report (the HTTP body)
//!     counters.json    # atoms·steps, exchange schedule, modeled rate
//!     trajectory.xyz   # optional: frames when the spec asked for them
//! ```
//!
//! Inserts are atomic: files are written into a sibling temp directory
//! and `rename`d into place, so a reader never observes a partial
//! entry and a crashed writer leaves nothing a later insert can't
//! overwrite.
//!
//! The store is bounded by a [`CacheBudget`] (bytes and/or entries).
//! Eviction is deterministic LRU: the recency order is a pure function
//! of the sequence of inserts and lookups, and the least-recently-used
//! entry is removed until the budget holds — except the entry just
//! written, which is never evicted, so an insert is always readable by
//! the request that caused it. Because the order is replayed from disk,
//! a `--drain` over a warm cache evicts the same keys in the same order
//! on every run.
//!
//! Recency is tracked in memory and persisted to `index.txt`
//! (atomically, tmp + rename) only on *membership* mutation — insert,
//! eviction — and on clean shutdown ([`ResultCache::flush`], also run
//! by `Drop`). A read hit just flips a dirty flag: the hot path never
//! pays an O(entries) disk write. A crash between hits therefore loses
//! at most recency (an entry may be evicted in an older order on the
//! next open), never membership or contents.

use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};

/// The recency index persisted next to the entries.
const INDEX_FILE: &str = "index.txt";

/// Whether `key` is a well-formed cache key: exactly 16 lowercase hex
/// characters, the fixed-width rendering of
/// [`crate::scenario::ScenarioSpec::canonical_hash`]. The HTTP layer
/// rejects anything else before it can reach the filesystem, so a
/// request path can never traverse out of the cache root.
pub fn is_valid_key(key: &str) -> bool {
    key.len() == 16 && key.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// A byte/entry budget bounding a [`ResultCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheBudget {
    /// Total payload bytes across entries (`u64::MAX` = unbounded).
    pub max_bytes: u64,
    /// Entry count (`usize::MAX` = unbounded).
    pub max_entries: usize,
}

impl CacheBudget {
    /// No budget: the PR 7 behavior, nothing is ever evicted.
    pub const UNBOUNDED: Self = Self {
        max_bytes: u64::MAX,
        max_entries: usize::MAX,
    };
}

impl Default for CacheBudget {
    fn default() -> Self {
        Self::UNBOUNDED
    }
}

/// The momentary size of a cache plus its per-process eviction count,
/// reported by `GET /stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheUsage {
    /// Payload bytes currently stored.
    pub bytes: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Entries evicted by this process.
    pub evictions: u64,
}

/// A fully materialized cache entry, read back from disk.
///
/// Deliberately excludes the trajectory: `trajectory.xyz` can be large,
/// so it is streamed from its file handle
/// ([`ResultCache::open_artifact`]) instead of buffered here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedResult {
    /// The deterministic run report (`report.txt`) — the bytes the
    /// server answers `POST /run` with.
    pub report: String,
    /// The run counters document (`counters.json`).
    pub counters: String,
}

/// A content-addressed result store rooted at one directory, bounded by
/// a [`CacheBudget`].
#[derive(Debug)]
pub struct ResultCache {
    root: PathBuf,
    budget: CacheBudget,
    /// Recency order, least-recently-used first: `(key, payload bytes)`.
    index: Vec<(String, u64)>,
    /// Entries evicted by this process.
    evictions: u64,
    /// Keys evicted since the last [`ResultCache::take_evicted`] —
    /// drained by the scheduler to emit `evicted` trace events.
    evicted_log: Vec<String>,
    /// Whether the in-memory recency order is ahead of `index.txt`.
    /// Set by read hits, cleared by every successful persist.
    dirty: bool,
}

/// Payload bytes of an existing entry directory (sum of its file
/// lengths — identical to the sum of the contents written at insert).
fn entry_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

impl ResultCache {
    /// Open (creating if needed) an unbounded cache rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_bounded(root, CacheBudget::UNBOUNDED)
    }

    /// Open (creating if needed) a cache rooted at `root`, bounded by
    /// `budget`. The persisted recency order is reloaded from
    /// `index.txt`; entries on disk but missing from the index (an
    /// older cache, or a crash between rename and index write) are
    /// appended in sorted key order so the reconciled order is
    /// deterministic. If the budget shrank since the last run, the
    /// excess is evicted immediately.
    pub fn open_bounded(root: impl Into<PathBuf>, budget: CacheBudget) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let mut index: Vec<(String, u64)> = Vec::new();
        if let Ok(text) = fs::read_to_string(root.join(INDEX_FILE)) {
            for line in text.lines() {
                let Some((key, bytes)) = line.split_once(' ') else {
                    continue;
                };
                let Ok(bytes) = bytes.parse::<u64>() else {
                    continue;
                };
                if is_valid_key(key) && root.join(key).is_dir() {
                    index.push((key.to_string(), bytes));
                }
            }
        }
        let mut unlisted: Vec<String> = fs::read_dir(&root)?
            .flatten()
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|name| is_valid_key(name) && !index.iter().any(|(k, _)| k == name))
            .collect();
        unlisted.sort();
        for key in unlisted {
            let bytes = entry_bytes(&root.join(&key));
            index.push((key, bytes));
        }
        let mut cache = Self {
            root,
            budget,
            index,
            evictions: 0,
            evicted_log: Vec::new(),
            dirty: false,
        };
        cache.evict_to_budget(None);
        cache.persist_index()?;
        Ok(cache)
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The configured budget.
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    /// The momentary size and the per-process eviction count.
    pub fn usage(&self) -> CacheUsage {
        CacheUsage {
            bytes: self.index.iter().map(|(_, b)| b).sum(),
            entries: self.index.len() as u64,
            evictions: self.evictions,
        }
    }

    /// The resident keys in recency order, least-recently-used first.
    /// The eviction order is exactly this order — exposed so tests can
    /// assert replay determinism.
    pub fn lru_keys(&self) -> Vec<String> {
        self.index.iter().map(|(k, _)| k.clone()).collect()
    }

    /// The directory a key's entry lives in (whether or not it exists).
    pub fn entry_dir(&self, key: &str) -> PathBuf {
        self.root.join(key)
    }

    /// Read a key's entry back, or `None` if the key has never been
    /// inserted (or has been evicted). An entry is only visible once
    /// its atomic rename has landed, so a `Some` is always complete. A
    /// successful lookup is an access: the entry moves to the
    /// most-recently-used end of the eviction order.
    pub fn lookup(&mut self, key: &str) -> Option<CachedResult> {
        let dir = self.entry_dir(key);
        let report = fs::read_to_string(dir.join("report.txt")).ok()?;
        let counters = fs::read_to_string(dir.join("counters.json")).ok()?;
        self.touch(key);
        Some(CachedResult { report, counters })
    }

    /// [`ResultCache::lookup`] reading only `report.txt` — the serve
    /// hit path's one file. The atomic rename that publishes an entry
    /// makes a readable report imply a complete entry. Counts as an
    /// access.
    pub fn report(&mut self, key: &str) -> Option<String> {
        let report = fs::read_to_string(self.entry_dir(key).join("report.txt")).ok()?;
        self.touch(key);
        Some(report)
    }

    /// Open one of a key's artifact files for streaming (e.g.
    /// `trajectory.xyz`), returning the open handle and its length.
    /// Counts as an access, like [`ResultCache::lookup`]. The handle
    /// stays readable even if the entry is evicted mid-stream — on
    /// every platform the workspace targets, an open file survives the
    /// unlink.
    pub fn open_artifact(&mut self, key: &str, name: &str) -> Option<(File, u64)> {
        if !is_valid_key(key) {
            return None;
        }
        let file = File::open(self.entry_dir(key).join(name)).ok()?;
        let len = file.metadata().ok()?.len();
        self.touch(key);
        Some((file, len))
    }

    /// Move `key` to the most-recently-used end. In-memory only: a read
    /// hit marks the order dirty instead of rewriting `index.txt` under
    /// the scheduler's lock — the order is persisted on the next
    /// membership mutation or on [`ResultCache::flush`].
    fn touch(&mut self, key: &str) {
        if let Some(pos) = self.index.iter().position(|(k, _)| k == key) {
            let entry = self.index.remove(pos);
            self.index.push(entry);
        } else {
            // On disk but not indexed (crash window): adopt it.
            let bytes = entry_bytes(&self.entry_dir(key));
            self.index.push((key.to_string(), bytes));
        }
        self.dirty = true;
    }

    /// Persist the recency order if any read hits have reordered it
    /// since the last write. Called on clean shutdown (and by `Drop`);
    /// a no-op when the on-disk index is already current.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.dirty {
            self.persist_index()?;
        }
        Ok(())
    }

    /// Atomically insert an entry: write `files` (name → contents) into
    /// a temp directory, then rename it to the key's directory. If a
    /// concurrent insert of the same key wins the rename, this one's
    /// contents are byte-identical by construction (that is the whole
    /// premise of content addressing), so losing the race is success.
    /// The new entry lands at the most-recently-used end, and the
    /// least-recently-used entries are evicted until the budget holds —
    /// never including the entry just written.
    pub fn insert(&mut self, key: &str, files: &[(&str, &str)]) -> io::Result<()> {
        let tmp = self.root.join(format!(".tmp.{key}"));
        // A leftover temp dir from a crashed writer is stale by
        // definition; replace it.
        if tmp.exists() {
            fs::remove_dir_all(&tmp)?;
        }
        fs::create_dir(&tmp)?;
        for (name, contents) in files {
            fs::write(tmp.join(name), contents)?;
        }
        let dest = self.entry_dir(key);
        match fs::rename(&tmp, &dest) {
            Ok(()) => {}
            Err(e) if dest.is_dir() => {
                let _ = fs::remove_dir_all(&tmp);
                let _ = e; // duplicate insert: the existing entry is identical
            }
            Err(e) => {
                let _ = fs::remove_dir_all(&tmp);
                return Err(e);
            }
        }
        let bytes = files.iter().map(|(_, c)| c.len() as u64).sum();
        self.index.retain(|(k, _)| k != key);
        self.index.push((key.to_string(), bytes));
        self.evict_to_budget(Some(key));
        self.persist_index()
    }

    /// Evict least-recently-used entries until the budget holds,
    /// skipping `protect` (the key just written). With a budget smaller
    /// than one entry this converges to exactly the protected entry.
    fn evict_to_budget(&mut self, protect: Option<&str>) {
        loop {
            let bytes: u64 = self.index.iter().map(|(_, b)| b).sum();
            if bytes <= self.budget.max_bytes && self.index.len() <= self.budget.max_entries {
                return;
            }
            let Some(pos) = self
                .index
                .iter()
                .position(|(k, _)| Some(k.as_str()) != protect)
            else {
                return;
            };
            let (key, _) = self.index.remove(pos);
            let _ = fs::remove_dir_all(self.entry_dir(&key));
            self.evictions += 1;
            self.evicted_log.push(key);
        }
    }

    /// Drain the keys evicted since the last call, in eviction order.
    /// Observability only: the scheduler turns these into `evicted`
    /// trace events.
    pub fn take_evicted(&mut self) -> Vec<String> {
        std::mem::take(&mut self.evicted_log)
    }

    /// Write the recency order to `index.txt` atomically.
    fn persist_index(&mut self) -> io::Result<()> {
        let mut text = String::new();
        for (key, bytes) in &self.index {
            text.push_str(key);
            text.push(' ');
            text.push_str(&bytes.to_string());
            text.push('\n');
        }
        let tmp = self.root.join(".index.tmp");
        fs::write(&tmp, text)?;
        fs::rename(&tmp, self.root.join(INDEX_FILE))?;
        self.dirty = false;
        Ok(())
    }
}

impl Drop for ResultCache {
    /// Clean shutdown persists any recency reordering still pending
    /// from read hits, so a reopened cache evicts in the replayed
    /// order. Best-effort: a failed write here only costs recency.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wafer-md-cache-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let root = scratch("round-trip");
        let mut cache = ResultCache::open(&root).unwrap();
        assert!(cache.lookup("00ff00ff00ff00ff").is_none());
        cache
            .insert(
                "00ff00ff00ff00ff",
                &[
                    ("spec.json", "{}"),
                    ("report.txt", "hello\n"),
                    ("counters.json", "{\"atoms\":1}"),
                ],
            )
            .unwrap();
        let hit = cache.lookup("00ff00ff00ff00ff").unwrap();
        assert_eq!(hit.report, "hello\n");
        assert_eq!(hit.counters, "{\"atoms\":1}");
        assert_eq!(cache.report("00ff00ff00ff00ff").as_deref(), Some("hello\n"));
        assert!(cache.report("0000000000000000").is_none());
        // No temp droppings remain, and the index landed: 2 + 6 + 11
        // payload bytes.
        assert!(!root.join(".tmp.00ff00ff00ff00ff").exists());
        assert_eq!(
            fs::read_to_string(root.join(INDEX_FILE)).unwrap(),
            "00ff00ff00ff00ff 19\n"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let root = scratch("dup");
        let mut cache = ResultCache::open(&root).unwrap();
        let files = [("report.txt", "r\n"), ("counters.json", "{}")];
        cache.insert("aaaaaaaaaaaaaaaa", &files).unwrap();
        cache.insert("aaaaaaaaaaaaaaaa", &files).unwrap();
        assert_eq!(cache.lookup("aaaaaaaaaaaaaaaa").unwrap().report, "r\n");
        assert_eq!(cache.usage().entries, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn trajectory_streams_from_its_file_handle() {
        let root = scratch("traj");
        let mut cache = ResultCache::open(&root).unwrap();
        cache
            .insert(
                "bbbbbbbbbbbbbbbb",
                &[
                    ("report.txt", "r\n"),
                    ("counters.json", "{}"),
                    ("trajectory.xyz", "1\nstep=0 serve\nTa 0 0 0\n"),
                ],
            )
            .unwrap();
        let (mut file, len) = cache
            .open_artifact("bbbbbbbbbbbbbbbb", "trajectory.xyz")
            .unwrap();
        let mut text = String::new();
        use std::io::Read as _;
        file.read_to_string(&mut text).unwrap();
        assert_eq!(len, text.len() as u64);
        assert!(text.starts_with("1\n"));
        assert!(cache
            .open_artifact("bbbbbbbbbbbbbbbb", "nope.txt")
            .is_none());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn lru_eviction_respects_entry_budget_and_spares_the_insert() {
        let root = scratch("lru");
        let budget = CacheBudget {
            max_bytes: u64::MAX,
            max_entries: 2,
        };
        let mut cache = ResultCache::open_bounded(&root, budget).unwrap();
        let files = [("report.txt", "r\n"), ("counters.json", "{}")];
        cache.insert("aaaaaaaaaaaaaaaa", &files).unwrap();
        cache.insert("bbbbbbbbbbbbbbbb", &files).unwrap();
        // Touch a, making b the LRU entry; the third insert evicts b.
        assert!(cache.lookup("aaaaaaaaaaaaaaaa").is_some());
        cache.insert("cccccccccccccccc", &files).unwrap();
        assert!(cache.lookup("bbbbbbbbbbbbbbbb").is_none(), "b was LRU");
        assert!(cache.lookup("aaaaaaaaaaaaaaaa").is_some());
        assert!(cache.lookup("cccccccccccccccc").is_some());
        assert_eq!(cache.usage().evictions, 1);
        assert!(!root.join("bbbbbbbbbbbbbbbb").exists());
        // The evicted-key log drains once, in eviction order.
        assert_eq!(cache.take_evicted(), ["bbbbbbbbbbbbbbbb"]);
        assert!(cache.take_evicted().is_empty());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn recency_order_survives_reopen() {
        let root = scratch("reopen");
        let files = [("report.txt", "r\n"), ("counters.json", "{}")];
        {
            let mut cache = ResultCache::open(&root).unwrap();
            cache.insert("aaaaaaaaaaaaaaaa", &files).unwrap();
            cache.insert("bbbbbbbbbbbbbbbb", &files).unwrap();
            assert!(cache.lookup("aaaaaaaaaaaaaaaa").is_some());
            assert_eq!(cache.lru_keys(), ["bbbbbbbbbbbbbbbb", "aaaaaaaaaaaaaaaa"]);
            // A report-only read is an access too.
            assert!(cache.report("bbbbbbbbbbbbbbbb").is_some());
            assert_eq!(cache.lru_keys(), ["aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb"]);
            assert!(cache.lookup("aaaaaaaaaaaaaaaa").is_some());
        }
        // Reopened with a one-entry budget: the persisted order says b
        // is least recently used, so b is the one evicted.
        let budget = CacheBudget {
            max_bytes: u64::MAX,
            max_entries: 1,
        };
        let mut cache = ResultCache::open_bounded(&root, budget).unwrap();
        assert_eq!(cache.lru_keys(), ["aaaaaaaaaaaaaaaa"]);
        assert!(cache.lookup("bbbbbbbbbbbbbbbb").is_none());
        assert_eq!(cache.usage().evictions, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn key_validation_is_exact() {
        assert!(is_valid_key("0123456789abcdef"));
        assert!(!is_valid_key("0123456789ABCDEF"), "uppercase");
        assert!(!is_valid_key("0123456789abcde"), "short");
        assert!(!is_valid_key("0123456789abcdef0"), "long");
        assert!(!is_valid_key("../../../etc/pwd"), "traversal");
        assert!(!is_valid_key("0123456789abcdeg"), "non-hex");
        assert!(!is_valid_key(""), "empty");
    }
}
