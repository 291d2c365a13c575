//! The per-shard segmented write-ahead log with group commit.
//!
//! Per-user WAL files ([`crate::wal::FileWal`]) pay one fsync per append
//! — fine for a 50-user soak, fatal at a million users. A [`ShardLog`]
//! multiplexes every buddy on one shard into a single segmented log:
//! appends and processed-marks from the whole shard are buffered in
//! memory and made durable together by one [`ShardLog::commit`] (one
//! write + one fsync per *batch*, not per alert). The §4.2.1 invariant
//! is preserved by the caller's batching discipline: the shard worker
//! defers every observable effect of a batch — acks, channel sends,
//! notices — until the commit that covers the batch has returned.
//!
//! Records carry their owner in [`WalRecord::user`]. Only *unprocessed*
//! records are held in memory, so the log's resident cost tracks the
//! replay backlog, not history. On disk, history is bounded by segment
//! rotation: when the active segment exceeds its size cap, the live
//! (unprocessed) records are rewritten into a fresh segment and every
//! older segment is deleted — retired deliveries are compacted away.
//!
//! Crash-safety of rotation: the fresh segment is written and fsynced
//! *before* old segments are unlinked. A crash in between leaves
//! duplicate `R` lines (reparsed idempotently) and `P` marks for
//! records the new segment no longer carries (tolerated: a mark for an
//! unknown id means the record was already compacted as processed).

use crate::alert::{IncomingAlert, Urgency};
use crate::subscription::UserId;
use crate::wal::{escape, unescape, WalError, WalRecord, WriteAheadLog};
use simba_sim::SimTime;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Default segment-rotation threshold (bytes of one segment file).
pub const DEFAULT_SEGMENT_MAX_BYTES: u64 = 4 * 1024 * 1024;

/// How a [`ShardLog`] is stored.
#[derive(Debug, Clone)]
pub struct ShardLogConfig {
    /// Directory holding the shard's segment files (`seg-NNNNNN.log`).
    /// `None` keeps the log in memory — the deterministic-simulation and
    /// benchmark shape, with identical grouping/rotation accounting but
    /// no durability.
    pub dir: Option<PathBuf>,
    /// Rotate once the active segment grows past this many bytes.
    pub segment_max_bytes: u64,
}

impl Default for ShardLogConfig {
    fn default() -> Self {
        ShardLogConfig { dir: None, segment_max_bytes: DEFAULT_SEGMENT_MAX_BYTES }
    }
}

impl ShardLogConfig {
    /// An in-memory shard log.
    pub fn in_memory() -> Self {
        ShardLogConfig::default()
    }

    /// A file-backed shard log under `dir`.
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        ShardLogConfig { dir: Some(dir.into()), ..ShardLogConfig::default() }
    }
}

/// Running totals for one shard log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLogStats {
    /// Records appended (across all buddies).
    pub appends: u64,
    /// Processed-marks applied.
    pub marks: u64,
    /// Batches made durable (one fsync each in file mode).
    pub group_commits: u64,
    /// Segment rotations (each rewrites live records and deletes history).
    pub segments_rotated: u64,
}

#[derive(Debug)]
struct FileBackend {
    dir: PathBuf,
    seg_index: u64,
    file: File,
    seg_bytes: u64,
    pending: String,
}

/// A segmented, group-committed write-ahead log shared by every buddy on
/// one shard.
///
/// Not internally synchronized: the owning shard worker serializes all
/// access (the runtime wraps it for the per-buddy [`WriteAheadLog`]
/// facade).
#[derive(Debug)]
pub struct ShardLog {
    backend: Option<FileBackend>,
    segment_max_bytes: u64,
    /// Unprocessed records only, by id. Marked records leave memory at
    /// once; their history lives on disk until the next rotation.
    live: BTreeMap<u64, WalRecord>,
    /// Per-user unprocessed ids in append order. Entries disappear when
    /// the user's backlog drains, so the map's size tracks users with
    /// replay work, not registered users.
    by_user: HashMap<UserId, Vec<u64>>,
    next_id: u64,
    dirty: bool,
    stats: ShardLogStats,
    fail_marks_for: HashSet<UserId>,
}

impl ShardLog {
    /// Opens (or creates) the log described by `config`, replaying every
    /// segment in order. A torn tail on the *last* segment — the artifact
    /// of dying mid-commit — is truncated away; the records it carried
    /// were never covered by a completed commit, so by the group-commit
    /// discipline nothing observable (no ack, no send) depended on them.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or corruption before the tail.
    pub fn open(config: ShardLogConfig) -> Result<Self, WalError> {
        let mut log = ShardLog {
            backend: None,
            segment_max_bytes: config.segment_max_bytes.max(1),
            live: BTreeMap::new(),
            by_user: HashMap::new(),
            next_id: 0,
            dirty: false,
            stats: ShardLogStats::default(),
            fail_marks_for: HashSet::new(),
        };
        let Some(dir) = config.dir else {
            return Ok(log);
        };
        std::fs::create_dir_all(&dir)?;
        let mut segments = list_segments(&dir)?;
        segments.sort_by_key(|(idx, _)| *idx);
        let last = segments.len().checked_sub(1);
        for (pos, (_, path)) in segments.iter().enumerate() {
            log.replay_segment(path, Some(pos) == last)?;
        }
        let seg_index = segments.last().map_or(0, |(idx, _)| *idx);
        let path = segment_path(&dir, seg_index);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let seg_bytes = file.metadata()?.len();
        log.backend = Some(FileBackend { dir, seg_index, file, seg_bytes, pending: String::new() });
        Ok(log)
    }

    /// Replays one segment into the in-memory state. `tolerate_tail`
    /// truncates a torn final line instead of failing.
    fn replay_segment(&mut self, path: &Path, tolerate_tail: bool) -> Result<(), WalError> {
        let content = std::fs::read_to_string(path)?;
        let mut valid_len = 0usize;
        let mut lines = content.split_inclusive('\n').enumerate().peekable();
        while let Some((lineno, line)) = lines.next() {
            let is_last = lines.peek().is_none();
            let complete = line.ends_with('\n');
            let trimmed = line.trim_end_matches('\n');
            if trimmed.is_empty() {
                valid_len += line.len();
                continue;
            }
            if !complete {
                // Torn tail: even a record that parses must not touch
                // in-memory state — it is about to be truncated from
                // disk, and memory must equal durable state.
                break;
            }
            match self.replay_line(trimmed, lineno + 1) {
                Ok(()) => valid_len += line.len(),
                Err(e) if is_last && tolerate_tail => {
                    let _ = e;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        if valid_len < content.len() {
            if !tolerate_tail {
                return Err(WalError::Corrupt {
                    line: content.lines().count(),
                    reason: "torn tail in non-final segment".to_string(),
                });
            }
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
        }
        Ok(())
    }

    fn replay_line(&mut self, line: &str, lineno: usize) -> Result<(), WalError> {
        let corrupt = |reason: &str| WalError::Corrupt { line: lineno, reason: reason.to_string() };
        let mut fields = line.split('\t');
        match fields.next() {
            Some("R") => {
                let user = UserId(fields.next().map(unescape).ok_or_else(|| corrupt("missing user"))?);
                let id: u64 = fields
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| corrupt("bad id"))?;
                let received_ms: u64 = fields
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| corrupt("bad received timestamp"))?;
                let origin_ms: u64 = fields
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| corrupt("bad origin timestamp"))?;
                let urgency = match fields.next() {
                    Some("low") => Urgency::Low,
                    Some("normal") => Urgency::Normal,
                    Some("critical") => Urgency::Critical,
                    _ => return Err(corrupt("bad urgency")),
                };
                let mut unescape_next =
                    || -> Result<String, WalError> { fields.next().map(unescape).ok_or_else(|| corrupt("missing field")) };
                let source = unescape_next()?;
                let sender_name = unescape_next()?;
                let subject = unescape_next()?;
                let body = unescape_next()?;
                self.next_id = self.next_id.max(id + 1);
                // Duplicate ids can appear when a crash interrupted a
                // rotation between writing the fresh segment and deleting
                // the old ones; re-inserting is idempotent.
                if self.live.insert(
                    id,
                    WalRecord {
                        id,
                        received_at: SimTime::from_millis(received_ms),
                        alert: IncomingAlert {
                            source,
                            sender_name,
                            subject,
                            body,
                            origin_timestamp: SimTime::from_millis(origin_ms),
                            urgency,
                        },
                        processed: false,
                        user: Some(user.clone()),
                    },
                ).is_none()
                {
                    self.by_user.entry(user).or_default().push(id);
                }
                Ok(())
            }
            Some("P") => {
                let id: u64 = fields
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| corrupt("bad id"))?;
                // A mark for an id we no longer hold means the record was
                // compacted as processed in an earlier rotation: ignore.
                if let Some(record) = self.live.remove(&id) {
                    if let Some(user) = record.user {
                        drop_user_id(&mut self.by_user, &user, id);
                    }
                }
                self.next_id = self.next_id.max(id + 1);
                Ok(())
            }
            _ => Err(corrupt("unknown tag")),
        }
    }

    /// Buffers a record for `user`. The id is shard-monotonic. The record
    /// is *not* durable until the next [`ShardLog::commit`]; callers must
    /// not acknowledge the alert before that commit returns.
    ///
    /// # Errors
    ///
    /// This buffered path cannot fail today, but keeps the
    /// [`WriteAheadLog`] error contract for the facade.
    pub fn append(
        &mut self,
        user: &UserId,
        alert: &IncomingAlert,
        received_at: SimTime,
    ) -> Result<u64, WalError> {
        let id = self.next_id;
        self.next_id += 1;
        if let Some(backend) = &mut self.backend {
            use std::fmt::Write as _;
            // Infallible for String, but avoid unwrap in a prod path.
            let _ = writeln!(
                backend.pending,
                "R\t{}\t{id}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                escape(&user.0),
                received_at.as_millis(),
                alert.origin_timestamp.as_millis(),
                alert.urgency,
                escape(&alert.source),
                escape(&alert.sender_name),
                escape(&alert.subject),
                escape(&alert.body),
            );
        }
        self.live.insert(
            id,
            WalRecord {
                id,
                received_at,
                alert: alert.clone(),
                processed: false,
                user: Some(user.clone()),
            },
        );
        self.by_user.entry(user.clone()).or_default().push(id);
        self.stats.appends += 1;
        self.dirty = true;
        Ok(id)
    }

    /// Marks record `id` processed on behalf of `user`. The mark is
    /// buffered like an append (durable at the next commit); the record
    /// leaves memory immediately.
    ///
    /// # Errors
    ///
    /// [`WalError::UnknownId`] when the id does not exist or belongs to a
    /// different user — ownership is checked so one buddy can never
    /// retire another's records. [`WalError::Io`] when a failure was
    /// injected for `user` ([`ShardLog::inject_mark_failure`]); only the
    /// affected buddy observes it.
    pub fn mark_processed(&mut self, user: &UserId, id: u64) -> Result<(), WalError> {
        match self.live.get(&id) {
            Some(record) if record.user.as_ref() == Some(user) => {}
            _ => return Err(WalError::UnknownId(id)),
        }
        if self.fail_marks_for.remove(user) {
            return Err(WalError::Io(std::io::Error::other("injected mark failure")));
        }
        if let Some(backend) = &mut self.backend {
            use std::fmt::Write as _;
            let _ = writeln!(backend.pending, "P\t{id}");
        }
        self.live.remove(&id);
        drop_user_id(&mut self.by_user, user, id);
        self.stats.marks += 1;
        self.dirty = true;
        Ok(())
    }

    /// Makes every buffered append and mark durable with a single write
    /// and a single fsync, then rotates the segment if it outgrew its
    /// cap. A no-op (no fsync, no counter) when nothing is buffered.
    ///
    /// # Errors
    ///
    /// I/O failure leaves the buffered tail unwritten; the caller must
    /// treat the whole batch as non-durable (no acks may be released).
    pub fn commit(&mut self) -> Result<(), WalError> {
        if !self.dirty {
            return Ok(());
        }
        if let Some(backend) = &mut self.backend {
            backend.file.write_all(backend.pending.as_bytes())?;
            backend.file.flush()?;
            backend.file.sync_data()?;
            backend.seg_bytes += backend.pending.len() as u64;
            backend.pending.clear();
        }
        self.dirty = false;
        self.stats.group_commits += 1;
        if self
            .backend
            .as_ref()
            .is_some_and(|b| b.seg_bytes >= self.segment_max_bytes)
        {
            self.rotate()?;
        }
        Ok(())
    }

    /// Rewrites the live (unprocessed) records into a fresh segment and
    /// deletes every older one. Called from [`ShardLog::commit`]; also
    /// safe to call directly (e.g. at shutdown) to compact history.
    ///
    /// # Errors
    ///
    /// I/O failure before the old segments are removed leaves the log
    /// readable (duplicates are tolerated on replay).
    pub fn rotate(&mut self) -> Result<(), WalError> {
        let Some(backend) = &mut self.backend else {
            self.stats.segments_rotated += 1;
            return Ok(());
        };
        let old_index = backend.seg_index;
        let new_index = old_index + 1;
        let path = segment_path(&backend.dir, new_index);
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut carried = String::new();
        for record in self.live.values() {
            use std::fmt::Write as _;
            let user = record.user.as_ref().map(|u| u.0.as_str()).unwrap_or_default();
            let _ = writeln!(
                carried,
                "R\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                escape(user),
                record.id,
                record.received_at.as_millis(),
                record.alert.origin_timestamp.as_millis(),
                record.alert.urgency,
                escape(&record.alert.source),
                escape(&record.alert.sender_name),
                escape(&record.alert.subject),
                escape(&record.alert.body),
            );
        }
        file.write_all(carried.as_bytes())?;
        file.flush()?;
        file.sync_data()?;
        // Only after the fresh segment is durable do the old ones go.
        for (idx, old_path) in list_segments(&backend.dir)? {
            if idx < new_index {
                std::fs::remove_file(old_path)?;
            }
        }
        backend.seg_index = new_index;
        backend.seg_bytes = carried.len() as u64;
        backend.file = file;
        self.stats.segments_rotated += 1;
        Ok(())
    }

    /// Unprocessed records for one buddy, in append order — its restart
    /// replay set.
    pub fn unprocessed_for(&self, user: &UserId) -> Vec<WalRecord> {
        self.by_user
            .get(user)
            .map(|ids| ids.iter().filter_map(|id| self.live.get(id).cloned()).collect())
            .unwrap_or_default()
    }

    /// How many unprocessed records `user` has.
    pub fn unprocessed_count_for(&self, user: &UserId) -> usize {
        self.by_user.get(user).map_or(0, |ids| ids.len())
    }

    /// Whether `user` has replay work.
    pub fn has_unprocessed_for(&self, user: &UserId) -> bool {
        self.by_user.contains_key(user)
    }

    /// Every buddy with unprocessed records — the set the shard worker
    /// must rehydrate at startup (WAL-replay demand).
    pub fn users_with_unprocessed(&self) -> Vec<UserId> {
        self.by_user.keys().cloned().collect()
    }

    /// Total unprocessed records across the shard.
    pub fn unprocessed_len(&self) -> usize {
        self.live.len()
    }

    /// Whether a commit is pending.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Running totals.
    pub fn stats(&self) -> ShardLogStats {
        self.stats
    }

    /// The active segment's index (for tests and diagnostics).
    pub fn segment_index(&self) -> u64 {
        self.backend.as_ref().map_or(0, |b| b.seg_index)
    }

    /// Arms a one-shot [`WalError::Io`] on `user`'s next processed-mark —
    /// the fault-injection hook behind the "a failed mark crashes the
    /// affected buddy only" regression test.
    pub fn inject_mark_failure(&mut self, user: &UserId) {
        self.fail_marks_for.insert(user.clone());
    }
}

fn drop_user_id(by_user: &mut HashMap<UserId, Vec<u64>>, user: &UserId, id: u64) {
    if let Some(ids) = by_user.get_mut(user) {
        ids.retain(|&x| x != id);
        if ids.is_empty() {
            by_user.remove(user);
        }
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.log"))
}

fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(idx) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((idx, entry.path()));
    }
    Ok(out)
}

/// One buddy's [`WriteAheadLog`] view of a shared [`ShardLog`].
///
/// The shard worker owns the log and hands each active buddy a facade
/// scoped to its user; the facade tags appends, checks mark ownership,
/// and scopes the replay set. `L` is anything that can lend the log out
/// mutably — the runtime uses `Arc<Mutex<ShardLog>>` inside a worker
/// (uncontended: the log never leaves its shard's thread).
#[derive(Debug, Clone)]
pub struct UserShardWal<L> {
    log: L,
    user: UserId,
}

impl<L: ShardLogHandle> UserShardWal<L> {
    /// A facade over `log` scoped to `user`.
    pub fn new(log: L, user: UserId) -> Self {
        UserShardWal { log, user }
    }

    /// The scoped user.
    pub fn user(&self) -> &UserId {
        &self.user
    }
}

/// Lends a [`ShardLog`] out for one operation. Implemented for
/// `Arc<Mutex<ShardLog>>` — the only handle shape the runtime uses, so
/// buddies (and the futures that drive them) stay `Send` even though
/// each log lives and dies on one shard thread.
pub trait ShardLogHandle {
    /// Runs `f` with exclusive access to the log.
    fn with_log<R>(&self, f: impl FnOnce(&mut ShardLog) -> R) -> R;
}

impl ShardLogHandle for std::sync::Arc<std::sync::Mutex<ShardLog>> {
    fn with_log<R>(&self, f: impl FnOnce(&mut ShardLog) -> R) -> R {
        f(&mut self.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }
}

impl<L: ShardLogHandle> WriteAheadLog for UserShardWal<L> {
    fn append(&mut self, alert: &IncomingAlert, received_at: SimTime) -> Result<u64, WalError> {
        self.log.with_log(|log| log.append(&self.user, alert, received_at))
    }

    fn mark_processed(&mut self, id: u64) -> Result<(), WalError> {
        self.log.with_log(|log| log.mark_processed(&self.user, id))
    }

    fn unprocessed(&self) -> Vec<WalRecord> {
        self.log.with_log(|log| log.unprocessed_for(&self.user))
    }

    fn has_unprocessed(&self) -> bool {
        self.log.with_log(|log| log.has_unprocessed_for(&self.user))
    }

    fn len(&self) -> usize {
        // The shard log compacts processed history away, so "total
        // records" is the per-user backlog — the figure health snapshots
        // actually watch.
        self.log.with_log(|log| log.unprocessed_count_for(&self.user))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn alert(body: &str, origin_secs: u64) -> IncomingAlert {
        IncomingAlert::from_im("aladdin-gw", body, SimTime::from_secs(origin_secs))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn user(name: &str) -> UserId {
        UserId::new(name)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simba-shardlog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn in_memory_append_mark_and_per_user_views() {
        let mut log = ShardLog::open(ShardLogConfig::in_memory()).unwrap();
        let a1 = log.append(&user("alice"), &alert("one", 1), t(1)).unwrap();
        let b1 = log.append(&user("bob"), &alert("two", 2), t(2)).unwrap();
        let a2 = log.append(&user("alice"), &alert("three", 3), t(3)).unwrap();
        assert!(a1 < b1 && b1 < a2, "ids are shard-monotonic");
        assert_eq!(log.unprocessed_count_for(&user("alice")), 2);
        assert_eq!(log.unprocessed_count_for(&user("bob")), 1);

        log.mark_processed(&user("alice"), a1).unwrap();
        let remaining = log.unprocessed_for(&user("alice"));
        assert_eq!(remaining.len(), 1);
        assert_eq!(remaining[0].alert.body, "three");
        assert_eq!(remaining[0].user, Some(user("alice")));

        // Cross-user marks are rejected: bob cannot retire alice's record.
        assert!(matches!(
            log.mark_processed(&user("bob"), a2),
            Err(WalError::UnknownId(_))
        ));
        log.commit().unwrap();
        assert_eq!(log.stats().group_commits, 1);
        // Idle commit is free.
        log.commit().unwrap();
        assert_eq!(log.stats().group_commits, 1);
    }

    #[test]
    fn group_commit_batches_many_buddies_into_one_commit() {
        let mut log = ShardLog::open(ShardLogConfig::in_memory()).unwrap();
        for i in 0..100u64 {
            let u = user(&format!("u{}", i % 10));
            let id = log.append(&u, &alert("x", i), t(i)).unwrap();
            log.mark_processed(&u, id).unwrap();
        }
        log.commit().unwrap();
        assert_eq!(log.stats().appends, 100);
        assert_eq!(log.stats().marks, 100);
        assert_eq!(log.stats().group_commits, 1);
        assert_eq!(log.unprocessed_len(), 0);
    }

    #[test]
    fn committed_records_survive_reopen_uncommitted_do_not() {
        let dir = temp_dir("durability");
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        let a = log.append(&user("alice"), &alert("durable", 1), t(1)).unwrap();
        log.append(&user("bob"), &alert("durable too", 2), t(2)).unwrap();
        log.commit().unwrap();
        log.mark_processed(&user("alice"), a).unwrap();
        log.commit().unwrap();
        // A third batch is appended but the process dies before commit.
        log.append(&user("carol"), &alert("lost", 3), t(3)).unwrap();
        drop(log);

        let log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        // alice's record was marked; bob's replays; carol's uncommitted
        // append vanished (it was never acked, so nothing is lost).
        assert!(!log.has_unprocessed_for(&user("alice")));
        assert_eq!(log.unprocessed_for(&user("bob")).len(), 1);
        assert!(!log.has_unprocessed_for(&user("carol")));
        assert_eq!(log.unprocessed_len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ids_continue_after_reopen() {
        let dir = temp_dir("ids");
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        let a = log.append(&user("alice"), &alert("x", 1), t(1)).unwrap();
        log.mark_processed(&user("alice"), a).unwrap();
        log.commit().unwrap();
        drop(log);
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        let b = log.append(&user("alice"), &alert("y", 2), t(2)).unwrap();
        assert!(b > a, "ids never reused, even across processed history");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_on_last_segment_is_truncated() {
        let dir = temp_dir("torn");
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        log.append(&user("alice"), &alert("complete", 1), t(1)).unwrap();
        log.commit().unwrap();
        drop(log);
        // Die mid-commit: a partial line at the tail.
        {
            let path = segment_path(&dir, 0);
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"R\tbob\t7\t90").unwrap();
        }
        let log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        assert_eq!(log.unprocessed_len(), 1);
        assert!(log.has_unprocessed_for(&user("alice")));
        assert!(!log.has_unprocessed_for(&user("bob")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parseable_but_unterminated_tail_never_reaches_memory() {
        let dir = temp_dir("torn-valid");
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        log.append(&user("alice"), &alert("complete", 1), t(1)).unwrap();
        log.commit().unwrap();
        drop(log);
        // Die mid-commit with a whole record on disk but not its newline:
        // the line parses, yet no commit ever covered it.
        let path = segment_path(&dir, 0);
        let committed = std::fs::read_to_string(&path).unwrap();
        let tail = committed.trim_end().replacen("R\talice\t0\t", "R\tbob\t1\t", 1);
        assert!(tail.starts_with("R\tbob\t1\t"), "the tail is a well-formed record: {tail:?}");
        OpenOptions::new().append(true).open(&path).unwrap().write_all(tail.as_bytes()).unwrap();

        for pass in ["first open", "reopen"] {
            let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
            assert_eq!(log.unprocessed_len(), 1, "{pass}: only the committed record is live");
            assert!(!log.has_unprocessed_for(&user("bob")), "{pass}: the torn record is in memory");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), committed, "{pass}: file");
            // The torn record's id was never durably taken.
            assert_eq!(log.append(&user("carol"), &alert("probe", 2), t(2)).unwrap(), 1, "{pass}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_compacts_processed_history() {
        let dir = temp_dir("rotate");
        let config = ShardLogConfig { dir: Some(dir.clone()), segment_max_bytes: 256 };
        let mut log = ShardLog::open(config).unwrap();
        // Churn enough processed records to trip several rotations.
        for i in 0..50u64 {
            let id = log.append(&user("alice"), &alert("churn", i), t(i)).unwrap();
            log.mark_processed(&user("alice"), id).unwrap();
            log.commit().unwrap();
        }
        // One live record rides along.
        let live = log.append(&user("bob"), &alert("keep me", 99), t(99)).unwrap();
        log.commit().unwrap();
        assert!(log.stats().segments_rotated > 0);
        // Exactly one segment remains on disk, holding only live records.
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1, "old segments deleted: {segments:?}");
        drop(log);
        let log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        assert_eq!(log.unprocessed_for(&user("bob"))[0].id, live);
        assert_eq!(log.unprocessed_len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mark_for_compacted_record_is_tolerated_on_replay() {
        // Simulate the crash-between-rotation-steps artifact directly: a
        // stale P for an id the surviving segments no longer carry.
        let dir = temp_dir("stalemark");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(segment_path(&dir, 3), "P\t2\nR\talice\t5\t1000\t1000\tnormal\tsrc\t\t\tbody\n").unwrap();
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        assert_eq!(log.unprocessed_len(), 1);
        // next_id advanced past both the stale mark and the live record.
        let next = log.append(&user("alice"), &alert("new", 1), t(1)).unwrap();
        assert!(next >= 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_mark_failure_hits_only_the_target_user_once() {
        let mut log = ShardLog::open(ShardLogConfig::in_memory()).unwrap();
        let a = log.append(&user("alice"), &alert("a", 1), t(1)).unwrap();
        let b = log.append(&user("bob"), &alert("b", 2), t(2)).unwrap();
        log.inject_mark_failure(&user("alice"));
        assert!(matches!(log.mark_processed(&user("alice"), a), Err(WalError::Io(_))));
        // bob is untouched, and alice's next mark succeeds (one-shot).
        log.mark_processed(&user("bob"), b).unwrap();
        log.mark_processed(&user("alice"), a).unwrap();
        assert_eq!(log.unprocessed_len(), 0);
    }

    #[test]
    fn user_facade_scopes_the_shared_log() {
        let log = Arc::new(Mutex::new(ShardLog::open(ShardLogConfig::in_memory()).unwrap()));
        let mut alice = UserShardWal::new(Arc::clone(&log), user("alice"));
        let mut bob = UserShardWal::new(Arc::clone(&log), user("bob"));
        let a = alice.append(&alert("for alice", 1), t(1)).unwrap();
        let b = bob.append(&alert("for bob", 2), t(2)).unwrap();
        assert_eq!(alice.unprocessed().len(), 1);
        assert_eq!(alice.len(), 1);
        assert!(alice.has_unprocessed());
        // Ownership enforced through the facade too.
        assert!(alice.mark_processed(b).is_err());
        alice.mark_processed(a).unwrap();
        assert!(!alice.has_unprocessed());
        assert!(bob.has_unprocessed());
        assert_eq!(log.with_log(|l| l.unprocessed_len()), 1);
    }

    #[test]
    fn escaped_user_names_round_trip_on_disk() {
        let dir = temp_dir("escape");
        let tricky = user("we\tird\nname");
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        log.append(&tricky, &alert("x", 1), t(1)).unwrap();
        log.commit().unwrap();
        drop(log);
        let log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        assert_eq!(log.unprocessed_for(&tricky).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
