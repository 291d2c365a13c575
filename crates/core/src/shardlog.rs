//! The write-ahead log of every MyAlertBuddy: every buddy on one shard
//! multiplexed into a single [`Journal`], so what the whole shard logged
//! in one batch becomes durable together in one group commit. The shard
//! worker owns the log by value and lends it to each buddy call, which
//! tags what it appends, marks and replays with its user; a simulation or
//! a test that drives one buddy lends it a log of its own
//! ([`ShardLog::in_memory`]). On disk, the §4.2.1 invariant is
//! preserved by the caller's batching discipline: the shard worker
//! defers every observable effect of a batch — acks, channel sends,
//! notices — until the commit that covers the batch has returned.
//!
//! **A commit writes what its batch leaves unprocessed.** A record
//! appended and marked processed before the next commit would replay to
//! nothing, and nothing of its batch was released yet, so it is never
//! written: `append` only buffers the record in memory, and `commit`
//! frames an `R` image for each record appended since the last commit
//! that is still unprocessed. A `P` mark is written only for a record an
//! earlier commit made durable. A healthy batch — every buddy marks what
//! it routes in the `handle()` that logged it — writes nothing, and its
//! commit is free.
//!
//! Records carry their owner in [`WalRecord::user`]. Only *unprocessed*
//! records are held in memory, so the log's resident cost tracks the
//! replay backlog, not history; rotation carries exactly those records
//! over. Segments, framing, commit, rotation and torn tails are the
//! journal's ([`crate::journal`]); this module adds two payloads:
//!
//! ```text
//! R \t user \t id \t received_ms \t origin_ms \t urgency \t source \t sender \t subject \t body
//! P \t id
//! ```
//!
//! Both replay idempotently: an `R` for an id already live is a no-op and
//! a `P` for an id no longer held means the record was compacted away as
//! processed — what a crash between a rotation's steps leaves behind.

use crate::alert::{IncomingAlert, Urgency};
use crate::journal::{Frames, Journal};
use crate::subscription::UserId;
use crate::wal::{escape, unescape, WalError, WalRecord};
use simba_sim::SimTime;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::convert::Infallible;
use std::path::PathBuf;

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
    /// Frames handed to the journal: `R` images of records a batch left
    /// unprocessed and `P` marks of records an earlier commit wrote (a
    /// rotation's snapshot is not counted). Zero for a healthy run.
    pub written: u64,
    /// Batches made durable (one fsync each in file mode). A batch that
    /// wrote nothing is not one.
    pub group_commits: u64,
    /// Segment rotations (each rewrites live records and deletes history).
    pub segments_rotated: u64,
}

/// A group-committed write-ahead log shared by every buddy on one shard.
///
/// Owned by value by its shard worker, which lends it to each buddy call
/// that logs, marks or replays: one owner writes, commits and replays it,
/// and no lock guards it.
#[derive(Debug)]
pub struct ShardLog {
    journal: Journal,
    /// Unprocessed records only, by id. Marked records leave memory at
    /// once; their history lives on disk until the next rotation.
    live: BTreeMap<u64, WalRecord>,
    /// Per-user unprocessed ids in append order. Entries disappear when
    /// the user's backlog drains, so the map's size tracks users with
    /// replay work, not registered users.
    by_user: HashMap<UserId, Vec<u64>>,
    next_id: u64,
    /// The first id appended since the last commit: live records at or
    /// above it have no `R` frame yet.
    unframed_from: u64,
    appends: u64,
    marks: u64,
    written: u64,
    fail_marks_for: HashSet<UserId>,
}

impl ShardLog {
    /// Opens (or creates) the log described by `config`, replaying what
    /// the journal holds. A torn tail — the artifact of dying mid-commit
    /// — never reaches memory; the records it carried were never covered
    /// by a completed commit, so by the group-commit discipline nothing
    /// observable (no ack, no send) depended on them.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or corruption before the tail.
    pub fn open(config: ShardLogConfig) -> Result<Self, WalError> {
        let mut log = ShardLog::in_memory();
        if let Some(dir) = config.dir {
            log.journal = Journal::open(dir, config.segment_max_bytes, |payload| log.replay(payload))?;
        }
        log.unframed_from = log.next_id;
        Ok(log)
    }

    /// An empty log with no files behind it — what a buddy driven outside
    /// a shard (a simulation, a test, an example) is lent.
    pub fn in_memory() -> Self {
        ShardLog {
            journal: Journal::in_memory(),
            live: BTreeMap::new(),
            by_user: HashMap::new(),
            next_id: 0,
            unframed_from: 0,
            appends: 0,
            marks: 0,
            written: 0,
            fail_marks_for: HashSet::new(),
        }
    }

    fn replay(&mut self, payload: &str) -> Result<(), String> {
        if let Some(id) = payload.strip_prefix("P\t") {
            let id: u64 = id.parse().map_err(|_| "bad id")?;
            self.next_id = self.next_id.max(id + 1);
            self.remove(id);
        } else {
            let record = decode_record(payload).ok_or("not a record image or a mark")?;
            self.next_id = self.next_id.max(record.id + 1);
            self.insert(record);
        }
        Ok(())
    }

    /// Makes `record` live; a second image of a live id changes nothing.
    fn insert(&mut self, record: WalRecord) {
        let (id, user) = (record.id, record.user.clone());
        if self.live.insert(id, record).is_none() {
            self.by_user.entry(user).or_default().push(id);
        }
    }

    /// Drops `id` from the live set and its owner's backlog.
    fn remove(&mut self, id: u64) {
        let Some(WalRecord { user, .. }) = self.live.remove(&id) else { return };
        if let Some(ids) = self.by_user.get_mut(&user) {
            ids.retain(|&x| x != id);
            if ids.is_empty() {
                self.by_user.remove(&user);
            }
        }
    }

    /// Buffers a record for `user` and returns its id, which is
    /// shard-monotonic. The record is *not* durable until the next
    /// [`ShardLog::commit`], which writes it only if it is still
    /// unprocessed then; callers must not acknowledge the alert before
    /// that commit returns. Buffering cannot fail — I/O errors surface at
    /// the commit — which the [`Infallible`] error type states.
    pub fn append(
        &mut self,
        user: &UserId,
        alert: &IncomingAlert,
        received_at: SimTime,
    ) -> Result<u64, Infallible> {
        let id = self.next_id;
        self.next_id += 1;
        self.insert(WalRecord { id, received_at, alert: alert.clone(), user: user.clone() });
        self.appends += 1;
        Ok(id)
    }

    /// Makes every later append's id greater than `last`: a caller that
    /// keeps ids of this log elsewhere (the delivery ledger keys its
    /// records by them) reserves the ones a previous run issued, which
    /// the log forgets once it has compacted their records away. Writes
    /// nothing.
    pub fn issue_ids_above(&mut self, last: u64) {
        self.next_id = self.next_id.max(last + 1);
    }

    /// Marks record `id` processed on behalf of `user`; the record leaves
    /// memory immediately. A record an earlier commit wrote gets a `P`
    /// mark, buffered like the rest of the batch; one appended since the
    /// last commit was never written and needs none.
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
            Some(record) if record.user == *user => {}
            _ => return Err(WalError::UnknownId(id)),
        }
        if self.fail_marks_for.remove(user) {
            return Err(WalError::Io(std::io::Error::other("injected mark failure")));
        }
        if id < self.unframed_from {
            self.journal.append(|out| {
                use std::fmt::Write as _;
                let _ = write!(out, "P\t{id}");
            });
            self.written += 1;
        }
        self.remove(id);
        self.marks += 1;
        Ok(())
    }

    /// One group commit ([`Journal::commit`]): frames the `R` image of
    /// every record appended since the last commit and still unprocessed,
    /// then makes it durable together with the buffered marks; a rotation
    /// carries the live records. Free when the batch left nothing to
    /// write.
    ///
    /// # Errors
    ///
    /// I/O failure leaves the whole batch non-durable and buffered for
    /// the retry; no acks may be released.
    pub fn commit(&mut self) -> Result<(), WalError> {
        for (_, record) in self.live.range(self.unframed_from..) {
            self.journal.append(|out| encode_record(out, record));
            self.written += 1;
        }
        self.unframed_from = self.next_id;
        self.journal.commit(|out| snapshot(&self.live, out))
    }

    /// Compacts history down to the live records now ([`Journal::rotate`]).
    /// The snapshot carries unframed records too, so the next commit need
    /// not frame them.
    ///
    /// # Errors
    ///
    /// I/O failure leaves the log readable.
    pub fn rotate(&mut self) -> Result<(), WalError> {
        self.journal.rotate(|out| snapshot(&self.live, out))?;
        self.unframed_from = self.next_id;
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

    /// Whether a commit would write anything: buffered marks, or records
    /// appended since the last commit and still unprocessed.
    pub fn is_dirty(&self) -> bool {
        self.journal.is_dirty() || self.live.range(self.unframed_from..).next().is_some()
    }

    /// Running totals.
    pub fn stats(&self) -> ShardLogStats {
        ShardLogStats {
            appends: self.appends,
            marks: self.marks,
            written: self.written,
            group_commits: self.journal.commits(),
            segments_rotated: self.journal.rotations(),
        }
    }

    /// Arms a one-shot [`WalError::Io`] on `user`'s next processed-mark —
    /// the fault-injection hook behind the "a failed mark crashes the
    /// affected buddy only" regression test.
    pub fn inject_mark_failure(&mut self, user: &UserId) {
        self.fail_marks_for.insert(user.clone());
    }

    /// Arms [`Journal::fail_next_write_after`]: the next commit (or
    /// rotation) writes `bytes` bytes, then fails.
    pub fn inject_write_failure(&mut self, bytes: usize) {
        self.journal.fail_next_write_after(bytes);
    }
}

fn snapshot(live: &BTreeMap<u64, WalRecord>, out: &mut Frames) {
    for record in live.values() {
        out.push(|line| encode_record(line, record));
    }
}

/// The `R` image — what a commit frames for a record its batch left
/// unprocessed, and what a rotation carries.
fn encode_record(out: &mut String, record: &WalRecord) {
    use std::fmt::Write as _;
    let alert = &record.alert;
    // Infallible for String, but avoid unwrap in a prod path.
    let _ = write!(
        out,
        "R\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        escape(&record.user.0),
        record.id,
        record.received_at.as_millis(),
        alert.origin_timestamp.as_millis(),
        alert.urgency,
        escape(&alert.source),
        escape(&alert.sender_name),
        escape(&alert.subject),
        escape(&alert.body),
    );
}

fn decode_record(payload: &str) -> Option<WalRecord> {
    let mut fields = payload.strip_prefix("R\t")?.split('\t');
    let user = UserId::new(unescape(fields.next()?));
    let id = fields.next()?.parse().ok()?;
    let received_at = SimTime::from_millis(fields.next()?.parse().ok()?);
    let origin_timestamp = SimTime::from_millis(fields.next()?.parse().ok()?);
    let urgency = match fields.next()? {
        "low" => Urgency::Low,
        "normal" => Urgency::Normal,
        "critical" => Urgency::Critical,
        _ => return None,
    };
    let source = unescape(fields.next()?).into();
    let sender_name = unescape(fields.next()?);
    let subject = unescape(fields.next()?);
    let body = unescape(fields.next()?).into();
    Some(WalRecord {
        id,
        received_at,
        alert: IncomingAlert { source, sender_name, subject, body, origin_timestamp, urgency },
        user,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(log.unprocessed_for(&user("alice")).len(), 2);
        assert_eq!(log.unprocessed_for(&user("bob")).len(), 1);

        log.mark_processed(&user("alice"), a1).unwrap();
        let remaining = log.unprocessed_for(&user("alice"));
        assert_eq!(remaining.len(), 1);
        assert_eq!(&*remaining[0].alert.body, "three");
        assert_eq!(remaining[0].user, user("alice"));

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

    /// Every frame of every segment in `dir`, oldest segment first. A
    /// segment's frames must be followed by zeros and nothing else.
    fn frames_on_disk(dir: &std::path::Path) -> Vec<String> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
        paths.sort();
        let mut frames = Vec::new();
        for path in paths {
            let text = std::fs::read_to_string(&path).unwrap();
            let data = text.trim_end_matches('\0');
            assert!(data.is_empty() || data.ends_with('\n'), "{}: a fragment before the zeros", path.display());
            assert!(!data.contains('\0'), "{}: zeros among the frames", path.display());
            frames.extend(data.lines().map(str::to_string));
        }
        frames
    }

    #[test]
    fn group_commit_batches_many_buddies_into_one_commit() {
        let mut log = ShardLog::open(ShardLogConfig::in_memory()).unwrap();
        // A hundred records from ten buddies outlive their batch: one
        // commit writes all their images.
        let ids: Vec<(UserId, u64)> = (0..100u64)
            .map(|i| {
                let u = user(&format!("u{}", i % 10));
                let id = log.append(&u, &alert("x", i), t(i)).unwrap();
                (u, id)
            })
            .collect();
        log.commit().unwrap();
        assert_eq!((log.stats().written, log.stats().group_commits), (100, 1));
        // The next batch marks them all: one commit writes every mark.
        for (u, id) in &ids {
            log.mark_processed(u, *id).unwrap();
        }
        log.commit().unwrap();
        assert_eq!(log.stats().appends, 100);
        assert_eq!(log.stats().marks, 100);
        assert_eq!((log.stats().written, log.stats().group_commits), (200, 2));
        assert_eq!(log.unprocessed_len(), 0);
    }

    #[test]
    fn an_append_marked_in_its_own_batch_is_never_written() {
        let dir = temp_dir("elided");
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        for i in 0..10u64 {
            let id = log.append(&user("alice"), &alert("routed at once", i), t(i)).unwrap();
            log.mark_processed(&user("alice"), id).unwrap();
        }
        assert!(!log.is_dirty());
        log.commit().unwrap();
        assert_eq!((log.stats().written, log.stats().group_commits), (0, 0));
        assert!(frames_on_disk(&dir).is_empty(), "zero bytes written");
        drop(log);
        let log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        assert_eq!(log.unprocessed_len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_marked_in_a_later_batch_gets_its_mark_written() {
        let dir = temp_dir("later-mark");
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        let id = log.append(&user("alice"), &alert("outlives its batch", 1), t(1)).unwrap();
        log.commit().unwrap();
        log.mark_processed(&user("alice"), id).unwrap();
        assert!(log.is_dirty(), "the mark of a written record is owed");
        log.commit().unwrap();
        assert_eq!((log.stats().written, log.stats().group_commits), (2, 2));
        let frames = frames_on_disk(&dir);
        assert_eq!(frames.len(), 2);
        assert!(frames[0].contains("\tR\t") && frames[1].ends_with(&format!("\tP\t{id}")), "{frames:?}");
        drop(log);
        assert_eq!(ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap().unprocessed_len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_whose_mark_failed_is_written_at_commit() {
        let dir = temp_dir("failed-mark");
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        log.inject_mark_failure(&user("alice"));
        let id = log.append(&user("alice"), &alert("still owed", 1), t(1)).unwrap();
        assert!(log.mark_processed(&user("alice"), id).is_err());
        assert!(log.is_dirty());
        log.commit().unwrap();
        assert_eq!((log.stats().written, log.stats().group_commits), (1, 1));
        drop(log);
        let log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        assert_eq!(log.unprocessed_for(&user("alice"))[0].id, id);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_rotation_carries_an_unframed_record_once() {
        let dir = temp_dir("rotate-unframed");
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        let id = log.append(&user("alice"), &alert("carried", 1), t(1)).unwrap();
        log.rotate().unwrap();
        assert!(!log.is_dirty(), "the snapshot made it durable");
        log.commit().unwrap();
        assert_eq!(log.stats().written, 0);
        let images = frames_on_disk(&dir).iter().filter(|f| f.contains("\tR\t")).count();
        assert_eq!(images, 1, "one image, in the snapshot");
        drop(log);
        let log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        assert_eq!(log.unprocessed_for(&user("alice"))[0].id, id);
        std::fs::remove_dir_all(&dir).unwrap();
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
    fn rotation_compacts_processed_history() {
        let dir = temp_dir("rotate");
        let config = ShardLogConfig { dir: Some(dir.clone()), segment_max_bytes: 256 };
        let mut log = ShardLog::open(config).unwrap();
        // Churn enough records that outlive their batch — an image in one
        // commit, a mark in the next — to trip several rotations.
        for i in 0..50u64 {
            let id = log.append(&user("alice"), &alert("churn", i), t(i)).unwrap();
            log.commit().unwrap();
            log.mark_processed(&user("alice"), id).unwrap();
            log.commit().unwrap();
        }
        // One live record rides along.
        let live = log.append(&user("bob"), &alert("keep me", 99), t(99)).unwrap();
        log.commit().unwrap();
        assert!(log.stats().segments_rotated > 0);
        // Exactly one segment remains on disk, holding only live records.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "old segments deleted");
        drop(log);
        let log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        assert_eq!(log.unprocessed_for(&user("bob"))[0].id, live);
        assert_eq!(log.unprocessed_len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mark_for_compacted_record_is_tolerated_on_replay() {
        // A mark still buffered when a rotation compacts its record away
        // lands in the fresh segment: a `P` for an id nothing carries.
        let dir = temp_dir("stalemark");
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        let gone = log.append(&user("alice"), &alert("old", 1), t(1)).unwrap();
        log.commit().unwrap();
        log.mark_processed(&user("alice"), gone).unwrap();
        log.rotate().unwrap();
        let kept = log.append(&user("alice"), &alert("kept", 2), t(2)).unwrap();
        log.commit().unwrap();
        drop(log);
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        assert_eq!(log.unprocessed_for(&user("alice"))[0].id, kept);
        assert_eq!(log.unprocessed_len(), 1);
        // next_id advanced past both the stale mark and the live record.
        assert!(log.append(&user("alice"), &alert("new", 3), t(3)).unwrap() > kept);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_commit_that_fails_part_way_loses_nothing_once_retried() {
        let dir = temp_dir("commit-fault");
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        log.append(&user("alice"), &alert("committed", 1), t(1)).unwrap();
        log.commit().unwrap();
        log.append(&user("bob"), &alert("acked after the retry", 2), t(2)).unwrap();
        log.inject_write_failure(9);
        assert!(matches!(log.commit(), Err(WalError::Io(_))));
        assert!(log.is_dirty(), "the failed batch is still owed");
        log.commit().unwrap();
        assert_eq!(log.stats().group_commits, 2);
        drop(log);
        let log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        assert_eq!(log.unprocessed_for(&user("bob")).len(), 1, "bob's commit returned Ok");
        assert_eq!(log.unprocessed_len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_rotation_never_outranks_what_follows_it() {
        let dir = temp_dir("rotate-fault");
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        let a = log.append(&user("alice"), &alert("processed later", 1), t(1)).unwrap();
        log.append(&user("bob"), &alert("stays live", 2), t(2)).unwrap();
        log.commit().unwrap();
        log.inject_write_failure(40);
        assert!(log.rotate().is_err());
        // Life goes on in the old segment.
        log.mark_processed(&user("alice"), a).unwrap();
        log.append(&user("carol"), &alert("appended after", 3), t(3)).unwrap();
        log.commit().unwrap();
        let live = |log: &ShardLog| {
            let mut users = log.users_with_unprocessed();
            users.sort();
            users
        };
        let before = live(&log);
        assert_eq!(before, [user("bob"), user("carol")]);
        assert_eq!(live(&ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap()), before);
        // The next attempt succeeds and leaves exactly one segment.
        log.rotate().unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        assert_eq!(live(&ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap()), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ids_issued_above_a_reservation_and_nothing_written() {
        let mut log = ShardLog::open(ShardLogConfig::in_memory()).unwrap();
        assert_eq!(log.append(&user("a"), &alert("x", 0), t(0)), Ok(0));
        log.issue_ids_above(41);
        assert_eq!(log.append(&user("a"), &alert("y", 0), t(0)), Ok(42));
        // A reservation below the next id changes nothing.
        log.issue_ids_above(7);
        assert_eq!(log.append(&user("a"), &alert("z", 0), t(0)), Ok(43));
        assert!(!log.journal.is_dirty(), "the reservation wrote no frame");
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
