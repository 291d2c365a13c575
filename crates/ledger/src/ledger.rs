//! The ledger state machine and its segmented group-commit journal.

use simba_core::address::CommType;
use simba_core::snapshot::crc32;
use simba_core::subscription::UserId;
use simba_core::wal::{escape, unescape};
use simba_sim::{SimDuration, SimTime};
use simba_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Default segment-rotation threshold (bytes of one segment file).
pub const DEFAULT_SEGMENT_MAX_BYTES: u64 = 4 * 1024 * 1024;

/// The handle shape the worker pool shares: an uncontended mutex around
/// the ledger (workers lock it briefly to lease/record, never across a
/// send).
pub type SharedLedger = Arc<Mutex<DeliveryLedger>>;

/// Identifies a ledger worker for lease ownership checks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkerId(pub String);

impl WorkerId {
    /// A worker id from anything stringy.
    pub fn new(s: impl Into<String>) -> Self {
        WorkerId(s.into())
    }
}

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Where a record is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordState {
    /// Enqueued, never leased (or reclaimed after a lease expired).
    Pending,
    /// Held by a worker under a time-bounded lease.
    Leased,
    /// A send failed; eligible again once `not_before` passes.
    Retrying,
    /// Terminal success. Sent records leave memory at once; their history
    /// is compacted away at the next segment rotation.
    Sent,
    /// Terminal failure after `max_attempts`; parked in the bounded DLQ.
    DeadLettered,
}

impl RecordState {
    /// Lowercase label for journals, tables, and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            RecordState::Pending => "pending",
            RecordState::Leased => "leased",
            RecordState::Retrying => "retrying",
            RecordState::Sent => "sent",
            RecordState::DeadLettered => "dead",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "pending" => RecordState::Pending,
            "leased" => RecordState::Leased,
            "retrying" => RecordState::Retrying,
            "sent" => RecordState::Sent,
            "dead" => RecordState::DeadLettered,
            _ => return None,
        })
    }
}

/// A worker's time-bounded claim on a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The holding worker.
    pub worker: WorkerId,
    /// When any other worker may reclaim the record.
    pub expires_at: SimTime,
}

/// One durable queue entry: a channel attempt for one `(delivery,
/// channel)` pair of one user.
#[derive(Debug, Clone)]
pub struct LedgerRecord {
    /// Ledger-monotonic id (never reused, even across restarts).
    pub id: u64,
    /// The owning user.
    pub user: UserId,
    /// The delivery this attempt belongs to.
    pub delivery: u64,
    /// The outbound channel.
    pub channel: CommType,
    /// Channel-specific address value.
    pub address: String,
    /// The alert text to send.
    pub text: String,
    /// Stable idempotency key (`user/delivery/channel`): identical on
    /// every retry and re-lease, so channel adapters can dedupe.
    pub idempotency_key: String,
    /// Lifecycle state.
    pub state: RecordState,
    /// Lease grants so far (== send attempts started).
    pub attempts: u32,
    /// Not eligible for leasing before this time (retry backoff).
    pub not_before: SimTime,
    /// The current lease, when `state` is [`RecordState::Leased`].
    pub lease: Option<Lease>,
    /// When the record was enqueued.
    pub enqueued_at: SimTime,
    /// The most recent send error, if any.
    pub last_error: Option<String>,
}

/// What [`DeliveryLedger::lease`] hands a worker: everything needed to
/// perform the send without holding the ledger lock.
#[derive(Debug, Clone)]
pub struct LeasedWork {
    /// The leased record's id (echo it back in `record_sent`/`record_failed`).
    pub id: u64,
    /// The outbound channel.
    pub channel: CommType,
    /// Channel-specific address value.
    pub address: String,
    /// The alert text.
    pub text: String,
    /// The stable idempotency key to stamp on the outbound send.
    pub idempotency_key: String,
    /// Which attempt this is (1-based).
    pub attempt: u32,
}

/// Ledger configuration.
#[derive(Debug, Clone)]
pub struct LedgerConfig {
    /// Directory holding the journal segments (`seg-NNNNNN.log`).
    /// `None` keeps the ledger in memory — the deterministic-test and
    /// benchmark shape, with identical grouping/rotation accounting but
    /// no durability.
    pub dir: Option<PathBuf>,
    /// Rotate once the active segment grows past this many bytes.
    pub segment_max_bytes: u64,
    /// How long a lease lasts before any worker may reclaim it.
    pub lease_duration: SimDuration,
    /// First-retry backoff; doubles per failed attempt.
    pub base_backoff: SimDuration,
    /// Backoff ceiling.
    pub max_backoff: SimDuration,
    /// Lease grants after which a record dead-letters.
    pub max_attempts: u32,
    /// Most dead-lettered records retained; beyond it the oldest are
    /// dropped (counted in [`LedgerStats::dlq_evicted`]).
    pub dlq_capacity: usize,
    /// Seed for the deterministic retry jitter.
    pub jitter_seed: u64,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        LedgerConfig {
            dir: None,
            segment_max_bytes: DEFAULT_SEGMENT_MAX_BYTES,
            lease_duration: SimDuration::from_secs(30),
            base_backoff: SimDuration::from_millis(500),
            max_backoff: SimDuration::from_mins(1),
            max_attempts: 8,
            dlq_capacity: 1024,
            jitter_seed: 0x51BA_1ED6,
        }
    }
}

impl LedgerConfig {
    /// An in-memory ledger.
    pub fn in_memory() -> Self {
        LedgerConfig::default()
    }

    /// A file-backed ledger under `dir`.
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        LedgerConfig { dir: Some(dir.into()), ..LedgerConfig::default() }
    }
}

/// What can go wrong talking to the ledger.
#[derive(Debug)]
pub enum LedgerError {
    /// Filesystem failure on the journal.
    Io(std::io::Error),
    /// A journal line failed to parse, or a rotation checksum mismatched.
    Corrupt {
        /// 1-based line number within the offending segment.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// No live record has this id.
    UnknownRecord(u64),
    /// The reporting worker no longer holds the record's lease (it
    /// expired and another worker reclaimed it — the loser of a
    /// lease-expiry race sees this).
    StaleLease {
        /// The record whose lease moved on.
        id: u64,
        /// Who holds it now, if anyone.
        holder: Option<String>,
    },
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::Io(e) => write!(f, "ledger I/O error: {e}"),
            LedgerError::Corrupt { line, reason } => {
                write!(f, "ledger journal corrupt at line {line}: {reason}")
            }
            LedgerError::UnknownRecord(id) => write!(f, "no live ledger record {id}"),
            LedgerError::StaleLease { id, holder } => write!(
                f,
                "stale lease on record {id} (now held by {})",
                holder.as_deref().unwrap_or("nobody")
            ),
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<std::io::Error> for LedgerError {
    fn from(e: std::io::Error) -> Self {
        LedgerError::Io(e)
    }
}

/// Running totals for one ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Fresh records enqueued (upserts to an existing live record do not
    /// count again).
    pub enqueued: u64,
    /// Lease grants (== send attempts started).
    pub leased: u64,
    /// Leases that expired and were reclaimed for another worker.
    pub lease_expired: u64,
    /// Records that reached [`RecordState::Sent`].
    pub sent: u64,
    /// Sends the channel adapter absorbed as idempotent duplicates (a
    /// subset of `sent`).
    pub deduped: u64,
    /// Failed sends scheduled for retry with backoff.
    pub retried: u64,
    /// Records that dead-lettered after `max_attempts`.
    pub dead_lettered: u64,
    /// Dead letters dropped because the DLQ was full.
    pub dlq_evicted: u64,
    /// Dead letters requeued by an operator.
    pub requeued: u64,
    /// Group commits performed (one fsync each in file mode).
    pub commit_batches: u64,
    /// Segment rotations (history compacted to live records).
    pub segments_rotated: u64,
}

/// Live record counts by state, for `simba-cli ledger ls`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerCounts {
    /// Records awaiting their first (or reclaimed) lease.
    pub pending: usize,
    /// Records currently leased to a worker.
    pub leased: usize,
    /// Records in retry backoff.
    pub retrying: usize,
    /// Records parked in the dead-letter queue.
    pub dead_lettered: usize,
}

#[derive(Debug)]
struct Backend {
    dir: PathBuf,
    seg_index: u64,
    file: File,
    seg_bytes: u64,
    /// Size of the last rotation's carried snapshot. Rotation only pays
    /// off once the segment has at least doubled past this: a live set
    /// big enough that its snapshot alone exceeds `segment_max_bytes`
    /// must not re-rotate on every commit.
    baseline_bytes: u64,
    pending: String,
}

/// The durable `alert_deliveries` queue.
///
/// Not internally synchronized; the worker pool wraps it in
/// [`SharedLedger`] and locks briefly around each operation.
#[derive(Debug)]
pub struct DeliveryLedger {
    backend: Option<Backend>,
    segment_max_bytes: u64,
    lease_duration: SimDuration,
    base_backoff: SimDuration,
    max_backoff: SimDuration,
    max_attempts: u32,
    dlq_capacity: usize,
    jitter_seed: u64,
    /// Live (non-terminal, non-DLQ) records by id.
    live: BTreeMap<u64, LedgerRecord>,
    /// Stable-key index over live records, for the one-record-per-
    /// `(delivery, channel)` upsert contract.
    by_key: HashMap<String, u64>,
    /// `(not_before, id)` over Pending/Retrying records.
    ready: BTreeSet<(SimTime, u64)>,
    /// `(expires_at, id)` over Leased records.
    leased: BTreeSet<(SimTime, u64)>,
    /// The bounded dead-letter queue, oldest first.
    dlq: VecDeque<LedgerRecord>,
    next_id: u64,
    dirty: bool,
    stats: LedgerStats,
    telemetry: Telemetry,
}

impl DeliveryLedger {
    /// Opens (or creates) the ledger described by `config`, replaying
    /// every journal segment in order. Leases found in the journal belong
    /// to workers of a previous process and are reclaimed to Pending;
    /// retry backoffs are reset (the clock base changed). A torn tail on
    /// the *last* segment — the artifact of dying mid-commit — is
    /// truncated away; nothing observable depended on it by the
    /// group-commit discipline.
    ///
    /// # Errors
    ///
    /// I/O failure, or corruption before the tail (including a rotation
    /// checksum mismatch).
    pub fn open(config: LedgerConfig) -> Result<Self, LedgerError> {
        let mut ledger = DeliveryLedger {
            backend: None,
            segment_max_bytes: config.segment_max_bytes.max(1),
            lease_duration: config.lease_duration,
            base_backoff: config.base_backoff,
            max_backoff: config.max_backoff,
            max_attempts: config.max_attempts.max(1),
            dlq_capacity: config.dlq_capacity.max(1),
            jitter_seed: config.jitter_seed,
            live: BTreeMap::new(),
            by_key: HashMap::new(),
            ready: BTreeSet::new(),
            leased: BTreeSet::new(),
            dlq: VecDeque::new(),
            next_id: 0,
            dirty: false,
            stats: LedgerStats::default(),
            telemetry: Telemetry::disabled(),
        };
        let Some(dir) = config.dir else {
            return Ok(ledger);
        };
        std::fs::create_dir_all(&dir)?;
        let mut segments = list_segments(&dir)?;
        segments.sort_by_key(|(idx, _)| *idx);
        let last = segments.len().checked_sub(1);
        for (pos, (_, path)) in segments.iter().enumerate() {
            ledger.replay_segment(path, Some(pos) == last)?;
        }
        // A lease in the journal was held by a worker of the process that
        // wrote it; reopening means that process is gone, so every lease
        // is reclaimable now.
        let held: Vec<u64> = ledger.live.iter().filter(|(_, r)| r.state == RecordState::Leased).map(|(id, _)| *id).collect();
        for id in held {
            if let Some(record) = ledger.live.get_mut(&id) {
                record.state = RecordState::Pending;
                record.lease = None;
                record.not_before = SimTime::ZERO;
                ledger.ready.insert((SimTime::ZERO, id));
            }
        }
        let seg_index = segments.last().map_or(0, |(idx, _)| *idx);
        let path = segment_path(&dir, seg_index);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let seg_bytes = file.metadata()?.len();
        ledger.backend = Some(Backend {
            dir,
            seg_index,
            file,
            seg_bytes,
            baseline_bytes: 0,
            pending: String::new(),
        });
        Ok(ledger)
    }

    /// Routes `ledger.*` counters to `telemetry`.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Bumps the named `ledger.*` counter when telemetry is enabled.
    fn counter(&self, name: &str) {
        if self.telemetry.enabled() {
            self.telemetry.metrics().counter(name).incr();
        }
    }

    /// The stable idempotency key for a `(user, delivery, channel)`
    /// attempt — identical across retries, re-leases, and even a fresh
    /// enqueue after the record already concluded (so adapter-level
    /// dedupe catches host-replay double-enqueues too).
    pub fn idempotency_key(user: &UserId, delivery: u64, channel: CommType) -> String {
        format!("{}/{}/{}", user.0, delivery, channel)
    }

    /// Enqueues a channel attempt. One live record exists per `(user,
    /// delivery, channel)`: enqueueing a pair that already has a live
    /// record returns the existing id (replace/upsert semantics, like
    /// Trace's `alert_deliveries` rows). The record is *not* durable
    /// until the next [`DeliveryLedger::commit`].
    pub fn enqueue(
        &mut self,
        user: &UserId,
        delivery: u64,
        channel: CommType,
        address: &str,
        text: &str,
        now: SimTime,
    ) -> u64 {
        let key = Self::idempotency_key(user, delivery, channel);
        if let Some(&id) = self.by_key.get(&key) {
            return id;
        }
        let id = self.next_id;
        self.next_id += 1;
        if let Some(backend) = &mut self.backend {
            use std::fmt::Write as _;
            let _ = writeln!(
                backend.pending,
                "E\t{id}\t{}\t{delivery}\t{channel}\t{}\t{}\t{}",
                escape(&user.0),
                now.as_millis(),
                escape(address),
                escape(text),
            );
        }
        self.live.insert(
            id,
            LedgerRecord {
                id,
                user: user.clone(),
                delivery,
                channel,
                address: address.to_string(),
                text: text.to_string(),
                idempotency_key: key.clone(),
                state: RecordState::Pending,
                attempts: 0,
                not_before: SimTime::ZERO,
                lease: None,
                enqueued_at: now,
                last_error: None,
            },
        );
        self.by_key.insert(key, id);
        self.ready.insert((SimTime::ZERO, id));
        self.dirty = true;
        self.stats.enqueued += 1;
        self.counter("ledger.enqueued");
        id
    }

    /// Grants `worker` up to `batch` time-bounded leases. Expired leases
    /// are reclaimed first (counted under `ledger.lease_expired`) — any
    /// worker resumes any lease — then ready records whose `not_before`
    /// has passed are granted in backoff order. Records that exhausted
    /// `max_attempts` while leased dead-letter instead of being granted.
    ///
    /// Lease grants buffer in the journal like any other transition; the
    /// worker pool commits before performing the sends.
    pub fn lease(&mut self, worker: &WorkerId, now: SimTime, batch: usize) -> Vec<LeasedWork> {
        // Phase 1: reclaim every expired lease.
        loop {
            match self.leased.first().copied() {
                Some((expires, id)) if expires <= now => {
                    self.leased.remove(&(expires, id));
                    self.stats.lease_expired += 1;
                    self.counter("ledger.lease_expired");
                    let Some(record) = self.live.get_mut(&id) else { continue };
                    record.lease = None;
                    if record.attempts >= self.max_attempts {
                        self.dead_letter(id, "lease expired after max attempts");
                    } else {
                        record.state = RecordState::Pending;
                        record.not_before = now;
                        self.ready.insert((now, id));
                    }
                }
                _ => break,
            }
        }
        // Phase 2: grant from the ready queue.
        let mut granted = Vec::new();
        while granted.len() < batch {
            let Some(&(not_before, id)) = self.ready.first() else { break };
            if not_before > now {
                break;
            }
            self.ready.remove(&(not_before, id));
            let expires_at = now + self.lease_duration;
            let Some(record) = self.live.get_mut(&id) else { continue };
            record.state = RecordState::Leased;
            record.attempts += 1;
            record.lease = Some(Lease { worker: worker.clone(), expires_at });
            let attempts = record.attempts;
            let work = LeasedWork {
                id,
                channel: record.channel,
                address: record.address.clone(),
                text: record.text.clone(),
                idempotency_key: record.idempotency_key.clone(),
                attempt: attempts,
            };
            if let Some(backend) = &mut self.backend {
                use std::fmt::Write as _;
                let _ = writeln!(
                    backend.pending,
                    "L\t{id}\t{}\t{}\t{attempts}",
                    escape(&worker.0),
                    expires_at.as_millis(),
                );
            }
            self.leased.insert((expires_at, id));
            self.dirty = true;
            self.stats.leased += 1;
            self.counter("ledger.leased");
            granted.push(work);
        }
        granted
    }

    /// Verifies `worker` still holds `id`'s lease. A record that is no
    /// longer live went terminal under someone else's lease — to the
    /// reporting worker that is indistinguishable from (and reported as)
    /// a stale lease with no current holder.
    fn check_lease(&self, worker: &WorkerId, id: u64) -> Result<(), LedgerError> {
        let Some(record) = self.live.get(&id) else {
            return Err(LedgerError::StaleLease { id, holder: None });
        };
        match (&record.state, &record.lease) {
            (RecordState::Leased, Some(lease)) if lease.worker == *worker => Ok(()),
            (_, lease) => Err(LedgerError::StaleLease {
                id,
                holder: lease.as_ref().map(|l| l.worker.0.clone()),
            }),
        }
    }

    /// Records a successful send: the record goes terminal and leaves
    /// memory (its history compacts away at the next rotation).
    ///
    /// # Errors
    ///
    /// [`LedgerError::StaleLease`] when `worker` lost the lease (the
    /// record was reclaimed — another worker owns the outcome now), or
    /// [`LedgerError::UnknownRecord`].
    pub fn record_sent(&mut self, worker: &WorkerId, id: u64, _now: SimTime) -> Result<(), LedgerError> {
        self.check_lease(worker, id)?;
        if let Some(record) = self.live.remove(&id) {
            if let Some(lease) = &record.lease {
                self.leased.remove(&(lease.expires_at, id));
            }
            self.by_key.remove(&record.idempotency_key);
        }
        if let Some(backend) = &mut self.backend {
            use std::fmt::Write as _;
            let _ = writeln!(backend.pending, "S\t{id}");
        }
        self.dirty = true;
        self.stats.sent += 1;
        Ok(())
    }

    /// Records that the channel adapter deduplicated the send: a prior
    /// attempt (possibly by a worker that died before reporting) already
    /// produced the visible effect, so the record is terminal-success —
    /// exactly like [`DeliveryLedger::record_sent`] but counted under
    /// `ledger.idempotent_dedup` so the at-least-once redeliveries that
    /// the idempotency keys absorbed stay observable.
    ///
    /// # Errors
    ///
    /// As in [`DeliveryLedger::record_sent`].
    pub fn record_duplicate(
        &mut self,
        worker: &WorkerId,
        id: u64,
        now: SimTime,
    ) -> Result<(), LedgerError> {
        self.record_sent(worker, id, now)?;
        self.stats.deduped += 1;
        self.counter("ledger.idempotent_dedup");
        Ok(())
    }

    /// Records a failed send: the record re-enters the queue under
    /// exponential backoff with deterministic jitter, or dead-letters
    /// once `max_attempts` lease grants are spent.
    ///
    /// # Errors
    ///
    /// [`LedgerError::StaleLease`] / [`LedgerError::UnknownRecord`] as in
    /// [`DeliveryLedger::record_sent`].
    pub fn record_failed(
        &mut self,
        worker: &WorkerId,
        id: u64,
        error: &str,
        now: SimTime,
    ) -> Result<(), LedgerError> {
        self.check_lease(worker, id)?;
        let attempts = self
            .live
            .get(&id)
            .map(|r| r.attempts)
            .ok_or(LedgerError::UnknownRecord(id))?;
        let delay = self.backoff_delay(id, attempts);
        let not_before = now + delay;
        let Some(record) = self.live.get_mut(&id) else {
            return Err(LedgerError::UnknownRecord(id));
        };
        if let Some(lease) = record.lease.take() {
            self.leased.remove(&(lease.expires_at, id));
        }
        record.last_error = Some(error.to_string());
        if attempts >= self.max_attempts {
            self.dead_letter(id, error);
            return Ok(());
        }
        let Some(record) = self.live.get_mut(&id) else {
            return Err(LedgerError::UnknownRecord(id));
        };
        record.state = RecordState::Retrying;
        record.not_before = not_before;
        if let Some(backend) = &mut self.backend {
            use std::fmt::Write as _;
            let _ = writeln!(
                backend.pending,
                "F\t{id}\t{attempts}\t{}\t{}",
                not_before.as_millis(),
                escape(error),
            );
        }
        self.ready.insert((not_before, id));
        self.dirty = true;
        self.stats.retried += 1;
        self.counter("ledger.retried");
        Ok(())
    }

    /// The deterministic backoff schedule: `base * 2^(attempts-1)`
    /// clamped to `max_backoff`, plus jitter in `[0, delay/2)` derived
    /// from `(jitter_seed, id, attempts)` — identical for identical
    /// configuration, so retry timing is reproducible under SimTime.
    pub fn backoff_delay(&self, id: u64, attempts: u32) -> SimDuration {
        let exp = attempts.saturating_sub(1).min(20);
        let base = self.base_backoff.as_millis().max(1);
        let ceiling = self.max_backoff.as_millis().max(1);
        let delay = base.saturating_mul(1u64 << exp).min(ceiling);
        let jitter = fnv_mix(self.jitter_seed, id, u64::from(attempts)) % (delay / 2).max(1);
        SimDuration::from_millis(delay + jitter)
    }

    /// Moves a live record into the bounded DLQ, evicting the oldest dead
    /// letter when full.
    fn dead_letter(&mut self, id: u64, error: &str) {
        let Some(mut record) = self.live.remove(&id) else { return };
        if let Some(lease) = record.lease.take() {
            self.leased.remove(&(lease.expires_at, id));
        }
        self.ready.remove(&(record.not_before, id));
        self.by_key.remove(&record.idempotency_key);
        record.state = RecordState::DeadLettered;
        if record.last_error.is_none() {
            record.last_error = Some(error.to_string());
        }
        if let Some(backend) = &mut self.backend {
            use std::fmt::Write as _;
            let _ = writeln!(backend.pending, "D\t{id}\t{}", escape(error));
        }
        self.dlq.push_back(record);
        while self.dlq.len() > self.dlq_capacity {
            self.dlq.pop_front();
            self.stats.dlq_evicted += 1;
        }
        self.dirty = true;
        self.stats.dead_lettered += 1;
        self.counter("ledger.dead_lettered");
    }

    /// Requeues every dead letter as Pending with a reset attempt budget
    /// (the `simba-cli ledger retry` path). Returns how many moved.
    pub fn requeue_dead_letters(&mut self, now: SimTime) -> usize {
        let moved = self.dlq.len();
        while let Some(mut record) = self.dlq.pop_front() {
            let id = record.id;
            record.state = RecordState::Pending;
            record.attempts = 0;
            record.not_before = now;
            record.lease = None;
            if let Some(backend) = &mut self.backend {
                use std::fmt::Write as _;
                let _ = writeln!(backend.pending, "Q\t{id}");
            }
            self.by_key.insert(record.idempotency_key.clone(), id);
            self.ready.insert((now, id));
            self.live.insert(id, record);
            self.dirty = true;
            self.stats.requeued += 1;
        }
        moved
    }

    /// Test/bench hook: forces every outstanding lease to be reclaimable
    /// immediately, as if its worker had silently died long ago.
    pub fn force_expire_leases(&mut self) {
        let held: Vec<(SimTime, u64)> = self.leased.iter().copied().collect();
        self.leased.clear();
        for (_, id) in held {
            if let Some(record) = self.live.get_mut(&id) {
                if let Some(lease) = &mut record.lease {
                    lease.expires_at = SimTime::ZERO;
                }
                self.leased.insert((SimTime::ZERO, id));
            }
        }
    }

    /// Makes every buffered transition durable with a single write and a
    /// single fsync, then rotates the segment if it outgrew its cap. A
    /// no-op (no fsync, no counter) when nothing is buffered.
    ///
    /// # Errors
    ///
    /// I/O failure leaves the buffered tail unwritten; the caller must
    /// treat the whole batch as non-durable.
    pub fn commit(&mut self) -> Result<(), LedgerError> {
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
        self.stats.commit_batches += 1;
        self.counter("ledger.commit_batch");
        if self.backend.as_ref().is_some_and(|b| {
            b.seg_bytes >= self.segment_max_bytes
                && b.seg_bytes >= b.baseline_bytes.saturating_mul(2)
        }) {
            self.rotate()?;
        }
        Ok(())
    }

    /// Rewrites the live records and the DLQ into a fresh segment guarded
    /// by a crc32 trailer, then deletes every older segment — Sent
    /// history compacts away. The fresh segment is fsynced *before* old
    /// ones are unlinked; a crash in between leaves duplicate state lines
    /// that replay idempotently.
    ///
    /// # Errors
    ///
    /// I/O failure before the old segments are removed leaves the ledger
    /// readable.
    pub fn rotate(&mut self) -> Result<(), LedgerError> {
        let Some(backend) = &mut self.backend else {
            self.stats.segments_rotated += 1;
            return Ok(());
        };
        let old_index = backend.seg_index;
        let new_index = old_index + 1;
        let path = segment_path(&backend.dir, new_index);
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut carried = String::new();
        for record in self.live.values().chain(self.dlq.iter()) {
            use std::fmt::Write as _;
            let _ = writeln!(
                carried,
                "R\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                record.id,
                escape(&record.user.0),
                record.delivery,
                record.channel,
                record.enqueued_at.as_millis(),
                record.state.label(),
                record.attempts,
                record.not_before.as_millis(),
                escape(&record.address),
                escape(&record.text),
                escape(record.last_error.as_deref().unwrap_or_default()),
            );
        }
        {
            use std::fmt::Write as _;
            let _ = writeln!(carried, "K\t{:08x}", crc32(carried.as_bytes()));
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
        backend.baseline_bytes = carried.len() as u64;
        backend.file = file;
        self.stats.segments_rotated += 1;
        Ok(())
    }

    /// Replays one segment. `tolerate_tail` truncates a torn final line
    /// (or an unfinished rotation prefix) instead of failing.
    fn replay_segment(&mut self, path: &Path, tolerate_tail: bool) -> Result<(), LedgerError> {
        let content = std::fs::read_to_string(path)?;
        // A rotated segment opens with `R` state lines closed by a `K`
        // checksum; verify the guard when present.
        let mut rotation_prefix = String::new();
        let mut in_prefix = true;
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
            if in_prefix {
                if trimmed.starts_with("R\t") {
                    rotation_prefix.push_str(line);
                } else if let Some(stored) = trimmed.strip_prefix("K\t") {
                    in_prefix = false;
                    // The trailer covers exactly the `R` lines the
                    // rotation wrote before it.
                    let covered = std::mem::take(&mut rotation_prefix);
                    let computed = crc32(covered.as_bytes());
                    let stored_crc = u32::from_str_radix(stored, 16).unwrap_or(!computed);
                    if stored_crc != computed {
                        return Err(LedgerError::Corrupt {
                            line: lineno + 1,
                            reason: format!(
                                "rotation checksum mismatch: stored {stored_crc:08x}, computed {computed:08x}"
                            ),
                        });
                    }
                    valid_len += line.len();
                    continue;
                } else {
                    in_prefix = false;
                }
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
        if in_prefix && !rotation_prefix.is_empty() && !tolerate_tail {
            return Err(LedgerError::Corrupt {
                line: content.lines().count(),
                reason: "rotation prefix missing its checksum trailer in a non-final segment".to_string(),
            });
        }
        if valid_len < content.len() {
            if !tolerate_tail {
                return Err(LedgerError::Corrupt {
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

    fn replay_line(&mut self, line: &str, lineno: usize) -> Result<(), LedgerError> {
        let corrupt = |reason: &str| LedgerError::Corrupt { line: lineno, reason: reason.to_string() };
        fn take_u64(
            fields: &mut std::str::Split<'_, char>,
            lineno: usize,
            what: &str,
        ) -> Result<u64, LedgerError> {
            fields.next().and_then(|s| s.parse().ok()).ok_or_else(|| LedgerError::Corrupt {
                line: lineno,
                reason: format!("bad {what}"),
            })
        }
        let mut fields = line.split('\t');
        let tag = fields.next().ok_or_else(|| corrupt("empty line"))?;
        match tag {
            "E" => {
                let id = take_u64(&mut fields, lineno, "id")?;
                let user = UserId(fields.next().map(unescape).ok_or_else(|| corrupt("missing user"))?);
                let delivery: u64 = fields
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| corrupt("bad delivery"))?;
                let channel = fields
                    .next()
                    .and_then(CommType::from_token)
                    .ok_or_else(|| corrupt("bad channel"))?;
                let enqueued_ms: u64 = fields
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| corrupt("bad enqueue timestamp"))?;
                let address = fields.next().map(unescape).ok_or_else(|| corrupt("missing address"))?;
                let text = fields.next().map(unescape).ok_or_else(|| corrupt("missing text"))?;
                self.next_id = self.next_id.max(id + 1);
                let key = Self::idempotency_key(&user, delivery, channel);
                // Duplicate ids can appear when a crash interrupted a
                // rotation; re-inserting is idempotent.
                if let std::collections::btree_map::Entry::Vacant(slot) = self.live.entry(id) {
                    slot.insert(LedgerRecord {
                        id,
                        user,
                        delivery,
                        channel,
                        address,
                        text,
                        idempotency_key: key.clone(),
                        state: RecordState::Pending,
                        attempts: 0,
                        not_before: SimTime::ZERO,
                        lease: None,
                        enqueued_at: SimTime::from_millis(enqueued_ms),
                        last_error: None,
                    });
                    self.by_key.insert(key, id);
                    self.ready.insert((SimTime::ZERO, id));
                }
                Ok(())
            }
            "L" => {
                let id = take_u64(&mut fields, lineno, "id")?;
                let worker = fields.next().map(unescape).ok_or_else(|| corrupt("missing worker"))?;
                let expires_ms = take_u64(&mut fields, lineno, "expiry")?;
                let attempts = take_u64(&mut fields, lineno, "attempts")? as u32;
                self.next_id = self.next_id.max(id + 1);
                if let Some(record) = self.live.get_mut(&id) {
                    self.ready.remove(&(record.not_before, id));
                    record.state = RecordState::Leased;
                    record.attempts = attempts;
                    record.lease = Some(Lease {
                        worker: WorkerId(worker),
                        expires_at: SimTime::from_millis(expires_ms),
                    });
                }
                Ok(())
            }
            "S" => {
                let id = take_u64(&mut fields, lineno, "id")?;
                self.next_id = self.next_id.max(id + 1);
                if let Some(record) = self.live.remove(&id) {
                    self.ready.remove(&(record.not_before, id));
                    self.by_key.remove(&record.idempotency_key);
                }
                Ok(())
            }
            "F" => {
                let id = take_u64(&mut fields, lineno, "id")?;
                let attempts = take_u64(&mut fields, lineno, "attempts")? as u32;
                let _not_before = take_u64(&mut fields, lineno, "not_before")?;
                let error = fields.next().map(unescape).unwrap_or_default();
                self.next_id = self.next_id.max(id + 1);
                if let Some(record) = self.live.get_mut(&id) {
                    self.ready.remove(&(record.not_before, id));
                    record.state = RecordState::Retrying;
                    record.attempts = attempts;
                    record.lease = None;
                    // The writing process's clock base is gone; make the
                    // retry eligible immediately.
                    record.not_before = SimTime::ZERO;
                    record.last_error = Some(error);
                    self.ready.insert((SimTime::ZERO, id));
                }
                Ok(())
            }
            "D" => {
                let id = take_u64(&mut fields, lineno, "id")?;
                let error = fields.next().map(unescape);
                self.next_id = self.next_id.max(id + 1);
                if let Some(mut record) = self.live.remove(&id) {
                    self.ready.remove(&(record.not_before, id));
                    self.by_key.remove(&record.idempotency_key);
                    record.state = RecordState::DeadLettered;
                    record.lease = None;
                    if error.is_some() {
                        record.last_error = error;
                    }
                    self.dlq.push_back(record);
                    while self.dlq.len() > self.dlq_capacity {
                        self.dlq.pop_front();
                    }
                }
                Ok(())
            }
            "Q" => {
                let id = take_u64(&mut fields, lineno, "id")?;
                self.next_id = self.next_id.max(id + 1);
                if let Some(pos) = self.dlq.iter().position(|r| r.id == id) {
                    if let Some(mut record) = self.dlq.remove(pos) {
                        record.state = RecordState::Pending;
                        record.attempts = 0;
                        record.not_before = SimTime::ZERO;
                        record.lease = None;
                        self.by_key.insert(record.idempotency_key.clone(), id);
                        self.ready.insert((SimTime::ZERO, id));
                        self.live.insert(id, record);
                    }
                }
                Ok(())
            }
            "R" => {
                let id = take_u64(&mut fields, lineno, "id")?;
                let user = UserId(fields.next().map(unescape).ok_or_else(|| corrupt("missing user"))?);
                let delivery: u64 = fields
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| corrupt("bad delivery"))?;
                let channel = fields
                    .next()
                    .and_then(CommType::from_token)
                    .ok_or_else(|| corrupt("bad channel"))?;
                let enqueued_ms: u64 = fields
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| corrupt("bad enqueue timestamp"))?;
                let state = fields
                    .next()
                    .and_then(RecordState::parse)
                    .ok_or_else(|| corrupt("bad state"))?;
                let attempts: u32 = fields
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| corrupt("bad attempts"))?;
                let _not_before: u64 = fields
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| corrupt("bad not_before"))?;
                let address = fields.next().map(unescape).ok_or_else(|| corrupt("missing address"))?;
                let text = fields.next().map(unescape).ok_or_else(|| corrupt("missing text"))?;
                let error = fields.next().map(unescape).unwrap_or_default();
                self.next_id = self.next_id.max(id + 1);
                let key = Self::idempotency_key(&user, delivery, channel);
                // Drop any earlier image of this id (an interrupted
                // rotation leaves the old segments behind).
                if let Some(prev) = self.live.remove(&id) {
                    self.ready.remove(&(prev.not_before, id));
                    self.by_key.remove(&prev.idempotency_key);
                }
                self.dlq.retain(|r| r.id != id);
                let record = LedgerRecord {
                    id,
                    user,
                    delivery,
                    channel,
                    address,
                    text,
                    idempotency_key: key.clone(),
                    // Leases and retry clocks do not survive the writing
                    // process; both resolve to eligible-now.
                    state: match state {
                        RecordState::Leased | RecordState::Retrying => RecordState::Pending,
                        s => s,
                    },
                    attempts,
                    not_before: SimTime::ZERO,
                    lease: None,
                    enqueued_at: SimTime::from_millis(enqueued_ms),
                    last_error: (!error.is_empty()).then_some(error),
                };
                if record.state == RecordState::DeadLettered {
                    self.dlq.push_back(record);
                    while self.dlq.len() > self.dlq_capacity {
                        self.dlq.pop_front();
                    }
                } else {
                    self.by_key.insert(key, id);
                    self.ready.insert((SimTime::ZERO, id));
                    self.live.insert(id, record);
                }
                Ok(())
            }
            _ => Err(corrupt("unknown tag")),
        }
    }

    /// Whether a commit is pending.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// No live work remains (pending, leased, or retrying); the DLQ may
    /// still hold dead letters. The worker pool drains until this holds.
    pub fn is_drained(&self) -> bool {
        self.live.is_empty() && !self.dirty
    }

    /// Live record counts by state.
    pub fn counts(&self) -> LedgerCounts {
        let mut counts = LedgerCounts { dead_lettered: self.dlq.len(), ..LedgerCounts::default() };
        for record in self.live.values() {
            match record.state {
                RecordState::Pending => counts.pending += 1,
                RecordState::Leased => counts.leased += 1,
                RecordState::Retrying => counts.retrying += 1,
                RecordState::Sent | RecordState::DeadLettered => {}
            }
        }
        counts
    }

    /// Live (non-terminal) records in id order.
    pub fn records(&self) -> impl Iterator<Item = &LedgerRecord> {
        self.live.values()
    }

    /// The dead-letter queue, oldest first.
    pub fn dead_letters(&self) -> impl Iterator<Item = &LedgerRecord> {
        self.dlq.iter()
    }

    /// Running totals.
    pub fn stats(&self) -> LedgerStats {
        self.stats
    }

    /// The active segment's index (for tests and diagnostics).
    pub fn segment_index(&self) -> u64 {
        self.backend.as_ref().map_or(0, |b| b.seg_index)
    }
}

/// FNV-1a over three words — the deterministic jitter source.
fn fnv_mix(seed: u64, id: u64, attempts: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for word in [id, attempts] {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.log"))
}

fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, LedgerError> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn user(name: &str) -> UserId {
        UserId::new(name)
    }

    fn worker(name: &str) -> WorkerId {
        WorkerId::new(name)
    }

    fn quick_config() -> LedgerConfig {
        LedgerConfig {
            lease_duration: SimDuration::from_millis(100),
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(200),
            max_attempts: 3,
            dlq_capacity: 8,
            ..LedgerConfig::in_memory()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simba-ledger-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn enqueue_lease_send_lifecycle() {
        let mut ledger = DeliveryLedger::open(quick_config()).unwrap();
        let id = ledger.enqueue(&user("alice"), 7, CommType::Im, "im:alice", "hi", t(0));
        assert_eq!(ledger.counts().pending, 1);
        let work = ledger.lease(&worker("w0"), t(1), 10);
        assert_eq!(work.len(), 1);
        assert_eq!(work[0].id, id);
        assert_eq!(work[0].attempt, 1);
        assert_eq!(work[0].idempotency_key, "alice/7/IM");
        assert_eq!(ledger.counts().leased, 1);
        // Nothing else to lease while held.
        assert!(ledger.lease(&worker("w1"), t(2), 10).is_empty());
        ledger.record_sent(&worker("w0"), id, t(3)).unwrap();
        assert!(ledger.is_drained() || ledger.is_dirty());
        ledger.commit().unwrap();
        assert!(ledger.is_drained());
        assert_eq!(ledger.stats().sent, 1);
    }

    #[test]
    fn enqueue_upserts_one_record_per_delivery_channel() {
        let mut ledger = DeliveryLedger::open(quick_config()).unwrap();
        let a = ledger.enqueue(&user("alice"), 7, CommType::Im, "im:alice", "hi", t(0));
        let b = ledger.enqueue(&user("alice"), 7, CommType::Im, "im:alice", "hi again", t(5));
        assert_eq!(a, b, "same (user, delivery, channel) upserts the live record");
        let c = ledger.enqueue(&user("alice"), 7, CommType::Email, "a@b", "hi", t(5));
        assert_ne!(a, c, "another channel is another record");
        assert_eq!(ledger.stats().enqueued, 2);
    }

    #[test]
    fn expired_lease_is_reclaimed_by_another_worker() {
        let mut ledger = DeliveryLedger::open(quick_config()).unwrap();
        let id = ledger.enqueue(&user("alice"), 1, CommType::Im, "im:alice", "x", t(0));
        let granted = ledger.lease(&worker("w0"), t(0), 10);
        assert_eq!(granted.len(), 1);
        // Before expiry nobody else gets it.
        assert!(ledger.lease(&worker("w1"), t(50), 10).is_empty());
        // After expiry (lease_duration = 100ms) w1 reclaims and re-leases.
        let reclaimed = ledger.lease(&worker("w1"), t(150), 10);
        assert_eq!(reclaimed.len(), 1);
        assert_eq!(reclaimed[0].id, id);
        assert_eq!(reclaimed[0].attempt, 2);
        assert_eq!(reclaimed[0].idempotency_key, "alice/1/IM", "key is stable across re-lease");
        assert_eq!(ledger.stats().lease_expired, 1);
        // The loser's late report is rejected.
        assert!(matches!(
            ledger.record_sent(&worker("w0"), id, t(151)),
            Err(LedgerError::StaleLease { .. })
        ));
        // The winner's stands.
        ledger.record_sent(&worker("w1"), id, t(152)).unwrap();
        assert_eq!(ledger.stats().sent, 1);
    }

    #[test]
    fn failed_sends_back_off_then_dead_letter() {
        let mut ledger = DeliveryLedger::open(quick_config()).unwrap();
        let id = ledger.enqueue(&user("alice"), 1, CommType::Sms, "+1", "x", t(0));
        let mut now = t(0);
        // max_attempts = 3: three failures park it in the DLQ.
        for attempt in 1..=3u32 {
            let work = ledger.lease(&worker("w0"), now, 10);
            assert_eq!(work.len(), 1, "attempt {attempt} should be leasable");
            assert_eq!(work[0].attempt, attempt);
            ledger.record_failed(&worker("w0"), id, "carrier down", now).unwrap();
            // Immediately after a failure the record is in backoff.
            if attempt < 3 {
                assert!(ledger.lease(&worker("w0"), now, 10).is_empty());
                now = now + ledger.backoff_delay(id, attempt) + SimDuration::from_millis(1);
            }
        }
        assert_eq!(ledger.counts().dead_lettered, 1);
        assert_eq!(ledger.stats().retried, 2);
        assert_eq!(ledger.stats().dead_lettered, 1);
        let dead: Vec<_> = ledger.dead_letters().collect();
        assert_eq!(dead[0].id, id);
        assert_eq!(dead[0].last_error.as_deref(), Some("carrier down"));
        // Requeue resets the budget.
        assert_eq!(ledger.requeue_dead_letters(now), 1);
        assert_eq!(ledger.counts().pending, 1);
        let work = ledger.lease(&worker("w0"), now, 10);
        assert_eq!(work[0].attempt, 1);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_exponential() {
        let a = DeliveryLedger::open(quick_config()).unwrap();
        let b = DeliveryLedger::open(quick_config()).unwrap();
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=5u32 {
            let d1 = a.backoff_delay(42, attempt);
            let d2 = b.backoff_delay(42, attempt);
            assert_eq!(d1, d2, "identical config => identical schedule");
            // Exponential base dominates the jitter (jitter < delay/2).
            if attempt <= 4 {
                assert!(d1 > prev, "attempt {attempt}: {d1:?} should exceed {prev:?}");
            }
            prev = d1;
        }
        // A different seed jitters differently somewhere in the schedule.
        let c = DeliveryLedger::open(LedgerConfig { jitter_seed: 999, ..quick_config() }).unwrap();
        let differs = (1..=5u32).any(|n| c.backoff_delay(42, n) != a.backoff_delay(42, n));
        assert!(differs, "seed must influence jitter");
    }

    #[test]
    fn dlq_bound_is_enforced() {
        let mut ledger = DeliveryLedger::open(LedgerConfig {
            max_attempts: 1,
            dlq_capacity: 3,
            ..quick_config()
        })
        .unwrap();
        for i in 0..5u64 {
            let id = ledger.enqueue(&user("u"), i, CommType::Im, "im:u", "x", t(0));
            ledger.lease(&worker("w"), t(i), 1);
            ledger.record_failed(&worker("w"), id, "no", t(i)).unwrap();
        }
        assert_eq!(ledger.counts().dead_lettered, 3, "DLQ holds at most its capacity");
        assert_eq!(ledger.stats().dead_lettered, 5);
        assert_eq!(ledger.stats().dlq_evicted, 2);
        // The *newest* dead letters are retained.
        let kept: Vec<u64> = ledger.dead_letters().map(|r| r.delivery).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn committed_records_survive_reopen_uncommitted_do_not() {
        let dir = temp_dir("durability");
        let config = LedgerConfig { dir: Some(dir.clone()), ..quick_config() };
        let mut ledger = DeliveryLedger::open(config.clone()).unwrap();
        let a = ledger.enqueue(&user("alice"), 1, CommType::Im, "im:alice", "keep", t(0));
        let b = ledger.enqueue(&user("bob"), 2, CommType::Email, "b@c", "keep too", t(0));
        ledger.commit().unwrap();
        ledger.lease(&worker("w0"), t(1), 1); // leases `a`
        ledger.record_sent(&worker("w0"), a, t(2)).unwrap();
        ledger.commit().unwrap();
        // A third record is enqueued but the process dies before commit.
        ledger.enqueue(&user("carol"), 3, CommType::Sms, "+1", "lost", t(3));
        drop(ledger);

        let ledger = DeliveryLedger::open(config).unwrap();
        let live: Vec<u64> = ledger.records().map(|r| r.id).collect();
        assert_eq!(live, vec![b], "alice sent, carol uncommitted, bob replays");
        assert_eq!(ledger.records().next().unwrap().state, RecordState::Pending);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parseable_but_unterminated_tail_never_reaches_memory() {
        let dir = temp_dir("torn-valid");
        let config = LedgerConfig { dir: Some(dir.clone()), ..quick_config() };
        let mut ledger = DeliveryLedger::open(config.clone()).unwrap();
        let a = ledger.enqueue(&user("alice"), 1, CommType::Im, "im:alice", "owed", t(0));
        ledger.commit().unwrap();
        drop(ledger);
        // Die mid-commit with a whole `S` record on disk but not its
        // newline: it parses, yet no commit ever covered it. Applying it
        // would leave a `Sent` that exists only in RAM — the delivery
        // reads as done until the next restart resurrects it.
        let path = segment_path(&dir, 0);
        let committed = std::fs::read_to_string(&path).unwrap();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(format!("S\t{a}").as_bytes()).unwrap();
        drop(file);

        for pass in ["first open", "reopen"] {
            let ledger = DeliveryLedger::open(config.clone()).unwrap();
            let live: Vec<(u64, RecordState)> = ledger.records().map(|r| (r.id, r.state)).collect();
            assert_eq!(live, vec![(a, RecordState::Pending)], "{pass}: the send is still owed");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), committed, "{pass}: file");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leases_and_backoffs_reset_across_reopen() {
        let dir = temp_dir("leases");
        let config = LedgerConfig { dir: Some(dir.clone()), ..quick_config() };
        let mut ledger = DeliveryLedger::open(config.clone()).unwrap();
        let a = ledger.enqueue(&user("alice"), 1, CommType::Im, "im:alice", "x", t(0));
        let b = ledger.enqueue(&user("bob"), 2, CommType::Im, "im:bob", "y", t(0));
        ledger.lease(&worker("w0"), t(0), 1); // holds `a`
        ledger.lease(&worker("w1"), t(0), 1); // holds `b`
        ledger.record_failed(&worker("w1"), b, "flaky", t(1)).unwrap();
        ledger.commit().unwrap();
        drop(ledger); // w0 dies holding a's lease

        let mut ledger = DeliveryLedger::open(config).unwrap();
        // Both records lease immediately: the old process's lease and
        // backoff clocks do not survive.
        let work = ledger.lease(&worker("w9"), t(0), 10);
        let ids: Vec<u64> = work.iter().map(|w| w.id).collect();
        assert!(ids.contains(&a) && ids.contains(&b), "got {ids:?}");
        // Attempt counts did survive.
        let b_work = work.iter().find(|w| w.id == b).unwrap();
        assert_eq!(b_work.attempt, 2);
        let b_rec = ledger.records().find(|r| r.id == b);
        assert!(b_rec.is_none() || b_rec.unwrap().state == RecordState::Leased);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dlq_and_requeue_survive_reopen() {
        let dir = temp_dir("dlq");
        let config = LedgerConfig {
            dir: Some(dir.clone()),
            max_attempts: 1,
            ..quick_config()
        };
        let mut ledger = DeliveryLedger::open(config.clone()).unwrap();
        let id = ledger.enqueue(&user("alice"), 1, CommType::Im, "im:alice", "x", t(0));
        ledger.lease(&worker("w"), t(0), 1);
        ledger.record_failed(&worker("w"), id, "dead", t(0)).unwrap();
        ledger.commit().unwrap();
        drop(ledger);

        let mut ledger = DeliveryLedger::open(config.clone()).unwrap();
        assert_eq!(ledger.counts().dead_lettered, 1);
        assert_eq!(ledger.requeue_dead_letters(t(0)), 1);
        ledger.commit().unwrap();
        drop(ledger);

        let ledger = DeliveryLedger::open(config).unwrap();
        assert_eq!(ledger.counts().dead_lettered, 0);
        assert_eq!(ledger.counts().pending, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_compacts_sent_history_and_is_crc_guarded() {
        let dir = temp_dir("rotate");
        let config = LedgerConfig {
            dir: Some(dir.clone()),
            segment_max_bytes: 256,
            ..quick_config()
        };
        let mut ledger = DeliveryLedger::open(config.clone()).unwrap();
        // Dead-letter `bob` first: he survives every rotation inside the
        // checksummed `R` prefix while the churn below compacts away.
        let bob = ledger.enqueue(&user("bob"), 99, CommType::Email, "b@c", "keep me", t(0));
        let mut now = t(0);
        for attempt in 1..=3u32 {
            assert_eq!(ledger.lease(&worker("w"), now, 1).len(), 1);
            ledger.record_failed(&worker("w"), bob, "down", now).unwrap();
            now = now + ledger.backoff_delay(bob, attempt) + SimDuration::from_millis(1);
        }
        assert_eq!(ledger.counts().dead_lettered, 1);
        ledger.commit().unwrap();
        for i in 0..50u64 {
            let id = ledger.enqueue(&user("alice"), i, CommType::Im, "im:alice", "churn", t(i));
            ledger.lease(&worker("w"), t(i), 1);
            ledger.record_sent(&worker("w"), id, t(i)).unwrap();
            ledger.commit().unwrap();
        }
        assert!(ledger.stats().segments_rotated > 0);
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1, "old segments deleted: {segments:?}");
        drop(ledger);
        let ledger = DeliveryLedger::open(config.clone()).unwrap();
        assert_eq!(ledger.records().count(), 0, "sent churn compacted away");
        let dead: Vec<u64> = ledger.dead_letters().map(|r| r.id).collect();
        assert_eq!(dead, vec![bob]);
        drop(ledger);
        // Flip a byte inside the rotation prefix: the checksum must trip.
        let (_, seg) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&seg).unwrap();
        if let Some(pos) = bytes.iter().position(|&b| b == b'b') {
            bytes[pos] ^= 0x02;
            std::fs::write(&seg, &bytes).unwrap();
            // The damaged segment is the last one, so the torn-tail
            // tolerance swallows it only if the K line no longer parses;
            // a parseable-but-wrong checksum is corruption.
            match DeliveryLedger::open(config) {
                Err(LedgerError::Corrupt { reason, .. }) => {
                    assert!(reason.contains("checksum"), "{reason}")
                }
                other => panic!("expected checksum corruption, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn force_expire_makes_leases_reclaimable() {
        let mut ledger = DeliveryLedger::open(quick_config()).unwrap();
        ledger.enqueue(&user("alice"), 1, CommType::Im, "im:alice", "x", t(0));
        assert_eq!(ledger.lease(&worker("w0"), t(0), 1).len(), 1);
        assert!(ledger.lease(&worker("w1"), t(1), 1).is_empty());
        ledger.force_expire_leases();
        assert_eq!(ledger.lease(&worker("w1"), t(1), 1).len(), 1);
    }

    #[test]
    fn escaped_fields_round_trip_on_disk() {
        let dir = temp_dir("escape");
        let config = LedgerConfig { dir: Some(dir.clone()), ..quick_config() };
        let tricky = user("we\tird\nname");
        let mut ledger = DeliveryLedger::open(config.clone()).unwrap();
        ledger.enqueue(&tricky, 1, CommType::Im, "im:a\tb", "line\nbreak", t(0));
        ledger.commit().unwrap();
        drop(ledger);
        let ledger = DeliveryLedger::open(config).unwrap();
        let record = ledger.records().next().unwrap();
        assert_eq!(record.user, tricky);
        assert_eq!(record.address, "im:a\tb");
        assert_eq!(record.text, "line\nbreak");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn idle_commit_is_free() {
        let mut ledger = DeliveryLedger::open(quick_config()).unwrap();
        ledger.commit().unwrap();
        ledger.commit().unwrap();
        assert_eq!(ledger.stats().commit_batches, 0);
    }
}
