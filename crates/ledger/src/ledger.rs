//! The ledger state machine and its record codec over
//! [`simba_core::journal`].
//!
//! Payloads (free text escaped with [`simba_core::wal::escape`]):
//!
//! ```text
//! R \t id \t user \t delivery \t channel \t enqueued_ms \t state \t attempts \t not_before_ms \t address \t text \t error
//! L \t id \t worker \t expires_ms \t attempts      lease re-granted
//! S \t id                                         sent (terminal)
//! F \t id \t attempts \t not_before_ms \t error     send failed, retry scheduled
//! D \t id \t error                                dead-lettered
//! Q \t id                                         requeued from the DLQ
//! X \t id                                         retracted before any claim (terminal)
//! ```
//!
//! `R` is a record's whole image: an enqueue journals one, and a
//! rotation carries one per live or dead-lettered record. A later image
//! of an id replaces the earlier one.
//!
//! An enqueue's image already counts the record's first lease grant
//! (`attempts` 1): the commit that makes the handoff durable makes that
//! grant durable with it, so the worker that claims the record writes no
//! `L` frame and needs no commit of its own before the send. Only
//! re-grants — after a failure, an expiry or a reopen — journal `L`.

use simba_core::address::CommType;
use simba_core::journal::{Frames, Journal};
use simba_core::subscription::UserId;
use simba_core::wal::{escape, unescape, WalError};
use simba_sim::{SimDuration, SimTime};
use simba_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Default segment-rotation threshold (bytes of one segment file).
pub const DEFAULT_SEGMENT_MAX_BYTES: u64 = 4 * 1024 * 1024;

/// The handle shape the worker pool shares: an uncontended mutex around
/// the ledger (workers lock it briefly to lease/record, never across a
/// send).
pub type SharedLedger = Arc<Mutex<DeliveryLedger>>;

/// Identifies a ledger worker for lease ownership checks. Shared: every
/// lease a worker holds names it without copying the name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkerId(pub Arc<str>);

impl WorkerId {
    /// A worker id from anything stringy.
    pub fn new(s: impl Into<Arc<str>>) -> Self {
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
/// channel, address)` destination of one user. Its strings are shared
/// with the send command that produced it and with every [`LeasedWork`]
/// cut from it.
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
    pub address: Arc<str>,
    /// The alert text to send.
    pub text: Arc<str>,
    /// Stable idempotency key (`user/delivery/channel/address`):
    /// identical on every retry and re-lease, so channel adapters can
    /// dedupe.
    pub idempotency_key: Arc<str>,
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
    pub address: Arc<str>,
    /// The alert text.
    pub text: Arc<str>,
    /// The stable idempotency key to stamp on the outbound send.
    pub idempotency_key: Arc<str>,
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

impl From<WalError> for LedgerError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Io(e) => LedgerError::Io(e),
            WalError::Corrupt { line, reason } => LedgerError::Corrupt { line, reason },
            WalError::UnknownId(id) => LedgerError::UnknownRecord(id),
        }
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
    /// Of `leased`, the first grants that rode their record's `R` image:
    /// claimed without a frame of their own.
    pub handed: u64,
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
    /// Never-leased records withdrawn because their handoff commit failed.
    pub retracted: u64,
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

/// The durable `alert_deliveries` queue.
///
/// Not internally synchronized; the worker pool wraps it in
/// [`SharedLedger`] and locks briefly around each operation.
#[derive(Debug)]
pub struct DeliveryLedger {
    journal: Journal,
    lease_duration: SimDuration,
    base_backoff: SimDuration,
    max_backoff: SimDuration,
    max_attempts: u32,
    dlq_capacity: usize,
    jitter_seed: u64,
    /// Live (non-terminal, non-DLQ) records by id.
    live: BTreeMap<u64, LedgerRecord>,
    /// Stable-key index over live records, for the one-record-per-
    /// `(delivery, channel, address)` upsert contract.
    by_key: HashMap<Arc<str>, u64>,
    /// Where [`DeliveryLedger::enqueue_shared`] spells a key before it
    /// knows whether the key is new.
    key_scratch: String,
    /// Enqueued records whose first grant rode their `R` image, oldest
    /// first, until a worker claims them.
    handed: VecDeque<u64>,
    /// `(not_before, id)` over the other Pending/Retrying records.
    ready: BTreeSet<(SimTime, u64)>,
    /// `(expires_at, id)` over Leased records.
    leased: BTreeSet<(SimTime, u64)>,
    /// The bounded dead-letter queue, oldest first.
    dlq: VecDeque<LedgerRecord>,
    next_id: u64,
    stats: LedgerStats,
    telemetry: Telemetry,
}

impl DeliveryLedger {
    /// Opens (or creates) the ledger described by `config`, replaying
    /// what the journal holds. Leases found there belong to workers of a
    /// previous process and are reclaimed to Pending; retry backoffs are
    /// reset (the clock base changed). A torn tail — the artifact of
    /// dying mid-commit — never reaches memory; nothing observable
    /// depended on it by the group-commit discipline.
    ///
    /// # Errors
    ///
    /// I/O failure, or corruption before the tail (including a rotation
    /// checksum mismatch).
    pub fn open(config: LedgerConfig) -> Result<Self, LedgerError> {
        let mut ledger = DeliveryLedger {
            journal: Journal::in_memory(),
            lease_duration: config.lease_duration,
            base_backoff: config.base_backoff,
            max_backoff: config.max_backoff,
            max_attempts: config.max_attempts.max(1),
            dlq_capacity: config.dlq_capacity.max(1),
            jitter_seed: config.jitter_seed,
            live: BTreeMap::new(),
            by_key: HashMap::new(),
            key_scratch: String::new(),
            handed: VecDeque::new(),
            ready: BTreeSet::new(),
            leased: BTreeSet::new(),
            dlq: VecDeque::new(),
            next_id: 0,
            stats: LedgerStats::default(),
            telemetry: Telemetry::disabled(),
        };
        let Some(dir) = config.dir else {
            return Ok(ledger);
        };
        ledger.journal =
            Journal::open(dir, config.segment_max_bytes, |payload| ledger.replay(payload))?;
        // A lease in the journal was held by a worker of the process that
        // wrote it; reopening means that process is gone, so every lease
        // is reclaimable now.
        for (&id, record) in &mut ledger.live {
            if record.state == RecordState::Leased {
                record.state = RecordState::Pending;
                record.lease = None;
                record.not_before = SimTime::ZERO;
                ledger.ready.insert((SimTime::ZERO, id));
            }
        }
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

    /// The stable idempotency key for a `(user, delivery, channel,
    /// address)` attempt — identical across retries, re-leases and
    /// restarts, so an adapter can recognise a redelivery of a send
    /// still in flight. A fresh enqueue after the record concluded
    /// carries the same key, and no adapter remembers it by then.
    pub fn idempotency_key(user: &UserId, delivery: u64, channel: CommType, address: &str) -> String {
        let mut key = String::new();
        write_key(&mut key, user, delivery, channel, address);
        key
    }

    /// Enqueues a channel attempt. One live record exists per `(user,
    /// delivery, channel, address)`: enqueueing a destination that
    /// already has a live record returns the existing id (replace/upsert
    /// semantics, like Trace's `alert_deliveries` rows). The record is *not* durable
    /// until the next [`DeliveryLedger::commit`].
    ///
    /// A fresh record is granted its first lease here: its `R` image
    /// counts the attempt, and the next [`DeliveryLedger::lease`] claims
    /// it without journalling anything, so the commit that makes the
    /// handoff durable makes the grant durable too. A crash before the
    /// claim leaves an attempt counted that never started; the reopened
    /// ledger grants the record again as attempt 2.
    pub fn enqueue(
        &mut self,
        user: &UserId,
        delivery: u64,
        channel: CommType,
        address: &str,
        text: &str,
        now: SimTime,
    ) -> u64 {
        self.enqueue_shared(user, delivery, channel, address.into(), text.into(), now)
    }

    /// [`DeliveryLedger::enqueue`] for a caller that already holds the
    /// address and text as shared strings (the shard worker: they are the
    /// address book's and the alert's): the record keeps those, and a
    /// fresh record allocates its idempotency key and nothing else.
    pub fn enqueue_shared(
        &mut self,
        user: &UserId,
        delivery: u64,
        channel: CommType,
        address: Arc<str>,
        text: Arc<str>,
        now: SimTime,
    ) -> u64 {
        self.key_scratch.clear();
        write_key(&mut self.key_scratch, user, delivery, channel, &address);
        if let Some(&id) = self.by_key.get(self.key_scratch.as_str()) {
            return id;
        }
        let key: Arc<str> = self.key_scratch.as_str().into();
        let id = self.next_id;
        self.next_id += 1;
        let record = LedgerRecord {
            id,
            user: user.clone(),
            delivery,
            channel,
            address,
            text,
            idempotency_key: Arc::clone(&key),
            state: RecordState::Pending,
            attempts: 1,
            not_before: SimTime::ZERO,
            lease: None,
            enqueued_at: now,
            last_error: None,
        };
        self.journal.append(|out| encode_record(out, &record));
        self.live.insert(id, record);
        self.by_key.insert(key, id);
        self.handed.push_back(id);
        self.stats.enqueued += 1;
        self.counter("ledger.enqueued");
        id
    }

    /// Withdraws a record no worker has claimed yet, for the enqueuer
    /// whose [`DeliveryLedger::commit`] just failed (call it before
    /// releasing the lock the enqueue was made under): the enqueuer is
    /// about to report the attempt failed, so the record must not reach a
    /// worker through someone else's later commit. The terminal frame
    /// rides the same buffered batch as the record's image, so whichever
    /// commit finally lands both replays to nothing.
    ///
    /// Returns `false`, changing nothing, when the record is unknown or
    /// a worker has claimed it: enqueue returned an existing record that
    /// an earlier handoff committed, and a worker owns its outcome.
    pub fn retract(&mut self, id: u64) -> bool {
        let Some(at) = self.handed.iter().rposition(|&held| held == id) else {
            return false;
        };
        self.handed.remove(at);
        if let Some(record) = self.live.remove(&id) {
            self.by_key.remove(&record.idempotency_key);
        }
        self.journal.append(|out| {
            let _ = write!(out, "X\t{id}");
        });
        self.stats.retracted += 1;
        true
    }

    /// Grants `worker` up to `batch` time-bounded leases. Expired leases
    /// are reclaimed first (counted under `ledger.lease_expired`) — any
    /// worker resumes any lease. Then handed records are claimed, oldest
    /// first: their grant rode their `R` image, so a claim journals
    /// nothing. Then ready records whose `not_before` has passed are
    /// granted in backoff order, one `L` frame each. Records that
    /// exhausted `max_attempts` while leased dead-letter instead of being
    /// granted.
    ///
    /// `L` frames buffer in the journal like any other transition; the
    /// worker pool commits before performing the sends, which costs
    /// nothing when the batch holds only claims and no outcome is
    /// buffered.
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
        // Phase 2: claim handed records.
        let mut granted = Vec::new();
        while granted.len() < batch {
            let Some(id) = self.handed.pop_front() else { break };
            granted.extend(self.hold(worker, id, now, false));
        }
        // Phase 3: grant from the ready queue.
        while granted.len() < batch {
            let Some(&(not_before, id)) = self.ready.first() else { break };
            if not_before > now {
                break;
            }
            self.ready.remove(&(not_before, id));
            granted.extend(self.hold(worker, id, now, true));
        }
        granted
    }

    /// Leases live record `id` to `worker` for `lease_duration`. A fresh
    /// grant counts an attempt and journals it as `L`; a claim takes the
    /// attempt the record's `R` image already counted and writes nothing.
    fn hold(&mut self, worker: &WorkerId, id: u64, now: SimTime, fresh: bool) -> Option<LeasedWork> {
        let expires_at = now + self.lease_duration;
        let record = self.live.get_mut(&id)?;
        record.state = RecordState::Leased;
        record.attempts += u32::from(fresh);
        record.lease = Some(Lease { worker: worker.clone(), expires_at });
        let attempts = record.attempts;
        let work = LeasedWork {
            id,
            channel: record.channel,
            address: Arc::clone(&record.address),
            text: Arc::clone(&record.text),
            idempotency_key: Arc::clone(&record.idempotency_key),
            attempt: attempts,
        };
        if fresh {
            self.journal.append(|out| {
                let _ = write!(out, "L\t{id}\t{}\t{}\t{attempts}", escape(&worker.0), expires_at.as_millis());
            });
        } else {
            self.stats.handed += 1;
        }
        self.leased.insert((expires_at, id));
        self.stats.leased += 1;
        self.counter("ledger.leased");
        Some(work)
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
                holder: lease.as_ref().map(|l| l.worker.0.to_string()),
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
        self.journal.append(|out| {
            let _ = write!(out, "S\t{id}");
        });
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
        self.journal.append(|out| {
            let _ = write!(out, "F\t{id}\t{attempts}\t{}\t{}", not_before.as_millis(), escape(error));
        });
        self.ready.insert((not_before, id));
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
        self.journal.append(|out| {
            let _ = write!(out, "D\t{id}\t{}", escape(error));
        });
        self.dlq.push_back(record);
        while self.dlq.len() > self.dlq_capacity {
            self.dlq.pop_front();
            self.stats.dlq_evicted += 1;
        }
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
            self.journal.append(|out| {
                let _ = write!(out, "Q\t{id}");
            });
            self.by_key.insert(record.idempotency_key.clone(), id);
            self.ready.insert((now, id));
            self.live.insert(id, record);
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

    /// One group commit ([`Journal::commit`]): every buffered transition
    /// becomes durable together; a rotation carries the live records and
    /// the DLQ, so Sent history compacts away.
    ///
    /// # Errors
    ///
    /// I/O failure leaves the whole batch non-durable and buffered for
    /// the retry.
    pub fn commit(&mut self) -> Result<(), LedgerError> {
        let before = self.journal.commits();
        let result = self.journal.commit(|out| snapshot(&self.live, &self.dlq, out));
        if self.journal.commits() > before {
            self.counter("ledger.commit_batch");
        }
        Ok(result?)
    }

    /// Compacts history down to the live records and the DLQ now
    /// ([`Journal::rotate`]).
    ///
    /// # Errors
    ///
    /// I/O failure leaves the ledger readable.
    pub fn rotate(&mut self) -> Result<(), LedgerError> {
        Ok(self.journal.rotate(|out| snapshot(&self.live, &self.dlq, out))?)
    }

    /// Arms [`Journal::fail_next_write_after`]: the next commit (or
    /// rotation) writes `bytes` bytes, then fails.
    pub fn inject_write_failure(&mut self, bytes: usize) {
        self.journal.fail_next_write_after(bytes);
    }

    fn replay(&mut self, payload: &str) -> Result<(), String> {
        fn number(fields: &mut std::str::Split<'_, char>, what: &str) -> Result<u64, String> {
            fields.next().and_then(|s| s.parse().ok()).ok_or_else(|| format!("bad {what}"))
        }
        let mut fields = payload.split('\t');
        let tag = fields.next().unwrap_or_default();
        let id = number(&mut fields, "id")?;
        self.next_id = self.next_id.max(id + 1);
        match tag {
            "R" => {
                let record = decode_record(payload).ok_or("bad record image")?;
                // Drop any earlier image of this id (an interrupted
                // rotation leaves the old segments behind).
                if let Some(prev) = self.live.remove(&id) {
                    self.ready.remove(&(prev.not_before, id));
                    self.by_key.remove(&prev.idempotency_key);
                }
                self.dlq.retain(|r| r.id != id);
                if record.state == RecordState::DeadLettered {
                    self.park(record);
                } else {
                    self.by_key.insert(record.idempotency_key.clone(), id);
                    self.ready.insert((SimTime::ZERO, id));
                    self.live.insert(id, record);
                }
            }
            "L" => {
                let worker = fields.next().map(unescape).ok_or("missing worker")?;
                let expires_ms = number(&mut fields, "expiry")?;
                let attempts = number(&mut fields, "attempts")? as u32;
                if let Some(record) = self.live.get_mut(&id) {
                    self.ready.remove(&(record.not_before, id));
                    record.state = RecordState::Leased;
                    record.attempts = attempts;
                    record.lease = Some(Lease {
                        worker: WorkerId::new(worker),
                        expires_at: SimTime::from_millis(expires_ms),
                    });
                }
            }
            "S" | "X" => {
                if let Some(record) = self.live.remove(&id) {
                    self.ready.remove(&(record.not_before, id));
                    self.by_key.remove(&record.idempotency_key);
                }
            }
            "F" => {
                let attempts = number(&mut fields, "attempts")? as u32;
                let _not_before = number(&mut fields, "not_before")?;
                let error = fields.next().map(unescape).unwrap_or_default();
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
            }
            "D" => {
                let error = fields.next().map(unescape);
                if let Some(mut record) = self.live.remove(&id) {
                    self.ready.remove(&(record.not_before, id));
                    self.by_key.remove(&record.idempotency_key);
                    record.state = RecordState::DeadLettered;
                    record.lease = None;
                    if error.is_some() {
                        record.last_error = error;
                    }
                    self.park(record);
                }
            }
            "Q" => {
                if let Some(mut record) =
                    self.dlq.iter().position(|r| r.id == id).and_then(|pos| self.dlq.remove(pos))
                {
                    record.state = RecordState::Pending;
                    record.attempts = 0;
                    record.not_before = SimTime::ZERO;
                    record.lease = None;
                    self.by_key.insert(record.idempotency_key.clone(), id);
                    self.ready.insert((SimTime::ZERO, id));
                    self.live.insert(id, record);
                }
            }
            _ => return Err("unknown tag".into()),
        }
        Ok(())
    }

    /// Replay's bounded push onto the DLQ.
    fn park(&mut self, record: LedgerRecord) {
        self.dlq.push_back(record);
        while self.dlq.len() > self.dlq_capacity {
            self.dlq.pop_front();
        }
    }

    /// Whether a commit is pending.
    pub fn is_dirty(&self) -> bool {
        self.journal.is_dirty()
    }

    /// No live work remains (pending, leased, or retrying); the DLQ may
    /// still hold dead letters. The worker pool drains until this holds.
    pub fn is_drained(&self) -> bool {
        self.live.is_empty() && !self.journal.is_dirty()
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
        LedgerStats {
            commit_batches: self.journal.commits(),
            segments_rotated: self.journal.rotations(),
            ..self.stats
        }
    }
}

/// Spells the `user/delivery/channel/address` idempotency key onto `out`.
fn write_key(out: &mut String, user: &UserId, delivery: u64, channel: CommType, address: &str) {
    let _ = write!(out, "{}/{}/{}/{}", user.0, delivery, channel, address);
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

fn snapshot(live: &BTreeMap<u64, LedgerRecord>, dlq: &VecDeque<LedgerRecord>, out: &mut Frames) {
    for record in live.values().chain(dlq) {
        out.push(|line| encode_record(line, record));
    }
}

/// The `R` image — what an enqueue journals and what a rotation carries.
fn encode_record(out: &mut String, record: &LedgerRecord) {
    let _ = write!(
        out,
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

fn decode_record(payload: &str) -> Option<LedgerRecord> {
    let mut fields = payload.strip_prefix("R\t")?.split('\t');
    let id = fields.next()?.parse().ok()?;
    let user = UserId::new(unescape(fields.next()?));
    let delivery = fields.next()?.parse().ok()?;
    let channel = CommType::from_token(fields.next()?)?;
    let enqueued_at = SimTime::from_millis(fields.next()?.parse().ok()?);
    let state = RecordState::parse(fields.next()?)?;
    let attempts = fields.next()?.parse().ok()?;
    let _not_before: u64 = fields.next()?.parse().ok()?;
    let address: Arc<str> = unescape(fields.next()?).into();
    let text = unescape(fields.next()?).into();
    let error = unescape(fields.next()?);
    Some(LedgerRecord {
        id,
        idempotency_key: DeliveryLedger::idempotency_key(&user, delivery, channel, &address).into(),
        user,
        delivery,
        channel,
        address,
        text,
        // Leases and retry clocks do not survive the writing process;
        // both resolve to eligible-now.
        state: match state {
            RecordState::Leased | RecordState::Retrying => RecordState::Pending,
            s => s,
        },
        attempts,
        not_before: SimTime::ZERO,
        lease: None,
        enqueued_at,
        last_error: (!error.is_empty()).then_some(error),
    })
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
        assert_eq!(&*work[0].idempotency_key, "alice/7/IM/im:alice");
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
    fn enqueue_upserts_one_record_per_destination() {
        let mut ledger = DeliveryLedger::open(quick_config()).unwrap();
        let a = ledger.enqueue(&user("alice"), 7, CommType::Im, "im:alice", "hi", t(0));
        let b = ledger.enqueue(&user("alice"), 7, CommType::Im, "im:alice", "hi again", t(5));
        assert_eq!(a, b, "same (user, delivery, channel, address) upserts the live record");
        let c = ledger.enqueue(&user("alice"), 7, CommType::Email, "a@b", "hi", t(5));
        assert_ne!(a, c, "another channel is another record");
        let d = ledger.enqueue(&user("alice"), 7, CommType::Im, "im2:alice", "hi", t(5));
        assert_ne!(a, d, "another address of the same channel is another record");
        assert_eq!(ledger.stats().enqueued, 3);
    }

    #[test]
    fn a_handed_records_first_grant_rides_its_image() {
        let dir = temp_dir("handed");
        let config = LedgerConfig { dir: Some(dir.clone()), ..quick_config() };
        let mut ledger = DeliveryLedger::open(config.clone()).unwrap();
        let id = ledger.enqueue(&user("ada"), 1, CommType::Im, "im:ada", "x", t(0));
        ledger.commit().unwrap();
        let work = ledger.lease(&worker("w0"), t(1), 8);
        assert_eq!((work.len(), work[0].attempt), (1, 1));
        assert!(!ledger.is_dirty(), "a claim writes nothing");
        ledger.commit().unwrap();
        let stats = ledger.stats();
        assert_eq!(stats.commit_batches, 1, "the handoff's commit is the grant's");
        assert_eq!((stats.leased, stats.handed), (1, 1));
        drop(ledger); // the process dies mid-send

        // The image counted the attempt; its re-grant is an `L` frame.
        let mut ledger = DeliveryLedger::open(config).unwrap();
        assert_eq!(ledger.records().next().unwrap().attempts, 1);
        let work = ledger.lease(&worker("w1"), t(0), 8);
        assert_eq!((work[0].id, work[0].attempt), (id, 2));
        assert!(ledger.is_dirty(), "a re-grant is journalled");
        assert_eq!(ledger.stats().handed, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_retracted_record_is_never_leased_and_does_not_survive_reopen() {
        let dir = temp_dir("retract");
        let config = LedgerConfig { dir: Some(dir.clone()), ..quick_config() };
        let mut ledger = DeliveryLedger::open(config.clone()).unwrap();
        let kept = ledger.enqueue(&user("ada"), 1, CommType::Im, "im:ada", "kept", t(0));
        ledger.commit().unwrap();

        // The handoff commit fails: the enqueuer retracts, and the retry
        // that makes the batch durable carries image and retraction both.
        let gone = ledger.enqueue(&user("ada"), 2, CommType::Im, "im:ada", "gone", t(1));
        ledger.inject_write_failure(3);
        assert!(ledger.commit().is_err());
        assert!(ledger.retract(gone));
        assert!(!ledger.retract(gone), "already withdrawn");
        let granted = ledger.lease(&worker("w1"), t(2), 8);
        assert_eq!(granted.iter().map(|w| w.id).collect::<Vec<_>>(), [kept]);
        ledger.commit().unwrap();
        assert!(!ledger.retract(kept), "a claimed record belongs to its worker");
        assert_eq!(ledger.stats().retracted, 1);
        // The pair may be handed off afresh (the buddy's next block could
        // name the same channel).
        let again = ledger.enqueue(&user("ada"), 2, CommType::Im, "im:ada", "gone", t(3));
        assert!(again > gone);
        assert!(ledger.retract(again));
        ledger.commit().unwrap();
        drop(ledger);

        let ledger = DeliveryLedger::open(config).unwrap();
        assert_eq!(ledger.records().map(|r| r.id).collect::<Vec<_>>(), [kept]);
        std::fs::remove_dir_all(&dir).unwrap();
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
        assert_eq!(&*reclaimed[0].idempotency_key, "alice/1/IM/im:alice", "key is stable across re-lease");
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
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "old segments deleted");
        drop(ledger);
        let ledger = DeliveryLedger::open(config.clone()).unwrap();
        assert_eq!(ledger.records().count(), 0, "sent churn compacted away");
        let dead: Vec<u64> = ledger.dead_letters().map(|r| r.id).collect();
        assert_eq!(dead, vec![bob]);
        drop(ledger);
        // Flip a byte inside the carried snapshot: the checksum must trip.
        let seg = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let mut bytes = std::fs::read(&seg).unwrap();
        let pos = bytes.windows(3).position(|w| w == b"bob").unwrap();
        bytes[pos] ^= 0x02;
        std::fs::write(&seg, &bytes).unwrap();
        match DeliveryLedger::open(config) {
            Err(LedgerError::Corrupt { reason, .. }) => assert!(reason.contains("checksum"), "{reason}"),
            other => panic!("expected checksum corruption, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_rotation_never_brings_a_sent_record_back() {
        let dir = temp_dir("rotate-fault");
        let config = LedgerConfig { dir: Some(dir.clone()), ..quick_config() };
        let mut ledger = DeliveryLedger::open(config.clone()).unwrap();
        let a = ledger.enqueue(&user("alice"), 1, CommType::Im, "im:alice", "sent later", t(0));
        let b = ledger.enqueue(&user("bob"), 2, CommType::Im, "im:bob", "still owed", t(0));
        ledger.commit().unwrap();
        ledger.inject_write_failure(40);
        assert!(matches!(ledger.rotate(), Err(LedgerError::Io(_))));
        // Life goes on in the old segment: alice's delivery completes.
        assert_eq!(ledger.lease(&worker("w"), t(1), 1)[0].id, a);
        ledger.record_sent(&worker("w"), a, t(2)).unwrap();
        ledger.commit().unwrap();
        let owed = |ledger: &DeliveryLedger| ledger.records().map(|r| r.id).collect::<Vec<_>>();
        assert_eq!(owed(&DeliveryLedger::open(config.clone()).unwrap()), [b], "alice stays sent");
        // The next attempt succeeds and leaves exactly one segment.
        ledger.rotate().unwrap();
        assert_eq!(ledger.stats().segments_rotated, 1);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        assert_eq!(owed(&DeliveryLedger::open(config).unwrap()), [b]);
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
        assert_eq!(&*record.address, "im:a\tb");
        assert_eq!(&*record.text, "line\nbreak");
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
