//! Crash points enumerated, not sampled: one harness over the three
//! record codecs that sit on `simba::core::journal` — the shard log, the
//! delivery ledger and the rules log — driven through their public APIs.
//!
//! Each log runs a script of single-record mutations: two commits, a
//! reopen under a one-byte segment cap (so the next commit rotates), a
//! reopen under no cap, and at least two more commits. What is left is
//! one segment: the rotation's snapshot, its `K` trailer, and one frame
//! per later mutation. Two sweeps follow.
//!
//! *Truncation*: for every byte length of that segment, open must
//! succeed, hold exactly the records whose frames lie wholly inside the
//! length (the state the script had after that many mutations), cut the
//! file back to that frame boundary, see the same thing on a second open,
//! and issue fresh ids that collide with nothing that survived.
//!
//! *Flip*: every bit of every byte before the final line, flipped alone,
//! yields `Corrupt` or the undamaged state — never a different one.

use simba::core::address::CommType;
use simba::core::alert::IncomingAlert;
use simba::core::shardlog::{ShardLog, ShardLogConfig};
use simba::core::subscription::UserId;
use simba::core::wal::WalError;
use simba::ledger::{DeliveryLedger, LedgerConfig, LedgerError, RecordState, WorkerId};
use simba::rules::{DigestConfig, RuleSpec, RulesLog, RulesLogConfig};
use simba::sim::{SimDuration, SimTime};
use std::path::{Path, PathBuf};

/// The one segment a finished script leaves behind.
const SEGMENT: &str = "seg-000001.log";

/// One journalled log under test. Mutation `op` must journal exactly one
/// record; `commits_after` says where the script commits.
trait Subject: Sized {
    const NAME: &'static str;
    /// Mutations before the first reopen, before the second, and in all.
    const PHASES: [usize; 3];
    /// `Err(true)` is corruption; `Err(false)` any other failure.
    fn open(dir: &Path, segment_max_bytes: u64) -> Result<Self, bool>;
    /// Applies mutation `op`; returns the record id it names.
    fn apply(&mut self, op: usize) -> u64;
    fn commits_after(op: usize) -> bool;
    fn commit(&mut self);
    /// The durable state, normalised for what a reopen resets.
    fn digest(&self) -> String;
    fn live_ids(&self) -> Vec<u64>;
    /// Issues (and returns) a fresh id, as the next real mutation would.
    fn fresh_id(&mut self) -> u64;
}

fn wal_corrupt(e: WalError) -> bool {
    matches!(e, WalError::Corrupt { .. })
}

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

// ---------------------------------------------------------------- shard log

impl Subject for ShardLog {
    const NAME: &'static str = "shardlog";
    const PHASES: [usize; 3] = [4, 5, 9];

    fn open(dir: &Path, segment_max_bytes: u64) -> Result<Self, bool> {
        ShardLog::open(ShardLogConfig { dir: Some(dir.into()), segment_max_bytes }).map_err(wal_corrupt)
    }

    fn apply(&mut self, op: usize) -> u64 {
        let (alice, bob) = (UserId::new("alice"), UserId::new("bo\tb"));
        // Appends take ids 0, 1, 2… in script order; marks retire the
        // first, second and fourth of them.
        let (user, body, mark) = match op {
            0 => (&alice, "first", None),
            1 => (&bob, "tab\tand\nnewline", None),
            2 => (&alice, "", Some(0)),
            3 => (&alice, "third", None),
            4 => (&bob, "carried by the rotation", None),
            5 => (&bob, "", Some(1)),
            6 => (&alice, "after the rotation", None),
            7 => (&bob, "", Some(3)),
            8 => (&bob, "last", None),
            _ => unreachable!(),
        };
        match mark {
            Some(id) => self.mark_processed(user, id).map(|()| id).unwrap(),
            None => {
                let alert = IncomingAlert::from_email("gw", "sen\\der", "sub\tject", body, t(op as u64));
                self.append(user, &alert, t(10 + op as u64)).unwrap()
            }
        }
    }

    fn commits_after(op: usize) -> bool {
        // A record is written by the commit after its append, its mark by
        // the next one after that: committing after op 6 keeps alice's
        // image ahead of op 7's mark, one frame per mutation in order.
        matches!(op, 1 | 3 | 4 | 5 | 6 | 7 | 8)
    }

    fn commit(&mut self) {
        ShardLog::commit(self).unwrap();
    }

    fn digest(&self) -> String {
        let mut users = self.users_with_unprocessed();
        users.sort();
        users.iter().map(|user| format!("{user}: {:?}\n", self.unprocessed_for(user))).collect()
    }

    fn live_ids(&self) -> Vec<u64> {
        let users = self.users_with_unprocessed();
        users.iter().flat_map(|u| self.unprocessed_for(u)).map(|r| r.id).collect()
    }

    fn fresh_id(&mut self) -> u64 {
        self.append(&UserId::new("probe"), &IncomingAlert::from_im("gw", "probe", t(99)), t(99)).unwrap()
    }
}

// ------------------------------------------------------------------- ledger

impl Subject for DeliveryLedger {
    const NAME: &'static str = "ledger";
    const PHASES: [usize; 3] = [4, 5, 12];

    fn open(dir: &Path, segment_max_bytes: u64) -> Result<Self, bool> {
        let config = LedgerConfig {
            segment_max_bytes,
            max_attempts: 3,
            base_backoff: SimDuration::from_millis(10),
            ..LedgerConfig::on_disk(dir)
        };
        DeliveryLedger::open(config).map_err(|e| matches!(e, LedgerError::Corrupt { .. }))
    }

    fn apply(&mut self, op: usize) -> u64 {
        let worker = WorkerId::new("w\t0");
        let now = t(100 * op as u64);
        let mut enqueue = |user: &str, delivery: u64, channel: CommType, text: &str| {
            self.enqueue(&UserId::new(user), delivery, channel, "addr\tess", text, now)
        };
        match op {
            0 => enqueue("alice", 1, CommType::Im, "first"),
            1 => enqueue("bob", 2, CommType::Email, "tab\tand\nnewline"),
            4 => enqueue("car\tol", 3, CommType::Sms, "carried by the rotation"),
            // Leases go out one at a time. Op 2 claims alice's handed
            // record, whose image counted the grant, so it writes nothing
            // (it comes before the rotation); after the reopens every
            // lease is a re-grant of the lowest ready record, one frame.
            2 | 5 | 7 | 9 => {
                let granted = self.lease(&worker, now, 1);
                assert_eq!(granted.len(), 1, "op {op}");
                granted[0].id
            }
            3 | 8 => {
                let id = if op == 3 { 0 } else { 2 };
                self.record_sent(&worker, id, now).unwrap();
                id
            }
            // Bob's handoff grant died unclaimed with the first process
            // (attempt 1); his sends then fail twice: a retry, then
            // (max_attempts = 3) the DLQ.
            6 | 10 => {
                self.record_failed(&worker, 1, "carrier\tdown", now).unwrap();
                1
            }
            11 => {
                assert_eq!(self.requeue_dead_letters(now), 1);
                1
            }
            _ => unreachable!(),
        }
    }

    fn commits_after(op: usize) -> bool {
        matches!(op, 1 | 3 | 4 | 6 | 8 | 10 | 11)
    }

    fn commit(&mut self) {
        DeliveryLedger::commit(self).unwrap();
    }

    fn digest(&self) -> String {
        let image = |r: &simba::ledger::LedgerRecord| {
            // A reopen reclaims leases and forgets retry clocks.
            let state = match r.state {
                RecordState::Pending | RecordState::Leased | RecordState::Retrying => "owed",
                other => other.label(),
            };
            format!(
                "#{} {} {} {} {:?} {:?} {} x{} {:?} @{}\n",
                r.id, state, r.user, r.delivery, r.channel, r.address, r.text, r.attempts, r.last_error, r.enqueued_at
            )
        };
        self.records().chain(self.dead_letters()).map(image).collect()
    }

    fn live_ids(&self) -> Vec<u64> {
        self.records().chain(self.dead_letters()).map(|r| r.id).collect()
    }

    fn fresh_id(&mut self) -> u64 {
        self.enqueue(&UserId::new("probe"), 99, CommType::Im, "probe", "probe", t(9999))
    }
}

// -------------------------------------------------------------------- rules

impl Subject for RulesLog {
    const NAME: &'static str = "rules";
    const PHASES: [usize; 3] = [4, 5, 9];

    fn open(dir: &Path, segment_max_bytes: u64) -> Result<Self, bool> {
        RulesLog::open(RulesLogConfig { segment_max_bytes, ..RulesLogConfig::on_disk(dir) })
            .map_err(wal_corrupt)
    }

    fn apply(&mut self, op: usize) -> u64 {
        let storm = || {
            let window = DigestConfig { window_ms: 5000, max_count: 100, max_exemplars: 2, key: Some("{user}/\t".into()) };
            let mut spec = RuleSpec::digest("sto\trm", "source == flappy and kind prefix \"alarm\"", window);
            spec.severity = Some(simba::core::Urgency::Low);
            spec.dedupe = Some("{source}:{kind}".into());
            spec
        };
        let mut upsert = |user: &str, id: Option<u64>, spec: RuleSpec| self.upsert(user, id, spec).unwrap().id;
        match op {
            0 => upsert("ada", None, RuleSpec::deliver("first", "any")),
            1 => upsert("bo\tb", None, storm()),
            3 => upsert("ada", None, RuleSpec::suppress("third", "source == noisy")),
            4 => upsert("bo\tb", Some(2), RuleSpec { enabled: false, ..storm() }),
            6 => upsert("ada", None, RuleSpec::deliver("after the rotation", "body contains \"x\"")),
            7 => upsert("ada", Some(3), RuleSpec::deliver("third, replaced", "any")),
            2 | 5 | 8 => {
                let (user, id) = [("ada", 1), ("bo\tb", 2), ("ada", 4)][(op - 2) / 3];
                assert!(self.delete(user, id), "op {op}");
                id
            }
            _ => unreachable!(),
        }
    }

    fn commits_after(op: usize) -> bool {
        matches!(op, 1 | 3 | 4 | 5 | 7 | 8)
    }

    fn commit(&mut self) {
        RulesLog::commit(self).unwrap();
    }

    fn digest(&self) -> String {
        let mut rules: Vec<_> = self.iter().map(|r| (r.user.clone(), r.id, format!("{:?}", r.spec))).collect();
        rules.sort();
        rules.iter().map(|rule| format!("{rule:?}\n")).collect()
    }

    fn live_ids(&self) -> Vec<u64> {
        self.iter().map(|r| r.id).collect()
    }

    fn fresh_id(&mut self) -> u64 {
        self.upsert("probe", None, RuleSpec::deliver("probe", "any")).unwrap().id
    }
}

// ------------------------------------------------------------------ harness

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simba-crash-matrix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What the script left: the final segment, the state after every
/// mutation, and the id each mutation named.
struct Scripted {
    segment: Vec<u8>,
    digests: Vec<String>,
    named: Vec<u64>,
}

fn run_script<S: Subject>() -> Scripted {
    let dir = temp_dir(&format!("{}-script", S::NAME));
    let [first_reopen, second_reopen, ops] = S::PHASES;
    let mut log = S::open(&dir, u64::MAX).expect("fresh log");
    let mut out = Scripted { segment: Vec::new(), digests: vec![log.digest()], named: Vec::new() };
    let mut commits = 0;
    for op in 0..ops {
        if op == first_reopen || op == second_reopen {
            assert!(S::commits_after(op - 1), "{}: phases end on a commit", S::NAME);
            let cap = if op == first_reopen { 1 } else { u64::MAX };
            log = S::open(&dir, cap).expect("reopen between phases");
            assert_eq!(log.digest(), out.digests[op], "{}: reopen before op {op}", S::NAME);
        }
        out.named.push(log.apply(op));
        out.digests.push(log.digest());
        if S::commits_after(op) {
            log.commit();
            commits += 1;
        }
    }
    assert!(commits >= 5 && S::commits_after(ops - 1), "{}: the script ends committed", S::NAME);
    drop(log);
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(files, [SEGMENT], "{}: exactly one forced rotation", S::NAME);
    out.segment = std::fs::read(dir.join(SEGMENT)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

/// Byte offsets just past each line of `segment`.
fn line_ends(segment: &[u8]) -> Vec<usize> {
    segment.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(at, _)| at + 1).collect()
}

/// Writes `bytes` as the only segment of `dir` and opens it.
fn open_over<S: Subject>(dir: &Path, bytes: &[u8]) -> Result<S, bool> {
    std::fs::write(dir.join(SEGMENT), bytes).unwrap();
    S::open(dir, u64::MAX)
}

fn sweep<S: Subject>() {
    let script = run_script::<S>();
    let segment = &script.segment;
    let ends = line_ends(segment);
    assert_eq!(ends.last(), Some(&segment.len()), "{}: the script ends on a frame boundary", S::NAME);
    // Lines: the snapshot's frames, the trailer, then one frame per
    // mutation after the rotation.
    let trailer = (0..ends.len())
        .find(|&i| segment[if i == 0 { 0 } else { ends[i - 1] }] == b'K')
        .expect("a rotated segment carries its trailer");
    let rotated_after = S::PHASES[1];
    assert_eq!(ends.len() - trailer - 1, S::PHASES[2] - rotated_after, "{}: one frame per mutation", S::NAME);
    assert!(trailer >= 2, "{}: the snapshot carries live records", S::NAME);

    let dir = temp_dir(&format!("{}-sweep", S::NAME));
    std::fs::create_dir_all(&dir).unwrap();
    let whole = open_over::<S>(&dir, segment).expect("undamaged").digest();
    assert_eq!(whole, *script.digests.last().unwrap(), "{}: reopen equals the live state", S::NAME);

    // Truncation sweep.
    for len in 0..=segment.len() {
        let ctx = format!("{} cut at {len}/{}", S::NAME, segment.len());
        let lines = ends.iter().take_while(|&&end| end <= len).count();
        let boundary = if lines == 0 { 0 } else { ends[lines - 1] };
        let mut log = open_over::<S>(&dir, &segment[..len]).unwrap_or_else(|_| panic!("{ctx}: open failed"));
        let digest = log.digest();
        assert_eq!(std::fs::read(dir.join(SEGMENT)).unwrap(), segment[..boundary], "{ctx}: file not cut to the frame boundary");
        if lines > trailer {
            let surviving = rotated_after + (lines - trailer - 1);
            assert_eq!(digest, script.digests[surviving], "{ctx}: not the state after {surviving} mutations");
        } else {
            // Inside the snapshot: whatever images are whole, and no more.
            assert_eq!(log.live_ids().len(), lines, "{ctx}");
            assert_eq!(digest, open_over::<S>(&dir, &segment[..boundary]).unwrap().digest(), "{ctx}: clean cut differs");
        }
        let again = S::open(&dir, u64::MAX).unwrap_or_else(|_| panic!("{ctx}: second open failed"));
        assert_eq!(again.digest(), digest, "{ctx}: second open differs");
        assert_eq!(std::fs::read(dir.join(SEGMENT)).unwrap(), segment[..boundary], "{ctx}: second open rewrote the file");
        let live = log.live_ids();
        let named_after = &script.named[rotated_after..rotated_after + lines.saturating_sub(trailer + 1)];
        let fresh = log.fresh_id();
        assert!(!live.contains(&fresh), "{ctx}: fresh id {fresh} is live");
        assert!(named_after.iter().all(|&id| fresh > id), "{ctx}: fresh id {fresh} reuses one of {named_after:?}");
    }

    // Flip sweep: every bit of every byte before the final line.
    let before_final = ends[ends.len() - 2];
    let mut corrupt = 0;
    for at in 0..before_final {
        for bit in 0..8 {
            let mut damaged = segment.clone();
            damaged[at] ^= 1 << bit;
            match open_over::<S>(&dir, &damaged) {
                Err(true) => corrupt += 1,
                Ok(log) => assert_eq!(log.digest(), whole, "{} flip {at}.{bit}: a different state", S::NAME),
                Err(false) => panic!("{} flip {at}.{bit}: neither corrupt nor intact", S::NAME),
            }
        }
    }
    println!(
        "{}: {} truncation lengths over {} frames; {} flips, {corrupt} corrupt, {} harmless",
        S::NAME,
        segment.len() + 1,
        ends.len(),
        before_final * 8,
        before_final * 8 - corrupt
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_log_survives_every_crash_point() {
    sweep::<ShardLog>();
}

#[test]
fn ledger_survives_every_crash_point() {
    sweep::<DeliveryLedger>();
}

#[test]
fn rules_log_survives_every_crash_point() {
    sweep::<RulesLog>();
}
