//! Crash points enumerated, not sampled: one harness over the three
//! record codecs that sit on `simba::core::journal` — the shard log, the
//! delivery ledger and the rules log — driven through their public APIs.
//!
//! Each log runs a script of single-record mutations: two commits, a
//! reopen under a one-byte segment cap (so the next commit rotates), a
//! reopen under no cap, and at least two more commits. What is left is
//! one segment: the rotation's snapshot, its `K` trailer, one frame per
//! later mutation, and the zero tail the file grew by. Five sweeps follow.
//!
//! *Truncation*: for every byte length of the frames, open must succeed,
//! hold exactly the records whose frames lie wholly inside the length
//! (the state the script had after that many mutations), cut the file
//! back to that frame boundary, see the same thing on a second open, and
//! issue fresh ids that collide with nothing that survived. The same
//! holds when the bytes past the length are zeros rather than gone — a
//! commit torn while it overwrote the tail in place.
//!
//! *Zero tail*: for the lengths into the tail that can behave
//! differently (its ends, and either side of a sector and a page
//! boundary), open yields the undamaged state and leaves the file as it
//! is; a non-zero byte (or a whole stray frame) inside the tail is cut
//! with everything after the frames, and the undamaged state is what
//! opens.
//!
//! *Torn middle block*: one more commit of a single record over four
//! pages, with any one of its inner 4 KiB blocks left as zeros, reopens
//! to the state before that commit, cut back to the frames before it.
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
    /// Journals one record of at least `bytes` bytes.
    fn bulk(&mut self, bytes: usize);
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

    fn bulk(&mut self, bytes: usize) {
        let alert = IncomingAlert::from_email("gw", "bulk", "bulk", "b".repeat(bytes), t(98));
        self.append(&UserId::new("bulk"), &alert, t(98)).unwrap();
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

    fn bulk(&mut self, bytes: usize) {
        self.enqueue(&UserId::new("bulk"), 98, CommType::Email, "bulk", &"b".repeat(bytes), t(9998));
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

    fn bulk(&mut self, bytes: usize) {
        self.upsert("bulk", None, RuleSpec::deliver(&"b".repeat(bytes), "any")).unwrap();
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

/// Byte offsets just past each line of `frames`.
fn line_ends(frames: &[u8]) -> Vec<usize> {
    frames.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(at, _)| at + 1).collect()
}

/// Where the frames of `segment` end and its zero tail begins.
fn data_len(segment: &[u8]) -> usize {
    segment.iter().position(|&b| b == 0).unwrap_or(segment.len())
}

/// The segment as it is on disk now.
fn on_disk(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join(SEGMENT)).unwrap()
}

/// Writes `bytes` as the only segment of `dir` and opens it.
fn open_over<S: Subject>(dir: &Path, bytes: &[u8]) -> Result<S, bool> {
    std::fs::write(dir.join(SEGMENT), bytes).unwrap();
    S::open(dir, u64::MAX)
}

fn sweep<S: Subject>() {
    let script = run_script::<S>();
    let segment = &script.segment;
    let data = data_len(segment);
    let ends = line_ends(&segment[..data]);
    assert_eq!(ends.last(), Some(&data), "{}: the script ends on a frame boundary", S::NAME);
    assert!(data < segment.len(), "{}: the frames are followed by a zero tail", S::NAME);
    assert!(segment[data..].iter().all(|&b| b == 0), "{}: only zeros follow the frames", S::NAME);
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
    for len in 0..=data {
        let ctx = format!("{} cut at {len}/{data}", S::NAME);
        let lines = ends.iter().take_while(|&&end| end <= len).count();
        let boundary = if lines == 0 { 0 } else { ends[lines - 1] };
        let mut torn = segment.clone();
        torn[len..data].fill(0);
        let in_place = open_over::<S>(&dir, &torn).unwrap_or_else(|_| panic!("{ctx}: open over zeros failed"));
        // A fragment is cut with the zeros after it; whole frames keep theirs.
        let expected = if len == boundary { &torn[..] } else { &segment[..boundary] };
        assert!(on_disk(&dir) == expected, "{ctx}: zeros: file is not {} bytes", expected.len());
        let mut log = open_over::<S>(&dir, &segment[..len]).unwrap_or_else(|_| panic!("{ctx}: open failed"));
        let digest = log.digest();
        assert_eq!(in_place.digest(), digest, "{ctx}: torn in place differs from torn at the end");
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

    // Zero-tail sweep: the lengths into the tail that can differ — its
    // first bytes, either side of the next sector and page boundary, and
    // its last bytes.
    let (sector, page) = (data.next_multiple_of(512), data.next_multiple_of(4096));
    let mut lengths = vec![data, data + 1, sector - 1, sector, sector + 1, page - 1, page, page + 1];
    lengths.extend([segment.len() - 1, segment.len()]);
    lengths.retain(|&len| (data..=segment.len()).contains(&len));
    lengths.sort_unstable();
    lengths.dedup();
    for &len in &lengths {
        let log = open_over::<S>(&dir, &segment[..len])
            .unwrap_or_else(|_| panic!("{} tail cut at {len}: open failed", S::NAME));
        assert_eq!(log.digest(), whole, "{} tail cut at {len}", S::NAME);
        assert!(on_disk(&dir) == segment[..len], "{} tail cut at {len}: rewritten", S::NAME);
    }
    // Stray bytes inside the tail: each of its first KiB, then every
    // 61st, the last byte, and a copy of the final frame after a gap.
    let tail = segment.len() - data;
    let mut strays: Vec<(usize, Vec<u8>)> = (0..tail)
        .filter(|&at| at < 1024 || at % 61 == 0 || at == tail - 1)
        .map(|at| (data + at, vec![[0x01, b'\n', b'K', b'0', 0xff][at % 5]]))
        .collect();
    let final_frame = segment[ends[ends.len() - 2]..data].to_vec();
    strays.push((data + 4096, final_frame));
    for (at, bytes) in &strays {
        let mut damaged = segment.clone();
        damaged[*at..*at + bytes.len()].copy_from_slice(bytes);
        let log = open_over::<S>(&dir, &damaged).unwrap_or_else(|_| panic!("{} stray at {at}: open failed", S::NAME));
        assert_eq!(log.digest(), whole, "{} stray at {at}", S::NAME);
        assert!(on_disk(&dir) == segment[..data], "{} stray at {at}: not cut to the frames", S::NAME);
    }

    // Torn middle block: one more commit, a single record over four
    // pages, loses one aligned 4 KiB block while the blocks around it
    // reach the disk. Open yields the state before that commit.
    let mut log = open_over::<S>(&dir, segment).unwrap_or_else(|_| panic!("{}: reopen failed", S::NAME));
    log.bulk(4 * 4096);
    log.commit();
    drop(log);
    let grown = on_disk(&dir);
    let end = data_len(&grown);
    assert_eq!(line_ends(&grown[..end]), [&ends[..], &[end]].concat(), "{}: the commit is one frame", S::NAME);
    let blocks: Vec<usize> = (data.next_multiple_of(4096)..end - 4096).step_by(4096).collect();
    assert!(blocks.len() >= 2, "{}: the commit spans more than three pages", S::NAME);
    for &block in &blocks {
        let mut torn = grown.clone();
        torn[block..block + 4096].fill(0);
        let log = open_over::<S>(&dir, &torn).unwrap_or_else(|_| panic!("{} block {block} lost: open failed", S::NAME));
        assert_eq!(log.digest(), whole, "{} block {block} lost", S::NAME);
        assert!(on_disk(&dir) == segment[..data], "{} block {block} lost: not cut to the commit", S::NAME);
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
        "{}: {} truncation lengths over {} frames, {} into the zero tail, {} stray bytes, {} lost blocks; {} flips, {corrupt} corrupt, {} harmless",
        S::NAME,
        data + 1,
        ends.len(),
        lengths.len(),
        strays.len(),
        blocks.len(),
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
