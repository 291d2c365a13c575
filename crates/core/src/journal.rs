//! The journal: the one durable substrate under the shard log, the
//! delivery ledger and the rules log (§4.2.1's "save a copy to a log
//! file before sending the acknowledgement", once).
//!
//! A journal is a directory of `seg-NNNNNN.log` segments. Every record
//! is one frame, `<crc32-hex>\t<payload>\n`; the payload is its owner's
//! business (a tab-separated line with free text escaped). Appends
//! buffer in memory and one [`Journal::commit`] makes the whole batch
//! durable — one write, one `sync_data`. Once the active segment has
//! outgrown its cap, commit rotates: the owner's snapshot of live
//! records is written to a fresh segment, closed by a `K\t<crc32>`
//! trailer over the snapshot's bytes, and history is unlinked.
//!
//! Failure handling, all of it here:
//!
//! * **Torn tail.** Dying mid-commit leaves an unterminated fragment at
//!   the end of the last segment. [`Journal::open`] cuts it off before
//!   the owner sees it: a record reaches the replay closure only once it
//!   is complete, terminated and checksum-valid. Anything else that does
//!   not check out — a bad frame that *is* terminated, a fragment in an
//!   older segment, a snapshot that disagrees with its trailer — is
//!   [`WalError::Corrupt`].
//! * **Failed commit.** The segment is cut back to its last committed
//!   length and the batch stays buffered, so the retry rewrites all of it
//!   onto a clean boundary. If even the cut fails the journal is poisoned:
//!   every later commit fails until reopen, because nothing may be
//!   acknowledged on top of an unknown tail.
//! * **Failed rotation.** The snapshot is written under a temporary name
//!   and renamed into place only once durable, so a segment that outranks
//!   the one still being appended to never exists half-made; `open`
//!   removes a leftover temporary.
//!
//! With no directory the journal is in memory: appends are not encoded
//! at all, while dirtiness and the commit/rotation counters behave as on
//! disk (benchmarks compute commits per alert from them).

use crate::wal::WalError;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Where a rotation builds the next segment before renaming it in.
const SNAPSHOT_TMP: &str = "seg-next.tmp";

/// Framed records awaiting one write.
#[derive(Debug, Default)]
pub struct Frames(String);

impl Frames {
    /// Frames the payload `encode` writes. A payload must hold no raw
    /// newline — owners escape free text ([`crate::wal::escape`]).
    pub fn push(&mut self, encode: impl FnOnce(&mut String)) {
        let start = self.0.len();
        self.0.push_str("00000000\t");
        encode(&mut self.0);
        let payload = &self.0[start + 9..];
        debug_assert!(!payload.contains('\n'), "unescaped newline in a journal payload");
        let crc = format!("{:08x}", crc32(payload.as_bytes()));
        self.0.replace_range(start..start + 8, &crc);
        self.0.push('\n');
    }
}

#[derive(Debug)]
struct Active {
    dir: PathBuf,
    index: u64,
    file: File,
    /// Bytes of the active segment that a completed commit covers.
    committed: u64,
    /// Size of the snapshot the last rotation carried. Rotation only pays
    /// off once the segment has doubled past it: a live set whose
    /// snapshot alone exceeds the cap must not re-rotate on every commit.
    baseline: u64,
}

/// A segmented, group-committed, checksummed append-only log. Not
/// internally synchronized: its owner serializes access.
#[derive(Debug)]
pub struct Journal {
    active: Option<Active>,
    segment_max_bytes: u64,
    pending: Frames,
    dirty: bool,
    poisoned: bool,
    commits: u64,
    rotations: u64,
    fail_next_write_after: Option<usize>,
}

impl Journal {
    /// A journal with no files behind it.
    pub fn in_memory() -> Self {
        Journal {
            active: None,
            segment_max_bytes: u64::MAX,
            pending: Frames::default(),
            dirty: false,
            poisoned: false,
            commits: 0,
            rotations: 0,
            fail_next_write_after: None,
        }
    }

    /// Opens (or creates) the journal under `dir`, handing every durable
    /// record's payload to `replay` in order, oldest segment first. A
    /// torn tail on the last segment is truncated, never replayed.
    ///
    /// # Errors
    ///
    /// I/O failure; [`WalError::Corrupt`] for damage that is not a torn
    /// tail, or when `replay` rejects a payload (its `Err` is the reason).
    pub fn open(
        dir: PathBuf,
        segment_max_bytes: u64,
        mut replay: impl FnMut(&str) -> Result<(), String>,
    ) -> Result<Self, WalError> {
        std::fs::create_dir_all(&dir)?;
        match std::fs::remove_file(dir.join(SNAPSHOT_TMP)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
        let segments = list_segments(&dir)?;
        let mut committed = 0;
        for (pos, (index, path)) in segments.iter().enumerate() {
            committed = replay_segment(path, *index, pos + 1 == segments.len(), &mut replay)?;
        }
        let index = segments.last().map_or(0, |(index, _)| *index);
        let file = OpenOptions::new().create(true).append(true).open(segment_path(&dir, index))?;
        if segments.is_empty() {
            sync_dir(&dir)?;
        }
        Ok(Journal {
            active: Some(Active { dir, index, file, committed, baseline: 0 }),
            segment_max_bytes: segment_max_bytes.max(1),
            ..Journal::in_memory()
        })
    }

    /// Buffers one record; durable at the next [`Journal::commit`]. In
    /// memory `encode` is never called.
    pub fn append(&mut self, encode: impl FnOnce(&mut String)) {
        if self.active.is_some() {
            self.pending.push(encode);
        }
        self.dirty = true;
    }

    /// Makes every buffered record durable with one write and one
    /// `sync_data`, then rotates through `snapshot` if the segment
    /// outgrew its cap. Free and uncounted when nothing is buffered.
    ///
    /// # Errors
    ///
    /// On I/O failure nothing of the batch is durable and all of it stays
    /// buffered for the retry; the caller must release no acknowledgement.
    pub fn commit(&mut self, snapshot: impl FnOnce(&mut Frames)) -> Result<(), WalError> {
        if !self.dirty {
            return Ok(());
        }
        if let Some(active) = &mut self.active {
            if self.poisoned {
                return Err(std::io::Error::other("journal tail unknown after a failed commit; reopen").into());
            }
            let fault = self.fail_next_write_after.take();
            let written = write_all_or_fault(&mut active.file, self.pending.0.as_bytes(), fault)
                .and_then(|()| active.file.sync_data());
            if let Err(e) = written {
                self.poisoned = active.file.set_len(active.committed).is_err();
                return Err(e.into());
            }
            active.committed += self.pending.0.len() as u64;
            self.pending.0.clear();
        }
        self.dirty = false;
        self.commits += 1;
        if self.active.as_ref().is_some_and(|a| {
            a.committed >= self.segment_max_bytes && a.committed >= a.baseline.saturating_mul(2)
        }) {
            self.rotate(snapshot)?;
        }
        Ok(())
    }

    /// Writes `snapshot` — the owner's live records — into a fresh
    /// segment and deletes every older one. Called from
    /// [`Journal::commit`]; also safe to call directly to compact history.
    ///
    /// # Errors
    ///
    /// A failure before the fresh segment is in place leaves the journal
    /// exactly as it was; one after it (unlinking history) leaves older
    /// segments behind, which replay idempotently under the snapshot.
    pub fn rotate(&mut self, snapshot: impl FnOnce(&mut Frames)) -> Result<(), WalError> {
        let Some(active) = &mut self.active else {
            self.rotations += 1;
            return Ok(());
        };
        let mut carried = Frames::default();
        snapshot(&mut carried);
        let trailer = format!("K\t{:08x}\n", crc32(carried.0.as_bytes()));
        carried.0.push_str(&trailer);
        let tmp = active.dir.join(SNAPSHOT_TMP);
        let next = active.index + 1;
        let mut file = OpenOptions::new().create(true).append(true).open(&tmp)?;
        let fault = self.fail_next_write_after.take();
        let placed = file
            .set_len(0)
            .and_then(|()| write_all_or_fault(&mut file, carried.0.as_bytes(), fault))
            .and_then(|()| file.sync_data())
            .and_then(|()| std::fs::rename(&tmp, segment_path(&active.dir, next)));
        if let Err(e) = placed {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        // The fresh segment outranks every older one from here on, so
        // appends move to it before anything else can fail.
        active.file = file;
        active.index = next;
        active.committed = carried.0.len() as u64;
        active.baseline = active.committed;
        self.rotations += 1;
        // The rename must be durable before the history it replaces goes.
        sync_dir(&active.dir)?;
        for (index, path) in list_segments(&active.dir)? {
            if index < next {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }

    /// Whether a commit is pending.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Dirty batches made durable (one `sync_data` each on disk).
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Rotations performed.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// One-shot fault hook: the next file write — a commit's batch or a
    /// rotation's snapshot — puts `bytes` bytes on disk, then errors.
    pub fn fail_next_write_after(&mut self, bytes: usize) {
        self.fail_next_write_after = Some(bytes);
    }
}

fn write_all_or_fault(file: &mut File, bytes: &[u8], fault: Option<usize>) -> std::io::Result<()> {
    match fault {
        None => file.write_all(bytes),
        Some(n) => {
            file.write_all(&bytes[..n.min(bytes.len())])?;
            Err(std::io::Error::other("injected write failure"))
        }
    }
}

/// Makes a create or rename inside `dir` durable.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.log"))
}

/// The directory's segments, oldest first.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(index) = name
            .to_str()
            .and_then(|name| name.strip_prefix("seg-"))
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((index, entry.path()));
    }
    out.sort_by_key(|(index, _)| *index);
    Ok(out)
}

/// Replays one segment and returns its durable length. Only the last
/// segment may end in a torn tail, which is cut off.
fn replay_segment(
    path: &Path,
    index: u64,
    is_last: bool,
    replay: &mut impl FnMut(&str) -> Result<(), String>,
) -> Result<u64, WalError> {
    let content = std::fs::read(path)?;
    let mut offset = 0;
    let mut line_no = 0;
    let mut guarded = false;
    while offset < content.len() {
        line_no += 1;
        let corrupt = |reason: String| WalError::Corrupt { line: line_no, reason };
        let Some(len) = content[offset..].iter().position(|&b| b == b'\n') else {
            if !is_last {
                return Err(corrupt("torn tail in a non-final segment".into()));
            }
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(offset as u64)?;
            file.sync_data()?;
            break;
        };
        let line = &content[offset..offset + len];
        if let Some(stored) = line.strip_prefix(b"K\t") {
            let computed = crc32(&content[..offset]);
            if parse_crc(stored) != Some(computed) {
                return Err(corrupt(format!("snapshot checksum mismatch: computed {computed:08x}")));
            }
            guarded = true;
        } else {
            replay(unframe(line).map_err(&corrupt)?).map_err(&corrupt)?;
        }
        offset += len + 1;
    }
    // Every segment past the first was born of a rotation; one that
    // history still hangs off must carry its whole snapshot.
    if index > 0 && !is_last && !guarded {
        return Err(WalError::Corrupt {
            line: line_no,
            reason: "snapshot missing its checksum trailer in a non-final segment".into(),
        });
    }
    Ok(offset as u64)
}

fn parse_crc(hex: &[u8]) -> Option<u32> {
    u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
}

/// Checks one frame and returns its payload.
fn unframe(line: &[u8]) -> Result<&str, String> {
    if line.len() < 9 || line[8] != b'\t' {
        return Err("malformed frame".into());
    }
    let payload = &line[9..];
    let computed = crc32(payload);
    if parse_crc(&line[..8]) != Some(computed) {
        return Err(format!("record checksum mismatch: computed {computed:08x}"));
    }
    std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".into())
}

/// IEEE CRC-32 (the zlib/PNG polynomial), table-driven: the checksum of
/// every journal frame and rotation trailer, and of the gateway's wire
/// frames.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic check value for IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simba-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Opens `dir`, returning the journal and every payload it replayed.
    fn open(dir: &Path, segment_max_bytes: u64) -> Result<(Journal, Vec<String>), WalError> {
        let mut seen = Vec::new();
        let journal = Journal::open(dir.to_path_buf(), segment_max_bytes, |payload| {
            seen.push(payload.to_string());
            Ok(())
        })?;
        Ok((journal, seen))
    }

    fn append(journal: &mut Journal, payload: &str) {
        journal.append(|out| out.push_str(payload));
    }

    fn no_snapshot(_: &mut Frames) {}

    fn segment_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn in_memory_counts_dirty_commits_and_never_encodes() {
        let mut journal = Journal::in_memory();
        journal.commit(no_snapshot).unwrap();
        assert_eq!(journal.commits(), 0, "a clean commit is free and uncounted");
        journal.append(|_| panic!("the in-memory journal must not encode"));
        assert!(journal.is_dirty());
        journal.commit(no_snapshot).unwrap();
        journal.commit(no_snapshot).unwrap();
        assert_eq!(journal.commits(), 1);
        journal.rotate(|_| panic!("nor snapshot")).unwrap();
        assert_eq!(journal.rotations(), 1);
    }

    #[test]
    fn a_failed_commit_neither_loses_nor_glues() {
        let batch = ["second\tone", "second\ttwo", "second\tthree"];
        let batch_len: usize = batch.iter().map(|p| 9 + p.len() + 1).sum();
        for k in 0..=batch_len {
            let dir = temp_dir(&format!("commit-fault-{k}"));
            let (mut journal, _) = open(&dir, u64::MAX).unwrap();
            append(&mut journal, "first");
            journal.commit(no_snapshot).unwrap();
            let committed = std::fs::read(dir.join("seg-000000.log")).unwrap();

            batch.iter().for_each(|p| append(&mut journal, p));
            journal.fail_next_write_after(k);
            assert!(matches!(journal.commit(no_snapshot), Err(WalError::Io(_))), "k={k}");
            assert!(journal.is_dirty(), "k={k}: the batch stays buffered");
            assert_eq!(journal.commits(), 1, "k={k}: a failed commit is not counted");
            assert_eq!(
                std::fs::read(dir.join("seg-000000.log")).unwrap(),
                committed,
                "k={k}: no fragment survives the failure"
            );
            journal.commit(no_snapshot).unwrap();
            drop(journal);

            let (_, seen) = open(&dir, u64::MAX).unwrap();
            assert_eq!(seen, ["first", "second\tone", "second\ttwo", "second\tthree"], "k={k}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_failed_rotation_leaves_no_segment_behind_and_the_next_one_succeeds() {
        let dir = temp_dir("rotate-fault");
        let (mut journal, _) = open(&dir, u64::MAX).unwrap();
        append(&mut journal, "live");
        journal.commit(no_snapshot).unwrap();
        journal.fail_next_write_after(5);
        assert!(journal.rotate(|out| out.push(|line| line.push_str("live"))).is_err());
        assert_eq!(segment_files(&dir), ["seg-000000.log"]);
        assert_eq!(journal.rotations(), 0);
        // Appends continue on the old segment and are what reopen sees.
        append(&mut journal, "later");
        journal.commit(no_snapshot).unwrap();
        assert_eq!(open(&dir, u64::MAX).unwrap().1, ["live", "later"]);
        journal.rotate(|out| out.push(|line| line.push_str("snapshot"))).unwrap();
        assert_eq!(segment_files(&dir), ["seg-000001.log"]);
        assert_eq!(open(&dir, u64::MAX).unwrap().1, ["snapshot"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_removes_a_leftover_snapshot_temporary() {
        let dir = temp_dir("tmp");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(SNAPSHOT_TMP), "half a snapsh").unwrap();
        open(&dir, u64::MAX).unwrap();
        assert_eq!(segment_files(&dir), ["seg-000000.log"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_waits_for_the_segment_to_double_past_its_snapshot() {
        let dir = temp_dir("throttle");
        let (mut journal, _) = open(&dir, 64).unwrap();
        // A live set whose snapshot alone (≈400 bytes) exceeds the cap.
        let snapshot = |out: &mut Frames| (0..4).for_each(|_| out.push(|line| line.push_str(&"x".repeat(90))));
        append(&mut journal, &"x".repeat(90));
        journal.commit(snapshot).unwrap();
        assert_eq!(journal.rotations(), 1, "past the cap: rotate");
        let baseline = std::fs::metadata(dir.join("seg-000001.log")).unwrap().len();
        assert!(baseline > 64 * 4);
        let mut size = baseline;
        while size + 100 < baseline * 2 {
            append(&mut journal, &"y".repeat(90));
            journal.commit(snapshot).unwrap();
            size += 100;
            assert_eq!(journal.rotations(), 1, "still under twice the snapshot at {size} bytes");
        }
        append(&mut journal, &"y".repeat(90));
        journal.commit(snapshot).unwrap();
        assert_eq!(journal.rotations(), 2, "doubled: rotate again");
        assert_eq!(segment_files(&dir), ["seg-000002.log"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_that_is_not_a_torn_tail_is_corrupt() {
        let dir = temp_dir("damage");
        let (mut journal, _) = open(&dir, u64::MAX).unwrap();
        append(&mut journal, "one");
        append(&mut journal, "two");
        journal.commit(no_snapshot).unwrap();
        journal.rotate(|out| out.push(|line| line.push_str("carried"))).unwrap();
        drop(journal);
        let path = dir.join("seg-000001.log");
        let clean = std::fs::read(&path).unwrap();
        let reason = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            match open(&dir, u64::MAX) {
                Err(WalError::Corrupt { reason, .. }) => reason,
                other => panic!("expected corruption, got {other:?}"),
            }
        };
        // A snapshot line dropped whole: every frame is valid, the trailer objects.
        let trailer_at = clean.iter().position(|&b| b == b'K').unwrap();
        assert!(reason(&clean[trailer_at..]).contains("snapshot checksum"));
        // A flipped payload bit in a terminated record.
        let mut flipped = clean.clone();
        flipped[12] ^= 0x01;
        assert!(reason(&flipped).contains("record checksum"));
        // An unterminated fragment is a torn tail only on the last segment.
        std::fs::write(&path, &clean).unwrap();
        std::fs::write(dir.join("seg-000000.log"), "deadbeef\ttorn").unwrap();
        assert!(matches!(open(&dir, u64::MAX), Err(WalError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
