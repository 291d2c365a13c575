//! The journal: the one durable substrate under the shard log, the
//! delivery ledger and the rules log (§4.2.1's "save a copy to a log
//! file before sending the acknowledgement", once).
//!
//! A journal is a directory of `seg-NNNNNN.log` segments. Every record
//! is one frame, `<crc32-hex>\t<payload>\n`; the payload is its owner's
//! business (a tab-separated line with free text escaped). A segment's
//! frames are followed by a tail of zeros: the file grows in zeroed
//! steps of 64 KiB, and a NUL where a frame would start
//! ends the segment's data. Appends buffer in memory and one
//! [`Journal::commit`] makes the whole batch durable — one positional
//! write at the committed offset, one `sync_data`. A batch that fits in
//! the tail overwrites zeros the file already holds, so the file's
//! length, and with it the inode, changes once per step rather than
//! once per commit. Once the active segment has outgrown its cap,
//! commit rotates: the owner's snapshot of live records is written to a
//! fresh segment, closed by a `K\t<crc32>` trailer over the snapshot's
//! bytes, and history is unlinked.
//!
//! Failure handling, all of it here:
//!
//! * **Torn tail.** Dying mid-commit leaves an unterminated fragment, or
//!   some of the batch's blocks and not others, after the last whole
//!   frame of the last segment. A lost middle block can even join a
//!   frame's head to a later newline; the line then fails its checksum
//!   across a whole 512-byte sector of zeros, which no frame holds.
//!   [`Journal::open`] cuts everything after the last whole frame unless
//!   it is zeros only, before the owner sees it: a record reaches the
//!   replay closure only once it is complete, terminated and
//!   checksum-valid. Anything else that does not check out — any other
//!   bad frame that *is* terminated, anything but zeros after the frames
//!   of an older segment, a snapshot that disagrees with its trailer —
//!   is [`WalError::Corrupt`].
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
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Where a rotation builds the next segment before renaming it in.
const SNAPSHOT_TMP: &str = "seg-next.tmp";

/// A segment's length grows in zeroed steps of this many bytes. A commit
/// that fits in the zero tail overwrites bytes the file already holds,
/// so its `sync_data` flushes data blocks and not the file's length.
const GROWTH_STEP: u64 = 64 * 1024;

/// The smallest unit a disk writes whole; a torn write loses whole
/// sectors.
const SECTOR: usize = 512;

/// The bytes a zero tail is written and checked against.
static ZEROS: [u8; GROWTH_STEP as usize] = [0; GROWTH_STEP as usize];

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
    /// The file's length: `committed` plus its zero tail.
    len: u64,
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
    /// torn tail on the last segment, or anything but zeros after its
    /// last whole frame, is truncated, never replayed.
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
        let (mut committed, mut len) = (0, 0);
        for (pos, (index, path)) in segments.iter().enumerate() {
            (committed, len) = replay_segment(path, *index, pos + 1 == segments.len(), &mut replay)?;
        }
        let index = segments.last().map_or(0, |(index, _)| *index);
        let file = OpenOptions::new().create(true).write(true).truncate(false).open(segment_path(&dir, index))?;
        if segments.is_empty() {
            sync_dir(&dir)?;
        }
        Ok(Journal {
            active: Some(Active { dir, index, file, committed, len, baseline: 0 }),
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

    /// Makes every buffered record durable with one write at the
    /// committed offset and one `sync_data`, then rotates through
    /// `snapshot` if the segment outgrew its cap. Free and uncounted when
    /// nothing is buffered.
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
            let batch = self.pending.0.as_bytes();
            let written = write_in_place(&active.file, batch, active.committed, active.len, fault)
                .and_then(|len| active.file.sync_data().map(|()| len));
            match written {
                Ok(len) => active.len = len,
                Err(e) => {
                    self.poisoned = active.file.set_len(active.committed).is_err();
                    active.len = active.committed;
                    return Err(e.into());
                }
            }
            active.committed += batch.len() as u64;
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
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(&tmp)?;
        let fault = self.fail_next_write_after.take();
        let placed = write_in_place(&file, carried.0.as_bytes(), 0, 0, fault).and_then(|len| {
            file.sync_data()?;
            std::fs::rename(&tmp, segment_path(&active.dir, next))?;
            Ok(len)
        });
        let len = match placed {
            Ok(len) => len,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e.into());
            }
        };
        // The fresh segment outranks every older one from here on, so
        // appends move to it before anything else can fail.
        active.file = file;
        active.index = next;
        active.committed = carried.0.len() as u64;
        active.len = len;
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

/// Writes `bytes` at offset `at` of a file `len` bytes long and, when
/// they reach past its end, zero-fills it out to the next step. Returns
/// the file's new length.
fn write_in_place(file: &File, bytes: &[u8], at: u64, len: u64, fault: Option<usize>) -> std::io::Result<u64> {
    if let Some(n) = fault {
        file.write_all_at(&bytes[..n.min(bytes.len())], at)?;
        return Err(std::io::Error::other("injected write failure"));
    }
    file.write_all_at(bytes, at)?;
    let end = at + bytes.len() as u64;
    if end <= len {
        return Ok(len);
    }
    let grown = end.next_multiple_of(GROWTH_STEP);
    file.write_all_at(&ZEROS[..(grown - end) as usize], end)?;
    Ok(grown)
}

fn is_zeros(bytes: &[u8]) -> bool {
    bytes.chunks(ZEROS.len()).all(|chunk| *chunk == ZEROS[..chunk.len()])
}

/// Whether `content[from..]` covers a whole aligned sector of zeros —
/// a block a torn write left unwritten. No frame holds one: escaping
/// keeps NUL out of payloads, and one flipped bit cannot make one.
fn holds_zero_sector(content: &[u8], from: usize) -> bool {
    let mut sector = from.next_multiple_of(SECTOR);
    while sector + SECTOR <= content.len() {
        if is_zeros(&content[sector..sector + SECTOR]) {
            return true;
        }
        sector += SECTOR;
    }
    false
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

/// Replays one segment and returns its durable length and its file
/// length. A NUL where a frame would start ends the segment's data, and
/// only zeros may follow it. Only the last segment may end in anything
/// else — a torn fragment, a frame whose line crosses a sector a torn
/// write left as zeros, or stray bytes in its zero tail — which is cut
/// off at its last whole frame.
fn replay_segment(
    path: &Path,
    index: u64,
    is_last: bool,
    replay: &mut impl FnMut(&str) -> Result<(), String>,
) -> Result<(u64, u64), WalError> {
    let content = std::fs::read(path)?;
    let mut offset = 0;
    let mut line_no = 0;
    let mut guarded = false;
    while offset < content.len() && content[offset] != 0 {
        line_no += 1;
        let corrupt = |reason: String| WalError::Corrupt { line: line_no, reason };
        let Some(len) = content[offset..].iter().position(|&b| b == b'\n') else {
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
            let payload = match unframe(line) {
                Ok(payload) => payload,
                // A commit torn while it overwrote the tail in place: its
                // first block reached the disk, a later one did not, and
                // a newline further on ends the line across the zeros.
                // The check below cuts it, or refuses it in an older
                // segment.
                Err(_) if holds_zero_sector(&content[..offset + len], offset) => break,
                Err(reason) => return Err(corrupt(reason)),
            };
            replay(payload).map_err(&corrupt)?;
        }
        offset += len + 1;
    }
    let mut len = content.len() as u64;
    if !is_zeros(&content[offset..]) {
        if !is_last {
            return Err(WalError::Corrupt {
                line: line_no,
                reason: "torn tail in a non-final segment".into(),
            });
        }
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(offset as u64)?;
        file.sync_data()?;
        len = offset as u64;
    }
    // Every segment past the first was born of a rotation; one that
    // history still hangs off must carry its whole snapshot.
    if index > 0 && !is_last && !guarded {
        return Err(WalError::Corrupt {
            line: line_no,
            reason: "snapshot missing its checksum trailer in a non-final segment".into(),
        });
    }
    Ok((offset as u64, len))
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

    /// The bytes of the segment at `path` up to the end of its frames,
    /// checking that those end on a frame boundary and that only zeros
    /// follow them.
    fn frames_of(path: &Path) -> Vec<u8> {
        let mut bytes = std::fs::read(path).unwrap();
        let end = bytes.iter().rposition(|&b| b != 0).map_or(0, |last| last + 1);
        assert!(end == 0 || bytes[end - 1] == b'\n', "{}: data ends mid-frame", path.display());
        assert!(!bytes[..end].starts_with(b"\0"), "{}: zeros before the frames", path.display());
        bytes.truncate(end);
        bytes
    }

    /// The framed bytes of `payloads`, as a commit writes them.
    fn framed(payloads: &[&str]) -> Vec<u8> {
        let mut frames = Frames::default();
        payloads.iter().for_each(|p| frames.push(|out| out.push_str(p)));
        frames.0.into_bytes()
    }

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
            let segment = dir.join("seg-000000.log");
            let committed = frames_of(&segment);
            assert_eq!(committed, framed(&["first"]), "k={k}");

            batch.iter().for_each(|p| append(&mut journal, p));
            journal.fail_next_write_after(k);
            assert!(matches!(journal.commit(no_snapshot), Err(WalError::Io(_))), "k={k}");
            assert!(journal.is_dirty(), "k={k}: the batch stays buffered");
            assert_eq!(journal.commits(), 1, "k={k}: a failed commit is not counted");
            // `frames_of` also checks that nothing but zeros follows.
            assert_eq!(frames_of(&segment), committed, "k={k}: no fragment survives the failure");
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
        let baseline = frames_of(&dir.join("seg-000001.log")).len() as u64;
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

    #[test]
    fn the_segment_length_changes_once_per_step_not_once_per_commit() {
        let dir = temp_dir("steps");
        let segment = dir.join("seg-000000.log");
        let (mut journal, _) = open(&dir, u64::MAX).unwrap();
        let payloads: Vec<String> = (0..300).map(|i| "x".repeat(1 + i * 37 % 1500)).collect();
        let (mut lengths, mut changes, mut bytes) = (0, 0, 0);
        for payload in &payloads {
            append(&mut journal, payload);
            journal.commit(no_snapshot).unwrap();
            bytes += framed(&[payload]).len() as u64;
            let len = std::fs::metadata(&segment).unwrap().len();
            assert_eq!(len % GROWTH_STEP, 0, "the file grows in whole steps");
            assert!(len >= bytes);
            if len != lengths {
                (lengths, changes) = (len, changes + 1);
            }
        }
        assert!(bytes > 2 * GROWTH_STEP, "the commits cross more than one step");
        assert!(changes <= bytes.div_ceil(GROWTH_STEP), "{changes} length changes over {bytes} bytes");
        assert_eq!(journal.commits(), payloads.len() as u64);
        drop(journal);
        assert_eq!(open(&dir, u64::MAX).unwrap().1, payloads);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_frames_and_zeros_replays_the_frames_and_keeps_the_tail() {
        let dir = temp_dir("zero-tail");
        let segment = dir.join("seg-000000.log");
        let (mut journal, _) = open(&dir, u64::MAX).unwrap();
        append(&mut journal, "one");
        append(&mut journal, "two");
        journal.commit(no_snapshot).unwrap();
        append(&mut journal, "three");
        journal.commit(no_snapshot).unwrap();
        drop(journal);
        let written = std::fs::read(&segment).unwrap();
        assert_eq!(written.len() as u64, GROWTH_STEP);
        assert_eq!(frames_of(&segment), framed(&["one", "two", "three"]));
        let (mut journal, seen) = open(&dir, u64::MAX).unwrap();
        assert_eq!(seen, ["one", "two", "three"]);
        assert_eq!(std::fs::read(&segment).unwrap(), written, "a clean tail is left alone");
        // The next commit overwrites the tail in place.
        append(&mut journal, "four");
        journal.commit(no_snapshot).unwrap();
        assert_eq!(std::fs::metadata(&segment).unwrap().len(), GROWTH_STEP);
        assert_eq!(open(&dir, u64::MAX).unwrap().1, ["one", "two", "three", "four"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bytes_inside_the_zero_tail_of_the_last_segment_are_cut() {
        let dir = temp_dir("tail-garbage");
        let segment = dir.join("seg-000000.log");
        let (mut journal, _) = open(&dir, u64::MAX).unwrap();
        append(&mut journal, "kept");
        journal.commit(no_snapshot).unwrap();
        drop(journal);
        let clean = std::fs::read(&segment).unwrap();
        let data = framed(&["kept"]).len();
        // Stray bytes right after the frames, deep in the tail, at its
        // very end; and a whole, checksum-valid frame after a gap of
        // zeros — a later block of a torn commit. None is replayed.
        let valid = framed(&["stray"]);
        let damage: [(usize, &[u8]); 4] =
            [(data, b"\x01"), (data + 100, b"junk\n"), (clean.len() - 1, b"z"), (data + 4096, &valid)];
        for (at, bytes) in damage {
            let mut damaged = clean.clone();
            damaged[at..at + bytes.len()].copy_from_slice(bytes);
            std::fs::write(&segment, &damaged).unwrap();
            let (mut journal, seen) = open(&dir, u64::MAX).unwrap();
            assert_eq!(seen, ["kept"], "damage at {at}");
            assert_eq!(std::fs::read(&segment).unwrap(), clean[..data], "damage at {at}: cut at the last frame");
            append(&mut journal, "next");
            journal.commit(no_snapshot).unwrap();
            drop(journal);
            assert_eq!(open(&dir, u64::MAX).unwrap().1, ["kept", "next"], "damage at {at}");
            assert_eq!(frames_of(&segment), framed(&["kept", "next"]));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_non_final_segment_may_end_in_zeros_but_nothing_after_them() {
        let dir = temp_dir("non-final-tail");
        let (mut journal, _) = open(&dir, u64::MAX).unwrap();
        append(&mut journal, "live");
        journal.commit(no_snapshot).unwrap();
        journal.rotate(|out| out.push(|line| line.push_str("carried"))).unwrap();
        drop(journal);
        // History a crash left behind the rotation: frames, then zeros.
        let older = dir.join("seg-000000.log");
        let mut history = framed(&["history"]);
        history.resize(GROWTH_STEP as usize, 0);
        std::fs::write(&older, &history).unwrap();
        assert_eq!(open(&dir, u64::MAX).unwrap().1, ["history", "carried"]);
        for at in [framed(&["history"]).len(), history.len() - 1] {
            let mut damaged = history.clone();
            damaged[at] = b'x';
            std::fs::write(&older, &damaged).unwrap();
            assert!(matches!(open(&dir, u64::MAX), Err(WalError::Corrupt { .. })), "stray byte at {at}");
            assert_eq!(std::fs::read(&older).unwrap(), damaged, "an older segment is never cut");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_commit_that_fails_in_or_across_the_zero_tail_leaves_no_fragment() {
        // The failing batch fits in the tail, or runs past the step.
        for first in [10, GROWTH_STEP as usize - 40] {
            for k in [0, 1, 9, 30, 60, 119] {
                let dir = temp_dir(&format!("tail-fault-{first}-{k}"));
                let segment = dir.join("seg-000000.log");
                let (mut journal, _) = open(&dir, u64::MAX).unwrap();
                let head = "h".repeat(first - 10);
                append(&mut journal, &head);
                journal.commit(no_snapshot).unwrap();
                let committed = frames_of(&segment);
                assert_eq!(committed.len(), first);
                let batch = ["b".repeat(50), "c".repeat(50)];
                batch.iter().for_each(|p| append(&mut journal, p));
                journal.fail_next_write_after(k);
                assert!(journal.commit(no_snapshot).is_err(), "{first}/{k}");
                assert_eq!(frames_of(&segment), committed, "{first}/{k}: a fragment of the batch survived");
                journal.commit(no_snapshot).unwrap();
                let len = std::fs::metadata(&segment).unwrap().len();
                assert_eq!(len, (first as u64 + 120).next_multiple_of(GROWTH_STEP), "{first}/{k}");
                drop(journal);
                let (_, seen) = open(&dir, u64::MAX).unwrap();
                assert_eq!(seen, [head.as_str(), &batch[0], &batch[1]], "{first}/{k}");
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn a_commit_torn_across_a_lost_middle_block_reopens_to_the_state_before_it() {
        let dir = temp_dir("torn-middle");
        let segment = dir.join("seg-000000.log");
        let (mut journal, _) = open(&dir, u64::MAX).unwrap();
        append(&mut journal, "before");
        journal.commit(no_snapshot).unwrap();
        let before = frames_of(&segment);
        // One commit over five pages: a frame of four, then a short one.
        let big = "y".repeat(4 * 4096);
        append(&mut journal, &big);
        append(&mut journal, "after");
        journal.commit(no_snapshot).unwrap();
        drop(journal);
        let whole = std::fs::read(&segment).unwrap();
        let end = frames_of(&segment).len();
        assert!(end - before.len() > 3 * 4096);
        // Every aligned 4 KiB block and 512-byte sector strictly inside
        // the commit, lost while the blocks around it reached the disk.
        let mut torn = 0;
        for size in [4096, SECTOR] {
            for block in (before.len().next_multiple_of(size)..end - size).step_by(size) {
                let mut damaged = whole.clone();
                damaged[block..block + size].fill(0);
                std::fs::write(&segment, &damaged).unwrap();
                let (mut journal, seen) = open(&dir, u64::MAX).unwrap();
                assert_eq!(seen, ["before"], "{size} B lost at {block}");
                assert_eq!(std::fs::read(&segment).unwrap(), before, "{size} B lost at {block}: cut to the commit");
                append(&mut journal, "next");
                journal.commit(no_snapshot).unwrap();
                drop(journal);
                assert_eq!(open(&dir, u64::MAX).unwrap().1, ["before", "next"], "{size} B lost at {block}");
                torn += 1;
            }
        }
        assert!(torn > 24, "{torn} torn shapes");
        // Damage that leaves no whole sector of zeros is still corruption.
        let mut flipped = whole.clone();
        flipped[before.len() + 4096] ^= 1;
        std::fs::write(&segment, &flipped).unwrap();
        assert!(matches!(open(&dir, u64::MAX), Err(WalError::Corrupt { .. })));
        // And so is a lost block in a segment that history hangs off.
        let mut damaged = whole.clone();
        damaged[8192..12288].fill(0);
        std::fs::write(&segment, &damaged).unwrap();
        let snapshot = framed(&["carried"]);
        let trailer = format!("K\t{:08x}\n", crc32(&snapshot));
        std::fs::write(dir.join("seg-000001.log"), [snapshot, trailer.into_bytes()].concat()).unwrap();
        assert!(matches!(open(&dir, u64::MAX), Err(WalError::Corrupt { .. })));
        assert_eq!(std::fs::read(&segment).unwrap(), damaged, "an older segment is never cut");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_rotated_snapshot_with_its_trailer_and_zero_tail_verifies_on_reopen() {
        let dir = temp_dir("rotate-tail");
        let (mut journal, _) = open(&dir, u64::MAX).unwrap();
        append(&mut journal, "history");
        journal.commit(no_snapshot).unwrap();
        journal.rotate(|out| out.push(|line| line.push_str("carried"))).unwrap();
        let first = dir.join("seg-000001.log");
        assert_eq!(std::fs::metadata(&first).unwrap().len(), GROWTH_STEP, "the snapshot comes with its tail");
        let frames = frames_of(&first);
        let trailer = format!("K\t{:08x}\n", crc32(&framed(&["carried"])));
        assert_eq!(frames, [framed(&["carried"]), trailer.into_bytes()].concat());
        append(&mut journal, "after");
        journal.commit(no_snapshot).unwrap();
        assert_eq!(open(&dir, u64::MAX).unwrap().1, ["carried", "after"]);
        // Left behind a later rotation, the same segment still verifies.
        let kept = std::fs::read(&first).unwrap();
        journal.rotate(|out| out.push(|line| line.push_str("again"))).unwrap();
        std::fs::write(&first, &kept).unwrap();
        assert_eq!(segment_files(&dir), ["seg-000001.log", "seg-000002.log"]);
        assert_eq!(open(&dir, u64::MAX).unwrap().1, ["carried", "after", "again"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
