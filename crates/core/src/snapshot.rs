//! Hibernation snapshots: the compact, durable form of an *idle*
//! MyAlertBuddy.
//!
//! A million registered users cannot each keep a live buddy resident —
//! the sharded host (`simba-runtime`) hibernates buddies that have no
//! in-flight deliveries and no unprocessed log records, keeping only a
//! [`BuddySnapshot`] (a few dozen bytes) until the next routed alert or
//! replay demand rehydrates them. The snapshot carries exactly the state
//! that must survive the round trip: running totals and the monotonic
//! id watermarks (delivery/alert ids are never reused, even across
//! hibernate/rehydrate cycles).
//!
//! The encoding is versioned and CRC-guarded; counters are LEB128
//! varints. A corrupt or foreign-version snapshot fails to decode
//! ([`SnapshotError`]) and the host falls back to §4.2.1 recovery: a
//! fresh buddy replays the shard log. Nothing a snapshot holds is required for
//! *correctness* — alerts live in the write-ahead log — so losing one
//! costs counters, never deliveries.

use crate::mab::MabStats;
use crate::subscription::UserId;
use simba_sim::SimTime;

/// Current encoding version. Bump on any layout change; decoders reject
/// versions they do not know instead of guessing.
pub const SNAPSHOT_VERSION: u16 = 2;

/// The 4-byte magic prefix of every encoded snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SBSN";

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte string ended before the declared content did.
    Truncated,
    /// The magic prefix is wrong — this is not a snapshot at all.
    BadMagic,
    /// The version is not one this build can decode.
    BadVersion(
        /// The version found.
        u16,
    ),
    /// The checksum did not match: the payload was damaged at rest.
    BadCrc {
        /// CRC stored in the snapshot.
        stored: u32,
        /// CRC computed over the payload actually read.
        computed: u32,
    },
    /// A field inside the payload was malformed.
    Malformed(
        /// Which field.
        &'static str,
    ),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "snapshot magic mismatch"),
            SnapshotError::BadVersion(v) => write!(f, "snapshot version {v} unsupported"),
            SnapshotError::BadCrc { stored, computed } => {
                write!(f, "snapshot crc mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            SnapshotError::Malformed(field) => write!(f, "snapshot field malformed: {field}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The serializable state of an idle buddy.
///
/// Captured by [`crate::MyAlertBuddy::hibernate`] and restored by
/// [`crate::MyAlertBuddy::rehydrate`]. "Idle" means no tracked
/// deliveries and no unprocessed log records, so delivery state never
/// needs to be encoded — only counters and watermarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuddySnapshot {
    /// The owning user (integrity check at rehydration: a snapshot routed
    /// to the wrong slot is rejected like a corrupt one).
    pub user: UserId,
    /// Running totals at hibernation; rehydration resumes them so
    /// fleet-level accounting survives any number of hibernation cycles.
    pub stats: MabStats,
    /// The delivery-id watermark (ids below this are burned).
    pub next_delivery: u64,
    /// The outbound alert-id watermark.
    pub next_alert: u64,
    /// When the buddy last made pipeline progress.
    pub last_progress_at: SimTime,
}

impl BuddySnapshot {
    /// Serializes to the versioned, CRC-trailed wire form.
    pub fn encode(&self) -> Vec<u8> {
        let user = self.user.0.as_bytes();
        let mut out = Vec::with_capacity(4 + 2 + 4 + user.len() + 14 * 2 + 4);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(user.len() as u32).to_le_bytes());
        out.extend_from_slice(user);
        for mut v in self.counter_words() {
            while v >= 0x80 {
                out.push(v as u8 | 0x80);
                v >>= 7;
            }
            out.push(v as u8);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and verifies an encoded snapshot.
    ///
    /// # Errors
    ///
    /// Any structural or checksum problem is reported as a
    /// [`SnapshotError`]; the caller should treat every variant the same
    /// way — discard the snapshot and recover from the log.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < 4 + 2 + 4 + 4 {
            return Err(SnapshotError::Truncated);
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        let computed = crc32(body);
        if stored != computed {
            return Err(SnapshotError::BadCrc { stored, computed });
        }
        let mut r = Reader(body);
        if r.take(4)? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes(r.take(2)?.try_into().map_err(|_| SnapshotError::Truncated)?);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let user_len = u32::from_le_bytes(r.take(4)?.try_into().map_err(|_| SnapshotError::Truncated)?) as usize;
        let user = std::str::from_utf8(r.take(user_len)?)
            .map_err(|_| SnapshotError::Malformed("user"))?
            .to_string();
        let mut words = [0u64; 14];
        for w in &mut words {
            *w = r.varint()?;
        }
        if !r.0.is_empty() {
            return Err(SnapshotError::Malformed("trailing bytes"));
        }
        Ok(BuddySnapshot {
            user: UserId::new(user),
            stats: MabStats {
                received_im: words[0],
                received_email: words[1],
                acked: words[2],
                rejected: words[3],
                routed: words[4],
                unsubscribed: words[5],
                deliveries_started: words[6],
                replayed: words[7],
                remote_commands: words[8],
                retired: words[9],
                mode_overridden: words[10],
            },
            next_delivery: words[11],
            next_alert: words[12],
            last_progress_at: SimTime::from_millis(words[13]),
        })
    }

    /// The payload words, in encoding order.
    fn counter_words(&self) -> [u64; 14] {
        let s = &self.stats;
        [
            s.received_im,
            s.received_email,
            s.acked,
            s.rejected,
            s.routed,
            s.unsubscribed,
            s.deliveries_started,
            s.replayed,
            s.remote_commands,
            s.retired,
            s.mode_overridden,
            self.next_delivery,
            self.next_alert,
            self.last_progress_at.as_millis(),
        ]
    }
}

/// The bytes not yet decoded.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.0.len() {
            return Err(SnapshotError::Truncated);
        }
        let (out, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(out)
    }

    /// One LEB128 `u64`: at most ten bytes, the tenth no more than 1.
    fn varint(&mut self) -> Result<u64, SnapshotError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.take(1)?[0];
            if shift == 63 && byte > 1 {
                break;
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(SnapshotError::Malformed("varint longer than 10 bytes or over 64 bits"))
    }
}

/// IEEE CRC-32 (the zlib/PNG polynomial), table-driven.
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

    fn snapshot() -> BuddySnapshot {
        BuddySnapshot {
            user: UserId::new("alice"),
            stats: MabStats {
                received_im: 10,
                received_email: 2,
                acked: 10,
                rejected: 1,
                routed: 9,
                unsubscribed: 2,
                deliveries_started: 9,
                replayed: 3,
                remote_commands: 0,
                retired: 9,
                mode_overridden: 4,
            },
            next_delivery: 9,
            next_alert: 9,
            last_progress_at: SimTime::from_secs(1234),
        }
    }

    /// A snapshot whose fourteen payload words are `words`.
    fn from_words(words: [u64; 14]) -> BuddySnapshot {
        BuddySnapshot {
            user: UserId::new("user042"),
            stats: MabStats {
                received_im: words[0],
                received_email: words[1],
                acked: words[2],
                rejected: words[3],
                routed: words[4],
                unsubscribed: words[5],
                deliveries_started: words[6],
                replayed: words[7],
                remote_commands: words[8],
                retired: words[9],
                mode_overridden: words[10],
            },
            next_delivery: words[11],
            next_alert: words[12],
            last_progress_at: SimTime::from_millis(words[13]),
        }
    }

    #[test]
    fn round_trips() {
        let mut cases = vec![snapshot(), from_words([0; 14]), from_words([u64::MAX; 14])];
        let mut rng = simba_sim::SimRng::new(0x5B5E);
        for _ in 0..200 {
            // Random widths, so every varint length 1..=10 is exercised.
            cases.push(from_words(std::array::from_fn(|_| {
                rng.range(0, u64::MAX) >> rng.range(0, 63)
            })));
        }
        for snap in cases {
            assert_eq!(BuddySnapshot::decode(&snap.encode()).unwrap(), snap);
        }
    }

    #[test]
    fn an_idle_users_snapshot_is_a_few_dozen_bytes() {
        // 7-byte name, one alert's counters, a clock a few minutes in.
        let mut words = [1u64; 14];
        words[13] = 300_000;
        assert!(from_words(words).encode().len() <= 48);
    }

    #[test]
    fn overlong_and_overflowing_varints_are_malformed() {
        // Header for an empty user name, then thirteen zero words and a
        // bad last one, CRC re-sealed so only the varint check can object.
        let sealed = |last: &[u8]| {
            let mut bytes = SNAPSHOT_MAGIC.to_vec();
            bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&[0; 13]);
            bytes.extend_from_slice(last);
            let crc = crc32(&bytes).to_le_bytes();
            bytes.extend_from_slice(&crc);
            bytes
        };
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert_eq!(
            BuddySnapshot::decode(&sealed(&max)).unwrap().last_progress_at.as_millis(),
            u64::MAX
        );
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        let eleven = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00];
        for bad in [&overflow[..], &eleven[..]] {
            assert!(matches!(
                BuddySnapshot::decode(&sealed(bad)),
                Err(SnapshotError::Malformed(_))
            ));
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn bit_flip_is_detected() {
        for snap in [snapshot(), from_words([u64::MAX; 14])] {
            let bytes = snap.encode();
            for bit in 0..bytes.len() * 8 {
                let mut damaged = bytes.clone();
                damaged[bit / 8] ^= 1 << (bit % 8);
                assert!(BuddySnapshot::decode(&damaged).is_err(), "bit {bit}");
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        for snap in [snapshot(), from_words([u64::MAX; 14])] {
            let bytes = snap.encode();
            for cut in 0..bytes.len() {
                let err = BuddySnapshot::decode(&bytes[..cut]).unwrap_err();
                assert!(
                    matches!(err, SnapshotError::Truncated | SnapshotError::BadCrc { .. }),
                    "cut at {cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn unknown_version_is_rejected() {
        let snap = snapshot();
        let mut bytes = snap.encode();
        // Rewrite the version field and re-seal the CRC so only the
        // version check can object.
        // Version 1 (fixed-width words) is as foreign as any other.
        for version in [0xFFFFu16, 1] {
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            let body_len = bytes.len() - 4;
            let crc = crc32(&bytes[..body_len]).to_le_bytes();
            bytes[body_len..].copy_from_slice(&crc);
            assert_eq!(BuddySnapshot::decode(&bytes), Err(SnapshotError::BadVersion(version)));
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = snapshot().encode();
        bytes[0] = b'X';
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert_eq!(BuddySnapshot::decode(&bytes), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn empty_input_is_truncated_not_panic() {
        assert_eq!(BuddySnapshot::decode(&[]), Err(SnapshotError::Truncated));
    }
}
