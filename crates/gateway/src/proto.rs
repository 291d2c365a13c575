//! The gateway wire protocol: versioned, length-prefixed, CRC-checked
//! binary frames.
//!
//! Every frame is a fixed 14-byte header followed by a payload:
//!
//! ```text
//! +--------+---------+------+---------------+-----------+== payload ==+
//! | magic  | version | type | payload_len   | crc32     |   ...       |
//! | "SMBA" | u8 (=1) | u8   | u32 LE        | u32 LE    |             |
//! +--------+---------+------+---------------+-----------+=============+
//! ```
//!
//! The CRC-32 (IEEE) covers the payload bytes only, so a flipped bit in
//! the body is caught even when the length happens to stay plausible.
//! Integers are little-endian; strings are a `u16` length followed by
//! UTF-8 bytes. The magic makes a client that dials the wrong port fail
//! fast, the version byte leaves room to evolve the frame set, and the
//! length prefix bounds how much a decoder ever buffers (the server caps
//! it further via [`crate::GatewayConfig::max_payload`]).

use std::fmt;

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SMBA";
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 14;
/// Default cap on payload size (64 KiB) — protects the decoder's buffer.
pub const DEFAULT_MAX_PAYLOAD: u32 = 64 * 1024;

/// CRC-32 (IEEE 802.3) — the workspace's one table, the journal's.
pub use simba_core::journal::crc32;

/// Which delivery front door the alert claims to have arrived by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireChannel {
    /// Instant-messaging borne (routes to `ShardedHost::submit_im`).
    Im,
    /// Email borne (routes to `ShardedHost::submit_email`).
    Email,
}

impl WireChannel {
    fn as_u8(self) -> u8 {
        match self {
            WireChannel::Im => 0,
            WireChannel::Email => 1,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(WireChannel::Im),
            1 => Some(WireChannel::Email),
            _ => None,
        }
    }
}

/// Why the gateway refused a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NackReason {
    /// The global intake queue is full — back off and retry.
    QueueFull,
    /// The source's token bucket is empty — back off and retry.
    RateLimited,
    /// Too many of this connection's submissions are still in flight.
    ConnBusy,
    /// The user is not hosted; retrying will not help.
    UnknownUser,
    /// The frame failed to decode; the connection is being closed.
    Malformed,
    /// The gateway is shutting down.
    Shutdown,
    /// The gateway cannot serve this frame kind (e.g. a state operation
    /// on a gateway with no soft-state store attached, or a rule
    /// operation with no rules engine). Permanent.
    Unsupported,
    /// The frame decoded but the rules engine refused the operation
    /// (invalid predicate, unknown rule id, or per-user bound).
    /// Permanent: resending the identical request cannot succeed.
    Rejected,
}

impl NackReason {
    /// True for transient overload rejections (the client should honour
    /// `retry_after_ms`); false for permanent ones.
    pub fn is_shed(self) -> bool {
        matches!(
            self,
            NackReason::QueueFull | NackReason::RateLimited | NackReason::ConnBusy
        )
    }

    fn as_u8(self) -> u8 {
        match self {
            NackReason::QueueFull => 1,
            NackReason::RateLimited => 2,
            NackReason::ConnBusy => 3,
            NackReason::UnknownUser => 4,
            NackReason::Malformed => 5,
            NackReason::Shutdown => 6,
            NackReason::Unsupported => 7,
            NackReason::Rejected => 8,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(NackReason::QueueFull),
            2 => Some(NackReason::RateLimited),
            3 => Some(NackReason::ConnBusy),
            4 => Some(NackReason::UnknownUser),
            5 => Some(NackReason::Malformed),
            6 => Some(NackReason::Shutdown),
            7 => Some(NackReason::Unsupported),
            8 => Some(NackReason::Rejected),
            _ => None,
        }
    }
}

impl fmt::Display for NackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NackReason::QueueFull => "queue-full",
            NackReason::RateLimited => "rate-limited",
            NackReason::ConnBusy => "conn-busy",
            NackReason::UnknownUser => "unknown-user",
            NackReason::Malformed => "malformed",
            NackReason::Shutdown => "shutdown",
            NackReason::Unsupported => "unsupported",
            NackReason::Rejected => "rejected",
        };
        f.write_str(s)
    }
}

/// Gateway health counters carried by [`Frame::ProbeReply`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Submissions admitted into the intake queue so far.
    pub accepted: u64,
    /// Submissions shed (queue-full / rate-limited / conn-busy).
    pub shed: u64,
    /// Frames that failed to decode.
    pub decode_err: u64,
    /// Current intake-queue depth.
    pub queue_depth: u32,
    /// Total intake-queue capacity, so a client can compute fullness
    /// (`queue_depth / queue_capacity`) and back off *before* being
    /// nacked rather than after.
    pub queue_capacity: u32,
}

/// A user alert rule as it crosses the wire — a flat mirror of
/// `simba_rules::RuleSpec` plus the engine-assigned id, kept primitive so
/// the protocol layer stays self-contained. Conversions to and from the
/// engine's types live with the server and callers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireRule {
    /// Engine-assigned rule id; `0` in an upsert asks the engine to
    /// assign one.
    pub id: u64,
    /// Short human name.
    pub name: String,
    /// Disabled rules stay stored but never match.
    pub enabled: bool,
    /// Severity override: 0 = none, 1 = low, 2 = normal, 3 = critical.
    pub severity: u8,
    /// Optional dedupe-key template.
    pub dedupe: Option<String>,
    /// Predicate source text.
    pub predicate: String,
    /// Action: 0 = deliver, 1 = suppress, 2 = digest.
    pub action: u8,
    /// Digest flush window in ms (digest rules; ignored otherwise).
    pub window_ms: u32,
    /// Digest count cap, 0 = none (digest rules).
    pub max_count: u32,
    /// Exemplar payloads carried by the digest (digest rules).
    pub max_exemplars: u8,
    /// Optional digest correlation-key template.
    pub key: Option<String>,
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: submit one alert.
    Submit {
        /// Client-assigned sequence number echoed by the ack/nack.
        seq: u64,
        /// Which front door the alert arrives by.
        channel: WireChannel,
        /// The target user.
        user: String,
        /// The alerting source (also the rate-limiting key).
        source: String,
        /// The alert body.
        body: String,
    },
    /// Server → client: the submission was admitted; once acked it will
    /// be routed (the intake queue is drained even through shutdown).
    Ack {
        /// Echo of the submission's sequence number.
        seq: u64,
    },
    /// Server → client: the submission was rejected.
    Nack {
        /// Echo of the submission's sequence number (0 when the frame
        /// could not be decoded far enough to know it).
        seq: u64,
        /// Why.
        reason: NackReason,
        /// Suggested back-off before retrying, for shed reasons.
        retry_after_ms: u32,
    },
    /// Client → server: health probe.
    Probe {
        /// Correlates the reply.
        nonce: u64,
    },
    /// Server → client: health counters.
    ProbeReply {
        /// Echo of the probe nonce.
        nonce: u64,
        /// Counters at reply time.
        stats: ProbeStats,
    },
    /// Client → server: publish a soft-state fact (presence, channel
    /// health...) into the gateway's store. Answered with [`Frame::Ack`]
    /// or [`Frame::Nack`] (`Unsupported` when no store is attached).
    StateUpdate {
        /// Client-assigned sequence number echoed by the ack/nack.
        seq: u64,
        /// Fact scope (e.g. `presence`, `chanhealth`).
        scope: String,
        /// Fact key (e.g. the user name or channel name).
        key: String,
        /// Fact value (e.g. `away`, `healthy`).
        value: String,
        /// Time-to-live in milliseconds from arrival.
        ttl_ms: u32,
        /// Who published it.
        source: String,
    },
    /// Client → server: read one fact back. Answered with
    /// [`Frame::StateReply`] (or a `Nack` when no store is attached).
    StateQuery {
        /// Correlates the reply.
        seq: u64,
        /// Fact scope.
        scope: String,
        /// Fact key.
        key: String,
    },
    /// Server → client: the fact under a queried `(scope, key)`, if any.
    StateReply {
        /// Echo of the query's sequence number.
        seq: u64,
        /// Whether a live fact was found (all other fields are zero/empty
        /// otherwise).
        found: bool,
        /// The fact's value.
        value: String,
        /// The fact's generation.
        generation: u64,
        /// Milliseconds of TTL remaining at reply time.
        ttl_remaining_ms: u32,
    },
    /// Client → server: create (`rule.id == 0`) or replace a user-owned
    /// alert rule. Answered with a single-rule [`Frame::RuleListReply`]
    /// carrying the stored rule (so the client learns the assigned id),
    /// or a `Nack` (`Unsupported` without a rules engine, `Rejected` for
    /// invalid predicates / unknown ids / per-user bounds).
    RuleUpsert {
        /// Client-assigned sequence number echoed by the reply.
        seq: u64,
        /// The owning user.
        user: String,
        /// The rule to store.
        rule: WireRule,
    },
    /// Client → server: delete one rule. Answered with [`Frame::Ack`]
    /// whether or not the rule existed (deletion is idempotent), or a
    /// `Nack` (`Unsupported` without a rules engine).
    RuleDelete {
        /// Client-assigned sequence number echoed by the ack/nack.
        seq: u64,
        /// The owning user.
        user: String,
        /// The rule id to delete.
        rule_id: u64,
    },
    /// Client → server: list one user's rules. Answered with
    /// [`Frame::RuleListReply`] (or a `Nack` without a rules engine).
    RuleList {
        /// Correlates the reply.
        seq: u64,
        /// The owning user.
        user: String,
    },
    /// Server → client: the rules a [`Frame::RuleList`] asked for (or
    /// the single stored rule after a [`Frame::RuleUpsert`]).
    RuleListReply {
        /// Echo of the request's sequence number.
        seq: u64,
        /// The user's rules, ordered by id.
        rules: Vec<WireRule>,
    },
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Submit { .. } => 1,
            Frame::Ack { .. } => 2,
            Frame::Nack { .. } => 3,
            Frame::Probe { .. } => 4,
            Frame::ProbeReply { .. } => 5,
            Frame::StateUpdate { .. } => 6,
            Frame::StateQuery { .. } => 7,
            Frame::StateReply { .. } => 8,
            Frame::RuleUpsert { .. } => 9,
            Frame::RuleDelete { .. } => 10,
            Frame::RuleList { .. } => 11,
            Frame::RuleListReply { .. } => 12,
        }
    }
}

/// Why a frame failed to decode.
#[derive(Debug)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame-type byte.
    UnknownType(u8),
    /// Payload checksum mismatch: the frame was corrupted in flight.
    BadCrc {
        /// CRC carried by the header.
        expected: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// The header announces a payload larger than the decoder accepts.
    TooLarge {
        /// Announced length.
        len: u32,
        /// The decoder's cap.
        max: u32,
    },
    /// The payload ended early or held an invalid field.
    Malformed(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported version {v}"),
            FrameError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            FrameError::BadCrc { expected, actual } => {
                write!(f, "crc mismatch: header {expected:08x}, payload {actual:08x}")
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A parsed frame header; the payload follows on the wire.
#[derive(Debug, Clone, Copy)]
pub struct Header {
    /// Frame-type byte (validated against the known set).
    pub frame_type: u8,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// CRC-32 the payload must match.
    pub crc: u32,
}

impl Header {
    /// Parses and validates a fixed-size header, enforcing `max_payload`.
    pub fn parse(bytes: &[u8; HEADER_LEN], max_payload: u32) -> Result<Header, FrameError> {
        if bytes[..4] != MAGIC {
            return Err(FrameError::BadMagic([bytes[0], bytes[1], bytes[2], bytes[3]]));
        }
        if bytes[4] != VERSION {
            return Err(FrameError::BadVersion(bytes[4]));
        }
        let frame_type = bytes[5];
        if !(1..=12).contains(&frame_type) {
            return Err(FrameError::UnknownType(frame_type));
        }
        let payload_len = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]);
        if payload_len > max_payload {
            return Err(FrameError::TooLarge { len: payload_len, max: max_payload });
        }
        let crc = u32::from_le_bytes([bytes[10], bytes[11], bytes[12], bytes[13]]);
        Ok(Header { frame_type, payload_len, crc })
    }
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
        None => out.push(0),
    }
}

fn put_rule(out: &mut Vec<u8>, rule: &WireRule) {
    out.extend_from_slice(&rule.id.to_le_bytes());
    put_str(out, &rule.name);
    out.push(u8::from(rule.enabled));
    out.push(rule.severity);
    put_opt_str(out, rule.dedupe.as_deref());
    put_str(out, &rule.predicate);
    out.push(rule.action);
    out.extend_from_slice(&rule.window_ms.to_le_bytes());
    out.extend_from_slice(&rule.max_count.to_le_bytes());
    out.push(rule.max_exemplars);
    put_opt_str(out, rule.key.as_deref());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    // Strings longer than the u16 length prefix allows are truncated at a
    // char boundary (submission bodies are capped far below this anyway).
    let mut len = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len]);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(FrameError::Malformed(what)),
        }
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, FrameError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, FrameError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, FrameError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self, what: &'static str) -> Result<&'a str, FrameError> {
        let len = self.u16(what)? as usize;
        std::str::from_utf8(self.take(len, what)?).map_err(|_| FrameError::Malformed(what))
    }

    fn string(&mut self, what: &'static str) -> Result<String, FrameError> {
        self.str(what).map(str::to_owned)
    }

    fn opt_string(&mut self, what: &'static str) -> Result<Option<String>, FrameError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.string(what)?)),
            _ => Err(FrameError::Malformed(what)),
        }
    }

    fn rule(&mut self) -> Result<WireRule, FrameError> {
        let id = self.u64("rule.id")?;
        let name = self.string("rule.name")?;
        let enabled = match self.u8("rule.enabled")? {
            0 => false,
            1 => true,
            _ => return Err(FrameError::Malformed("rule.enabled")),
        };
        let severity = self.u8("rule.severity")?;
        if severity > 3 {
            return Err(FrameError::Malformed("rule.severity"));
        }
        let dedupe = self.opt_string("rule.dedupe")?;
        let predicate = self.string("rule.predicate")?;
        let action = self.u8("rule.action")?;
        if action > 2 {
            return Err(FrameError::Malformed("rule.action"));
        }
        let window_ms = self.u32("rule.window_ms")?;
        let max_count = self.u32("rule.max_count")?;
        let max_exemplars = self.u8("rule.max_exemplars")?;
        let key = self.opt_string("rule.key")?;
        Ok(WireRule {
            id,
            name,
            enabled,
            severity,
            dedupe,
            predicate,
            action,
            window_ms,
            max_count,
            max_exemplars,
            key,
        })
    }

    fn finish(&self, what: &'static str) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::Malformed(what))
        }
    }
}

/// Encodes `frame` (header + payload) onto the end of `out`. The payload
/// is written where it goes, straight after the header, whose length and
/// CRC fields are filled in once it is there.
pub fn encode(frame: &Frame, out: &mut Vec<u8>) {
    let header_at = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame.type_byte());
    out.extend_from_slice(&[0; 8]);
    let payload_at = out.len();
    let payload = &mut *out;
    match frame {
        Frame::Submit { seq, channel, user, source, body } => {
            payload.extend_from_slice(&seq.to_le_bytes());
            payload.push(channel.as_u8());
            put_str(payload, user);
            put_str(payload, source);
            put_str(payload, body);
        }
        Frame::Ack { seq } => payload.extend_from_slice(&seq.to_le_bytes()),
        Frame::Nack { seq, reason, retry_after_ms } => {
            payload.extend_from_slice(&seq.to_le_bytes());
            payload.push(reason.as_u8());
            payload.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
        Frame::Probe { nonce } => payload.extend_from_slice(&nonce.to_le_bytes()),
        Frame::ProbeReply { nonce, stats } => {
            payload.extend_from_slice(&nonce.to_le_bytes());
            payload.extend_from_slice(&stats.accepted.to_le_bytes());
            payload.extend_from_slice(&stats.shed.to_le_bytes());
            payload.extend_from_slice(&stats.decode_err.to_le_bytes());
            payload.extend_from_slice(&stats.queue_depth.to_le_bytes());
            payload.extend_from_slice(&stats.queue_capacity.to_le_bytes());
        }
        Frame::StateUpdate { seq, scope, key, value, ttl_ms, source } => {
            payload.extend_from_slice(&seq.to_le_bytes());
            put_str(payload, scope);
            put_str(payload, key);
            put_str(payload, value);
            payload.extend_from_slice(&ttl_ms.to_le_bytes());
            put_str(payload, source);
        }
        Frame::StateQuery { seq, scope, key } => {
            payload.extend_from_slice(&seq.to_le_bytes());
            put_str(payload, scope);
            put_str(payload, key);
        }
        Frame::StateReply { seq, found, value, generation, ttl_remaining_ms } => {
            payload.extend_from_slice(&seq.to_le_bytes());
            payload.push(u8::from(*found));
            put_str(payload, value);
            payload.extend_from_slice(&generation.to_le_bytes());
            payload.extend_from_slice(&ttl_remaining_ms.to_le_bytes());
        }
        Frame::RuleUpsert { seq, user, rule } => {
            payload.extend_from_slice(&seq.to_le_bytes());
            put_str(payload, user);
            put_rule(payload, rule);
        }
        Frame::RuleDelete { seq, user, rule_id } => {
            payload.extend_from_slice(&seq.to_le_bytes());
            put_str(payload, user);
            payload.extend_from_slice(&rule_id.to_le_bytes());
        }
        Frame::RuleList { seq, user } => {
            payload.extend_from_slice(&seq.to_le_bytes());
            put_str(payload, user);
        }
        Frame::RuleListReply { seq, rules } => {
            payload.extend_from_slice(&seq.to_le_bytes());
            let count = rules.len().min(u16::MAX as usize);
            payload.extend_from_slice(&(count as u16).to_le_bytes());
            for rule in &rules[..count] {
                put_rule(payload, rule);
            }
        }
    }
    let len = (out.len() - payload_at) as u32;
    let crc = crc32(&out[payload_at..]);
    out[header_at + 6..header_at + 10].copy_from_slice(&len.to_le_bytes());
    out[header_at + 10..header_at + 14].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes `frame` into a fresh buffer.
pub fn encode_to_vec(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 32);
    encode(frame, &mut out);
    out
}

/// A [`Frame::Submit`]'s fields, borrowed from its payload. The server
/// reads submissions this way, so each string is copied off the wire
/// buffer once — into the shared form the pipeline keeps — not into a
/// `String` first.
#[derive(Debug, Clone, Copy)]
pub struct SubmitRef<'a> {
    /// Client-chosen sequence number, echoed in the reply.
    pub seq: u64,
    /// Which front door to use.
    pub channel: WireChannel,
    /// Target user id.
    pub user: &'a str,
    /// Alerting source.
    pub source: &'a str,
    /// Alert body.
    pub body: &'a str,
}

/// Verifies the payload against the header's CRC and starts reading it.
fn checked<'a>(header: &Header, payload: &'a [u8]) -> Result<Reader<'a>, FrameError> {
    debug_assert_eq!(payload.len(), header.payload_len as usize);
    let actual = crc32(payload);
    if actual != header.crc {
        return Err(FrameError::BadCrc { expected: header.crc, actual });
    }
    Ok(Reader { buf: payload, pos: 0 })
}

fn submit_fields<'a>(r: &mut Reader<'a>) -> Result<SubmitRef<'a>, FrameError> {
    let seq = r.u64("submit.seq")?;
    let channel = WireChannel::from_u8(r.u8("submit.channel")?)
        .ok_or(FrameError::Malformed("submit.channel"))?;
    let user = r.str("submit.user")?;
    let source = r.str("submit.source")?;
    let body = r.str("submit.body")?;
    Ok(SubmitRef { seq, channel, user, source, body })
}

/// Decodes the payload of a `Submit` frame without copying its strings;
/// `None` when the header describes any other frame (decode that with
/// [`decode_payload`]). Checks what `decode_payload` checks.
pub fn decode_submit<'a>(
    header: &Header,
    payload: &'a [u8],
) -> Option<Result<SubmitRef<'a>, FrameError>> {
    (header.frame_type == 1).then(|| {
        let mut r = checked(header, payload)?;
        let submit = submit_fields(&mut r)?;
        r.finish("trailing bytes")?;
        Ok(submit)
    })
}

/// Decodes a payload the header described, verifying its CRC first.
pub fn decode_payload(header: &Header, payload: &[u8]) -> Result<Frame, FrameError> {
    let mut r = checked(header, payload)?;
    let frame = match header.frame_type {
        1 => {
            let SubmitRef { seq, channel, user, source, body } = submit_fields(&mut r)?;
            Frame::Submit { seq, channel, user: user.into(), source: source.into(), body: body.into() }
        }
        // simba-analyze: allow(durability.ack-before-commit): the decoder reconstructs a peer's frame from wire bytes; nothing is being acknowledged here
        2 => Frame::Ack { seq: r.u64("ack.seq")? },
        3 => {
            let seq = r.u64("nack.seq")?;
            let reason = NackReason::from_u8(r.u8("nack.reason")?)
                .ok_or(FrameError::Malformed("nack.reason"))?;
            let retry_after_ms = r.u32("nack.retry_after")?;
            Frame::Nack { seq, reason, retry_after_ms }
        }
        4 => Frame::Probe { nonce: r.u64("probe.nonce")? },
        5 => {
            let nonce = r.u64("probe_reply.nonce")?;
            let stats = ProbeStats {
                accepted: r.u64("probe_reply.accepted")?,
                shed: r.u64("probe_reply.shed")?,
                decode_err: r.u64("probe_reply.decode_err")?,
                queue_depth: r.u32("probe_reply.queue_depth")?,
                queue_capacity: r.u32("probe_reply.queue_capacity")?,
            };
            Frame::ProbeReply { nonce, stats }
        }
        6 => {
            let seq = r.u64("state_update.seq")?;
            let scope = r.string("state_update.scope")?;
            let key = r.string("state_update.key")?;
            let value = r.string("state_update.value")?;
            let ttl_ms = r.u32("state_update.ttl_ms")?;
            let source = r.string("state_update.source")?;
            Frame::StateUpdate { seq, scope, key, value, ttl_ms, source }
        }
        7 => {
            let seq = r.u64("state_query.seq")?;
            let scope = r.string("state_query.scope")?;
            let key = r.string("state_query.key")?;
            Frame::StateQuery { seq, scope, key }
        }
        8 => {
            let seq = r.u64("state_reply.seq")?;
            let found = match r.u8("state_reply.found")? {
                0 => false,
                1 => true,
                _ => return Err(FrameError::Malformed("state_reply.found")),
            };
            let value = r.string("state_reply.value")?;
            let generation = r.u64("state_reply.generation")?;
            let ttl_remaining_ms = r.u32("state_reply.ttl_remaining")?;
            Frame::StateReply { seq, found, value, generation, ttl_remaining_ms }
        }
        9 => {
            let seq = r.u64("rule_upsert.seq")?;
            let user = r.string("rule_upsert.user")?;
            let rule = r.rule()?;
            Frame::RuleUpsert { seq, user, rule }
        }
        10 => {
            let seq = r.u64("rule_delete.seq")?;
            let user = r.string("rule_delete.user")?;
            let rule_id = r.u64("rule_delete.rule_id")?;
            Frame::RuleDelete { seq, user, rule_id }
        }
        11 => {
            let seq = r.u64("rule_list.seq")?;
            let user = r.string("rule_list.user")?;
            Frame::RuleList { seq, user }
        }
        12 => {
            let seq = r.u64("rule_list_reply.seq")?;
            let count = r.u16("rule_list_reply.count")? as usize;
            let mut rules = Vec::with_capacity(count.min(256));
            for _ in 0..count {
                rules.push(r.rule()?);
            }
            Frame::RuleListReply { seq, rules }
        }
        t => return Err(FrameError::UnknownType(t)),
    };
    r.finish("trailing bytes")?;
    Ok(frame)
}

/// Splits the next whole frame off the front of `buf`: its header and
/// payload, which end `HEADER_LEN + payload.len()` bytes in. `Ok(None)`
/// while `buf` holds only the start of a frame — read more. The header is
/// checked as soon as it is in, so an oversized frame is refused before
/// its payload is buffered; the payload's CRC is checked by whichever
/// decoder reads it.
pub fn split_frame(buf: &[u8], max_payload: u32) -> Result<Option<(Header, &[u8])>, FrameError> {
    let Some(header_bytes) = buf.first_chunk::<HEADER_LEN>() else {
        return Ok(None);
    };
    let header = Header::parse(header_bytes, max_payload)?;
    let end = HEADER_LEN + header.payload_len as usize;
    Ok(buf.get(HEADER_LEN..end).map(|payload| (header, payload)))
}

/// Decodes one whole frame from the front of `buf`, a truncated one being
/// an error; returns the frame and how many bytes it consumed. For tests
/// and in-memory use: a byte stream's reader wants [`split_frame`].
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    let (header, payload) = split_frame(buf, DEFAULT_MAX_PAYLOAD)?
        .ok_or(FrameError::Malformed("truncated frame"))?;
    Ok((decode_payload(&header, payload)?, HEADER_LEN + payload.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_frame_kinds_round_trip() {
        let frames = [
            Frame::Submit {
                seq: 7,
                channel: WireChannel::Im,
                user: "alice".into(),
                source: "aladdin-gw".into(),
                body: "Basement Water Sensor ON".into(),
            },
            Frame::Ack { seq: 9 },
            Frame::Nack { seq: 3, reason: NackReason::RateLimited, retry_after_ms: 250 },
            Frame::Probe { nonce: 99 },
            Frame::ProbeReply {
                nonce: 99,
                stats: ProbeStats {
                    accepted: 10,
                    shed: 2,
                    decode_err: 1,
                    queue_depth: 5,
                    queue_capacity: 1024,
                },
            },
            Frame::StateUpdate {
                seq: 11,
                scope: "presence".into(),
                key: "alice".into(),
                value: "away".into(),
                ttl_ms: 30_000,
                source: "wish".into(),
            },
            Frame::StateQuery { seq: 12, scope: "chanhealth".into(), key: "im".into() },
            Frame::StateReply {
                seq: 12,
                found: true,
                value: "healthy".into(),
                generation: 41,
                ttl_remaining_ms: 12_500,
            },
            Frame::RuleUpsert {
                seq: 13,
                user: "alice".into(),
                rule: WireRule {
                    id: 0,
                    name: "storm".into(),
                    enabled: true,
                    severity: 2,
                    dedupe: Some("{source}/{body}".into()),
                    predicate: "source == \"flappy\"".into(),
                    action: 2,
                    window_ms: 60_000,
                    max_count: 100,
                    max_exemplars: 3,
                    key: None,
                },
            },
            Frame::RuleDelete { seq: 14, user: "alice".into(), rule_id: 7 },
            Frame::RuleList { seq: 15, user: "alice".into() },
            Frame::RuleListReply {
                seq: 15,
                rules: vec![
                    WireRule {
                        id: 1,
                        name: "quiet".into(),
                        enabled: false,
                        severity: 0,
                        dedupe: None,
                        predicate: "any".into(),
                        action: 1,
                        window_ms: 0,
                        max_count: 0,
                        max_exemplars: 0,
                        key: Some("{user}/{kind}".into()),
                    },
                    WireRule { id: 2, name: "all".into(), enabled: true, ..WireRule::default() },
                ],
            },
        ];
        for frame in frames {
            let bytes = encode_to_vec(&frame);
            let (decoded, consumed) = decode_frame(&bytes).expect("round trip");
            assert_eq!(decoded, frame);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn corrupt_crc_is_rejected() {
        let mut bytes = encode_to_vec(&Frame::Ack { seq: 42 });
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip one payload bit
        match decode_frame(&bytes) {
            Err(FrameError::BadCrc { .. }) => {}
            other => panic!("corrupted frame decoded as {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let bytes = encode_to_vec(&Frame::Submit {
            seq: 1,
            channel: WireChannel::Email,
            user: "u".into(),
            source: "s".into(),
            body: "b".into(),
        });
        // Every proper prefix must fail cleanly, never panic or succeed.
        for cut in 0..bytes.len() {
            assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn split_frame_tells_a_partial_frame_from_an_invalid_one() {
        let probe = encode_to_vec(&Frame::Probe { nonce: 5 });
        let mut stream = probe.clone();
        stream.extend_from_slice(&probe[..3]);
        let (header, payload) = split_frame(&stream, DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
        assert_eq!(HEADER_LEN + payload.len(), probe.len());
        assert_eq!(decode_payload(&header, payload).unwrap(), Frame::Probe { nonce: 5 });
        // Every prefix of a frame is "read more", never an error.
        for cut in 0..probe.len() {
            assert!(split_frame(&probe[..cut], DEFAULT_MAX_PAYLOAD).unwrap().is_none());
        }
        // A header over the cap is refused with none of its payload in.
        let mut big = probe[..HEADER_LEN].to_vec();
        big[6..10].copy_from_slice(&(DEFAULT_MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            split_frame(&big, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::TooLarge { .. })
        ));
        // A bad CRC is the decoder's to find, not the splitter's.
        stream[HEADER_LEN] ^= 1;
        let (header, payload) = split_frame(&stream, DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
        assert!(matches!(decode_payload(&header, payload), Err(FrameError::BadCrc { .. })));
    }

    #[test]
    fn wrong_magic_and_version_fail_fast() {
        let mut bytes = encode_to_vec(&Frame::Probe { nonce: 1 });
        bytes[0] = b'X';
        assert!(matches!(decode_frame(&bytes), Err(FrameError::BadMagic(_))));
        let mut bytes = encode_to_vec(&Frame::Probe { nonce: 1 });
        bytes[4] = 99;
        assert!(matches!(decode_frame(&bytes), Err(FrameError::BadVersion(99))));
        let mut bytes = encode_to_vec(&Frame::Probe { nonce: 1 });
        bytes[5] = 77;
        assert!(matches!(decode_frame(&bytes), Err(FrameError::UnknownType(77))));
    }

    proptest! {
        #[test]
        fn arbitrary_alert_frames_round_trip(
            seq in proptest::prelude::any::<u64>(),
            im in proptest::prelude::any::<bool>(),
            user in "[a-z0-9_.-]{0,24}",
            source in "\\PC{0,32}",
            body in "\\PC{0,200}",
        ) {
            let frame = Frame::Submit {
                seq,
                channel: if im { WireChannel::Im } else { WireChannel::Email },
                user,
                source,
                body,
            };
            let bytes = encode_to_vec(&frame);
            let (decoded, consumed) = decode_frame(&bytes).expect("encode -> decode");
            prop_assert_eq!(&decoded, &frame);
            prop_assert_eq!(consumed, bytes.len());

            // The borrowed reading sees the same fields, checks the same
            // CRC, and leaves every other frame type to `decode_payload`.
            let header = Header::parse(bytes[..HEADER_LEN].try_into().unwrap(), DEFAULT_MAX_PAYLOAD).unwrap();
            let payload = &bytes[HEADER_LEN..];
            let s = decode_submit(&header, payload).expect("a submit frame").expect("a valid one");
            let borrowed = Frame::Submit {
                seq: s.seq,
                channel: s.channel,
                user: s.user.into(),
                source: s.source.into(),
                body: s.body.into(),
            };
            prop_assert_eq!(&borrowed, &frame);
            let mut torn = payload.to_vec();
            torn[0] ^= 1;
            prop_assert!(matches!(decode_submit(&header, &torn), Some(Err(FrameError::BadCrc { .. }))));
            prop_assert!(decode_submit(&Header { frame_type: 2, ..header }, payload).is_none());
        }

        /// Satellite 2: the ProbeReply carries depth, shed count, and
        /// capacity intact for any counter values — the client's back-off
        /// decision sees exactly what the server measured.
        #[test]
        fn probe_reply_round_trips_arbitrary_stats(
            nonce in proptest::prelude::any::<u64>(),
            accepted in proptest::prelude::any::<u64>(),
            shed in proptest::prelude::any::<u64>(),
            decode_err in proptest::prelude::any::<u64>(),
            queue_depth in proptest::prelude::any::<u32>(),
            queue_capacity in proptest::prelude::any::<u32>(),
        ) {
            let frame = Frame::ProbeReply {
                nonce,
                stats: ProbeStats { accepted, shed, decode_err, queue_depth, queue_capacity },
            };
            let bytes = encode_to_vec(&frame);
            let (decoded, consumed) = decode_frame(&bytes).expect("encode -> decode");
            prop_assert_eq!(decoded, frame);
            prop_assert_eq!(consumed, bytes.len());
        }

        #[test]
        fn state_frames_round_trip(
            seq in proptest::prelude::any::<u64>(),
            scope in "[a-z]{1,16}",
            key in "\\PC{0,32}",
            value in "\\PC{0,64}",
            ttl_ms in proptest::prelude::any::<u32>(),
            source in "\\PC{0,24}",
            found in proptest::prelude::any::<bool>(),
            generation in proptest::prelude::any::<u64>(),
        ) {
            let frames = [
                Frame::StateUpdate {
                    seq,
                    scope: scope.clone(),
                    key: key.clone(),
                    value: value.clone(),
                    ttl_ms,
                    source,
                },
                Frame::StateQuery { seq, scope, key },
                Frame::StateReply { seq, found, value, generation, ttl_remaining_ms: ttl_ms },
            ];
            for frame in frames {
                let bytes = encode_to_vec(&frame);
                let (decoded, consumed) = decode_frame(&bytes).expect("encode -> decode");
                prop_assert_eq!(decoded, frame);
                prop_assert_eq!(consumed, bytes.len());
            }
        }

        #[test]
        fn rule_frames_round_trip(
            seq in proptest::prelude::any::<u64>(),
            user in "[a-z0-9_.-]{0,24}",
            id in proptest::prelude::any::<u64>(),
            name in "\\PC{0,24}",
            enabled in proptest::prelude::any::<bool>(),
            severity in 0u8..=3,
            dedupe in proptest::option::of("\\PC{0,32}"),
            predicate in "\\PC{0,64}",
            action in 0u8..=2,
            window_ms in proptest::prelude::any::<u32>(),
            max_count in proptest::prelude::any::<u32>(),
            max_exemplars in proptest::prelude::any::<u8>(),
            key in proptest::option::of("\\PC{0,32}"),
        ) {
            let rule = WireRule {
                id, name, enabled, severity, dedupe, predicate,
                action, window_ms, max_count, max_exemplars, key,
            };
            let frames = [
                Frame::RuleUpsert { seq, user: user.clone(), rule: rule.clone() },
                Frame::RuleDelete { seq, user: user.clone(), rule_id: id },
                Frame::RuleList { seq, user },
                Frame::RuleListReply { seq, rules: vec![rule] },
            ];
            for frame in frames {
                let bytes = encode_to_vec(&frame);
                let (decoded, consumed) = decode_frame(&bytes).expect("encode -> decode");
                prop_assert_eq!(decoded, frame);
                prop_assert_eq!(consumed, bytes.len());
            }
        }

        #[test]
        fn bit_flips_never_decode_to_a_different_frame(
            seq in proptest::prelude::any::<u64>(),
            body in "\\PC{0,64}",
            flip_byte in proptest::prelude::any::<u16>(),
            flip_bit in 0u8..8,
        ) {
            let frame = Frame::Submit {
                seq,
                channel: WireChannel::Im,
                user: "user".into(),
                source: "src".into(),
                body,
            };
            let mut bytes = encode_to_vec(&frame);
            let idx = flip_byte as usize % bytes.len();
            bytes[idx] ^= 1 << flip_bit;
            // A flipped bit must either fail to decode or decode back to
            // the exact original (impossible here since we flipped one
            // bit, unless the flip landed in ignored space — there is
            // none). Silently producing a different frame is the bug.
            if let Ok((decoded, _)) = decode_frame(&bytes) {
                prop_assert_eq!(decoded, frame);
            }
        }
    }
}
