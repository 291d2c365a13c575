//! `GatewayClient` — a blocking client for the gateway protocol with
//! reconnect and bounded retry.
//!
//! The client is deliberately simple (one request in flight, blocking
//! I/O): alert *sources* in the paper are gateways and proxies that can
//! afford a synchronous submit path, and the dependability burden sits
//! server-side. On an I/O error the client reconnects (bounded attempts,
//! fixed backoff) and **resends** the unanswered submission — delivery is
//! therefore at-least-once: a submission whose connection died between
//! the server's admit and the client reading the ack may be duplicated
//! on retry. SIMBA's user-side duplicate detection (paper §4.2.1, the
//! origin-timestamp dedup key) exists for exactly this class of
//! transport retry.

use crate::proto::{
    self, Frame, FrameError, Header, NackReason, ProbeStats, WireChannel, WireRule, HEADER_LEN,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Read/write timeout for a single request/response exchange.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Connection (and per-request resend) attempts before giving up.
    pub max_attempts: u32,
    /// Pause between attempts.
    pub retry_backoff: Duration,
    /// Largest reply payload accepted.
    pub max_payload: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_attempts: 4,
            retry_backoff: Duration::from_millis(25),
            max_payload: proto::DEFAULT_MAX_PAYLOAD,
        }
    }
}

/// Why a client call failed for good (after its bounded retries).
#[derive(Debug)]
pub enum ClientError {
    /// Could not (re)establish the connection.
    Connect(std::io::Error),
    /// The exchange failed on an established connection.
    Io(std::io::Error),
    /// The server's reply failed to decode.
    Frame(FrameError),
    /// The server replied with an unexpected frame.
    Protocol(&'static str),
    /// The gateway nacked `Unsupported`: it lacks the subsystem this
    /// request needs (no soft-state store, no rules engine). Permanent —
    /// the client never retries it, and neither should callers.
    Unsupported(&'static str),
    /// The gateway nacked `Rejected`: the request decoded but the rules
    /// engine refused it (invalid predicate, unknown rule id, per-user
    /// bound). Permanent — resending the identical request cannot
    /// succeed.
    Rejected(&'static str),
}

impl ClientError {
    /// True for errors retrying cannot fix: the server understood the
    /// request and refused it for good.
    pub fn is_permanent(&self) -> bool {
        matches!(self, ClientError::Unsupported(_) | ClientError::Rejected(_))
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect: {e}"),
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Frame(e) => write!(f, "frame: {e}"),
            ClientError::Protocol(what) => write!(f, "protocol: {what}"),
            ClientError::Unsupported(what) => {
                write!(f, "unsupported by this gateway (permanent): {what}")
            }
            ClientError::Rejected(what) => write!(f, "rejected (permanent): {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Server verdict on one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitResult {
    /// Admitted: the alert is in the intake queue and will be routed.
    Accepted,
    /// Refused, with the reason and (for shed reasons) a back-off hint.
    Rejected {
        /// Why the gateway refused.
        reason: NackReason,
        /// Suggested back-off before retrying.
        retry_after_ms: u32,
    },
}

/// A fact read back from the gateway's soft-state store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateFact {
    /// The stored value.
    pub value: String,
    /// Store-wide monotone publication counter.
    pub generation: u64,
    /// Milliseconds until the fact expires (as of the read).
    pub ttl_remaining_ms: u32,
}

/// A connection to a gateway, reconnecting as needed.
#[derive(Debug)]
pub struct GatewayClient {
    addr: String,
    config: ClientConfig,
    stream: Option<TcpStream>,
    seq: u64,
    /// Reconnections performed so far (visible for loadgen accounting).
    pub reconnects: u64,
}

impl GatewayClient {
    /// Creates the client and eagerly dials `addr` (with bounded retry).
    pub fn connect(addr: impl Into<String>, config: ClientConfig) -> Result<Self, ClientError> {
        let mut client = GatewayClient {
            addr: addr.into(),
            config,
            stream: None,
            seq: 0,
            reconnects: 0,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Submits one alert, reconnecting and resending on connection
    /// failure (at-least-once; see the module docs).
    pub fn submit(
        &mut self,
        channel: WireChannel,
        user: &str,
        source: &str,
        body: &str,
    ) -> Result<SubmitResult, ClientError> {
        self.seq += 1;
        let seq = self.seq;
        let request = Frame::Submit {
            seq,
            channel,
            user: user.to_string(),
            source: source.to_string(),
            body: body.to_string(),
        };
        match self.exchange_with_retry(&request, "alert submission")? {
            Frame::Ack { seq: got } if got == seq => Ok(SubmitResult::Accepted),
            Frame::Nack { seq: got, reason, retry_after_ms } if got == seq || got == 0 => {
                Ok(SubmitResult::Rejected { reason, retry_after_ms })
            }
            _ => Err(ClientError::Protocol("reply did not match the submission")),
        }
    }

    /// Asks the gateway for its health counters.
    pub fn probe(&mut self) -> Result<ProbeStats, ClientError> {
        self.seq += 1;
        let nonce = self.seq;
        match self.exchange_with_retry(&Frame::Probe { nonce }, "probe")? {
            Frame::ProbeReply { nonce: got, stats } if got == nonce => Ok(stats),
            _ => Err(ClientError::Protocol("reply did not match the probe")),
        }
    }

    /// Publishes a soft-state fact through the gateway. Like `submit`,
    /// retries across reconnects make this at-least-once — harmless
    /// here, since a duplicate put merely refreshes the fact.
    pub fn state_put(
        &mut self,
        scope: &str,
        key: &str,
        value: &str,
        ttl_ms: u32,
        source: &str,
    ) -> Result<SubmitResult, ClientError> {
        self.seq += 1;
        let seq = self.seq;
        let request = Frame::StateUpdate {
            seq,
            scope: scope.to_string(),
            key: key.to_string(),
            value: value.to_string(),
            ttl_ms,
            source: source.to_string(),
        };
        match self.exchange_with_retry(&request, "state update (gateway has no store)")? {
            Frame::Ack { seq: got } if got == seq => Ok(SubmitResult::Accepted),
            Frame::Nack { seq: got, reason, retry_after_ms } if got == seq || got == 0 => {
                Ok(SubmitResult::Rejected { reason, retry_after_ms })
            }
            _ => Err(ClientError::Protocol("reply did not match the state update")),
        }
    }

    /// Reads a soft-state fact back; `None` when it is absent or
    /// expired. A gateway running without a store nacks `Unsupported`,
    /// surfaced as the permanent [`ClientError::Unsupported`].
    pub fn state_get(
        &mut self,
        scope: &str,
        key: &str,
    ) -> Result<Option<StateFact>, ClientError> {
        self.seq += 1;
        let seq = self.seq;
        let request = Frame::StateQuery {
            seq,
            scope: scope.to_string(),
            key: key.to_string(),
        };
        match self.exchange_with_retry(&request, "state query (gateway has no store)")? {
            Frame::StateReply { seq: got, found, value, generation, ttl_remaining_ms }
                if got == seq =>
            {
                Ok(found.then_some(StateFact { value, generation, ttl_remaining_ms }))
            }
            _ => Err(ClientError::Protocol("reply did not match the state query")),
        }
    }

    /// Creates (`rule.id == 0`) or replaces a user-owned alert rule,
    /// returning the stored rule with its engine-assigned id. A gateway
    /// without a rules engine yields [`ClientError::Unsupported`]; an
    /// engine refusal (bad predicate, unknown id, per-user bound) yields
    /// [`ClientError::Rejected`] — both permanent, never retried.
    pub fn rule_upsert(&mut self, user: &str, rule: &WireRule) -> Result<WireRule, ClientError> {
        self.seq += 1;
        let seq = self.seq;
        let request = Frame::RuleUpsert { seq, user: user.to_string(), rule: rule.clone() };
        match self.exchange_with_retry(&request, "rule upsert")? {
            Frame::RuleListReply { seq: got, mut rules } if got == seq && rules.len() == 1 => {
                Ok(rules.remove(0))
            }
            _ => Err(ClientError::Protocol("reply did not match the rule upsert")),
        }
    }

    /// Deletes a rule (idempotent: deleting an unknown id still acks).
    pub fn rule_delete(&mut self, user: &str, rule_id: u64) -> Result<(), ClientError> {
        self.seq += 1;
        let seq = self.seq;
        let request = Frame::RuleDelete { seq, user: user.to_string(), rule_id };
        match self.exchange_with_retry(&request, "rule delete")? {
            Frame::Ack { seq: got } if got == seq => Ok(()),
            _ => Err(ClientError::Protocol("reply did not match the rule delete")),
        }
    }

    /// Lists a user's rules, ordered by id.
    pub fn rule_list(&mut self, user: &str) -> Result<Vec<WireRule>, ClientError> {
        self.seq += 1;
        let seq = self.seq;
        let request = Frame::RuleList { seq, user: user.to_string() };
        match self.exchange_with_retry(&request, "rule list")? {
            Frame::RuleListReply { seq: got, rules } if got == seq => Ok(rules),
            _ => Err(ClientError::Protocol("reply did not match the rule list")),
        }
    }

    /// Severs the connection without telling the server — the
    /// fault-injection hook loadgens use to model client crashes. The
    /// next call transparently reconnects.
    pub fn drop_connection(&mut self) {
        self.stream = None;
    }

    /// True while a TCP connection is held.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    fn ensure_connected(&mut self) -> Result<&mut TcpStream, ClientError> {
        if self.stream.is_none() {
            let mut last_err = None;
            for attempt in 0..self.config.max_attempts.max(1) {
                if attempt > 0 {
                    std::thread::sleep(self.config.retry_backoff);
                }
                match TcpStream::connect(&self.addr) {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
                        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                        if self.seq > 0 {
                            self.reconnects += 1;
                        }
                        self.stream = Some(stream);
                        last_err = None;
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            if let Some(e) = last_err {
                return Err(ClientError::Connect(e));
            }
        }
        // Reachable with `stream == None` only when the address list is
        // empty — surface that as an error instead of panicking.
        self.stream
            .as_mut()
            .ok_or(ClientError::Protocol("no gateway addresses configured"))
    }

    /// One request/response exchange, retrying across reconnects on
    /// connection-level failures (bounded by `max_attempts`). Permanent
    /// nacks (`Unsupported`, `Rejected`) are classified here, centrally,
    /// so *no* request path ever retries or resends one — they surface
    /// as typed errors tagged with `what`.
    fn exchange_with_retry(
        &mut self,
        request: &Frame,
        what: &'static str,
    ) -> Result<Frame, ClientError> {
        let bytes = proto::encode_to_vec(request);
        let mut last_err = ClientError::Protocol("no attempts configured");
        for _ in 0..self.config.max_attempts.max(1) {
            match self.exchange_once(&bytes) {
                Ok(Frame::Nack { reason: NackReason::Unsupported, .. }) => {
                    return Err(ClientError::Unsupported(what));
                }
                Ok(Frame::Nack { reason: NackReason::Rejected, .. }) => {
                    return Err(ClientError::Rejected(what));
                }
                Ok(frame) => return Ok(frame),
                Err(err @ (ClientError::Frame(_) | ClientError::Protocol(_))) => {
                    // The connection decoded garbage: don't trust it.
                    self.stream = None;
                    return Err(err);
                }
                Err(err) => {
                    self.stream = None;
                    last_err = err;
                }
            }
        }
        Err(last_err)
    }

    fn exchange_once(&mut self, request_bytes: &[u8]) -> Result<Frame, ClientError> {
        let max_payload = self.config.max_payload;
        let stream = self.ensure_connected()?;
        stream.write_all(request_bytes).map_err(ClientError::Io)?;
        let mut header_buf = [0u8; HEADER_LEN];
        stream.read_exact(&mut header_buf).map_err(ClientError::Io)?;
        let header = Header::parse(&header_buf, max_payload).map_err(ClientError::Frame)?;
        let mut payload = vec![0u8; header.payload_len as usize];
        stream.read_exact(&mut payload).map_err(ClientError::Io)?;
        proto::decode_payload(&header, &payload).map_err(ClientError::Frame)
    }
}
