//! The canonical telemetry registry: every point and metric name the
//! workspace may emit, with its kind, owning scope, and a one-line doc.
//!
//! This is the machine-checked contract behind `simba-analyze` (paper
//! §4: the *system*, not grep discipline, notices drift). A name used
//! with a telemetry API anywhere in the workspace must appear here; a
//! name listed here must actually be emitted somewhere; and the
//! `Observability` table in the README is generated from this module,
//! so the docs cannot drift either.
//!
//! # Naming convention
//!
//! Names are dotted lowercase `scope.snake_case`. The leading scope names
//! the emitting subsystem and must be one declared by the emitting crate
//! (see [`CRATE_SCOPES`]). Where a concept needs both an event point and
//! a running counter, both share **one** name (e.g. `client.restart` is
//! an `Event` *and* a `Counter`); the historical `x`/`xs` split
//! (`wal.append` event vs `wal.appends` counter) survives only where the
//! two genuinely measure different things.

/// How a registered name is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointKind {
    /// A structured [`crate::Event`] on the sink.
    Event,
    /// A monotonically increasing counter in the [`crate::MetricsRegistry`].
    Counter,
    /// A last-value-wins gauge.
    Gauge,
    /// A log-bucketed millisecond histogram.
    Histogram,
    /// A [`crate::Span`]: emits an event under this name plus a
    /// `<name>_ms` histogram (registered separately).
    Span,
    /// A count/mean/min/max summary in the sim-side [`crate::MetricSet`]
    /// (`observe` / `observe_duration` / `summary`).
    Summary,
}

impl PointKind {
    /// Lowercase label for tables and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            PointKind::Event => "event",
            PointKind::Counter => "counter",
            PointKind::Gauge => "gauge",
            PointKind::Histogram => "histogram",
            PointKind::Span => "span",
            PointKind::Summary => "summary",
        }
    }
}

/// One registry entry.
#[derive(Debug, Clone, Copy)]
pub struct PointDef {
    /// The dotted name exactly as emitted.
    pub name: &'static str,
    /// Every kind this name is recorded as.
    pub kinds: &'static [PointKind],
    /// The owning scope — the name's first dotted segment.
    pub scope: &'static str,
    /// One-line description.
    pub doc: &'static str,
}

// `Span` stays out of this import until a span point is registered — the
// live stack currently emits none (the `span` API is exercised only by
// the telemetry crate's own tests).
use PointKind::{Counter, Event, Gauge, Histogram, Summary};

macro_rules! point {
    ($name:literal, [$($kind:ident),+], $scope:literal, $doc:literal) => {
        PointDef { name: $name, kinds: &[$($kind),+], scope: $scope, doc: $doc }
    };
}

/// Every scope a workspace crate may emit under.
pub const SCOPES: &[&str] = &[
    "mab",
    "wal",
    "delivery",
    "gateway",
    "host",
    "client",
    "net",
    "runtime",
    "stabilize",
    "rejuvenate",
    "store",
    "ledger",
    "rules",
    // Simulation-harness scopes (fault taxonomy of the paper's Table 2).
    "sanity",
    "power",
    "operator",
    "mdc",
    "source",
    "user",
    "monkey",
    "im",
];

/// Scopes whose production names are assembled at runtime (for example
/// `net.{channel}.{suffix}` in `ChannelScope::metric`), so the analyzer
/// cannot find a production string literal for them. For these scopes
/// *any* workspace reference — including test assertions — satisfies
/// the unemitted-point check.
pub const DYNAMIC_SCOPES: &[&str] = &["net"];

/// Scopes each crate may emit under in non-test code. Crates not listed
/// are unrestricted (drivers and harnesses that emit on behalf of the
/// whole stack); the `telemetry` crate itself is exempt from registry
/// rules entirely — its tests and examples use placeholder names.
pub const CRATE_SCOPES: &[(&str, &[&str])] = &[
    ("core", &["mab", "wal", "delivery", "stabilize", "rejuvenate"]),
    ("runtime", &["runtime", "host", "mab", "wal", "delivery"]),
    ("net", &["net"]),
    ("store", &["store"]),
    ("ledger", &["ledger"]),
    ("rules", &["rules"]),
    ("client", &["client"]),
    ("gateway", &["gateway"]),
    ("xml", &[]),
    ("sources", &[]),
    ("baselines", &[]),
    ("analyze", &[]),
];

/// The registry. Kept sorted by name; `cargo test -p simba-telemetry`
/// asserts order and uniqueness.
pub const POINTS: &[PointDef] = &[
    point!("client.anomalies", [Counter], "client", "running count of client-state anomalies the sanity checker found"),
    point!("client.anomaly", [Event], "client", "one detected client anomaly, with its classified kind"),
    point!("client.dialog_dismissed", [Event, Counter], "client", "a stuck modal dialog was dismissed by the sanity checker"),
    point!("client.re_logons", [Counter], "client", "IM re-logons forced to clear a wedged session"),
    point!("client.restart", [Event, Counter], "client", "a desktop client process was restarted to repair it"),
    point!("client.sanity_check", [Event, Counter], "client", "one periodic client sanity-check sweep ran"),
    point!("client.unrepairable", [Counter], "client", "sanity sweeps that exhausted every repair and escalated"),
    point!("delivery.ack_latency_ms", [Histogram], "delivery", "time from send to user acknowledgement"),
    point!("delivery.ack_timeout", [Event, Counter], "delivery", "an acknowledgement window expired and the strategy moved on"),
    point!("delivery.acked", [Event, Counter], "delivery", "an alert was acknowledged by its user"),
    point!("delivery.block_entered", [Event, Counter], "delivery", "delivery entered a user's blocked (do-not-disturb) window"),
    point!("delivery.block_skipped", [Event, Counter], "delivery", "a delivery step was skipped because the user's block window was active"),
    point!("delivery.exhausted", [Event, Counter], "delivery", "every strategy step failed; the alert gave up undelivered"),
    point!("delivery.send_failed", [Event, Counter], "delivery", "one strategy step's send attempt failed"),
    point!("delivery.sends", [Counter], "delivery", "delivery send attempts across every channel"),
    point!("delivery.unconfirmed", [Event, Counter], "delivery", "an alert ended unconfirmed after its final step"),
    point!("gateway.accepted", [Counter], "gateway", "TCP connections accepted by the ingestion gateway"),
    point!("gateway.buckets_evicted", [Counter], "gateway", "idle per-source rate-limit buckets evicted from the admission map"),
    point!("gateway.conn_opened", [Counter], "gateway", "gateway connections that completed the protocol handshake"),
    point!("gateway.conn_shed", [Event, Counter], "gateway", "a connection was closed by admission control at accept time"),
    point!("gateway.decode_err", [Event, Counter], "gateway", "an inbound frame failed to decode and was discarded"),
    point!("gateway.idle_closed", [Event, Counter], "gateway", "a connection was reaped after its idle deadline"),
    point!("gateway.queue_depth", [Gauge], "gateway", "current depth of the gateway's ingest queue"),
    point!("gateway.shed", [Event, Counter], "gateway", "an alert was load-shed instead of enqueued"),
    point!("gateway.unknown_user", [Event, Counter], "gateway", "an alert named a user no MAB is hosting"),
    point!("host.buddy_crashed", [Counter], "host", "buddies that crashed on a shard worker and were restarted with log replay"),
    point!("host.commit_failed", [Counter], "host", "shard-log group commits that failed (the batch's effects were withheld)"),
    point!("host.group_commits", [Counter], "host", "shard-log group commits (one fsync each in file mode)"),
    point!("host.hibernated", [Counter], "host", "idle buddies hibernated by the host: counters folded into the shard's totals, buddy dropped"),
    point!("host.notice_dropped", [Counter], "host", "MAB notices dropped because the host's notice queue was full"),
    point!("host.rehydrated", [Counter], "host", "hibernated users given a fresh buddy by a routed alert"),
    point!("host.routed", [Counter], "host", "alerts the multi-user host routed to a per-user MAB"),
    point!("host.segments_rotated", [Counter], "host", "shard-log segment rotations (history compacted to live records)"),
    point!("host.shard_depth", [Gauge], "host", "current inbound queue depth of a shard worker"),
    point!("host.unrouted", [Event, Counter], "host", "an alert arrived for a user the host does not run"),
    point!("host.users", [Counter], "host", "users registered on the host over its lifetime"),
    point!("im.one_way", [Summary], "im", "sim: one-way source-to-client IM latency (paper fig. E1)"),
    point!("ledger.commit_batch", [Counter], "ledger", "delivery-ledger group commits (one fsync each in file mode)"),
    point!("ledger.dead_lettered", [Counter], "ledger", "records parked in the bounded dead-letter queue after max attempts"),
    point!("ledger.enqueued", [Counter], "ledger", "channel attempts enqueued as durable ledger records"),
    point!("ledger.idempotent_dedup", [Counter], "ledger", "redelivered sends absorbed by idempotency-key dedupe (at-least-once made exactly-once-visible)"),
    point!("ledger.lease_expired", [Counter], "ledger", "expired leases reclaimed from (presumed-dead) workers"),
    point!("ledger.leased", [Counter], "ledger", "time-bounded leases granted to ledger workers"),
    point!("ledger.retried", [Counter], "ledger", "failed sends rescheduled with exponential backoff"),
    point!("mab.ack", [Event], "mab", "MAB observed a user acknowledgement for an alert"),
    point!("mab.acked", [Counter], "mab", "alerts acknowledged while owned by the MAB"),
    point!("mab.crashed", [Event], "mab", "the MAB detected or simulated an abnormal termination"),
    point!("mab.crashes", [Counter], "mab", "MAB crash count (live and simulated)"),
    point!("mab.deliveries_started", [Counter], "mab", "delivery state machines the MAB has started"),
    point!("mab.hangs", [Counter], "mab", "sim: MAB hang faults injected (watchdog-detectable)"),
    point!("mab.im_undeliverable", [Counter], "mab", "sim: IM sends the MAB abandoned as undeliverable"),
    point!("mab.ingest_deferred", [Counter], "mab", "sim: inbound alerts deferred because the MAB was down"),
    point!("mab.mode_overridden", [Event, Counter], "mab", "a delivery's mode was adjusted by live presence/health facts"),
    point!("mab.outbound_client_failure", [Counter], "mab", "sim: outbound pushes that failed at the client edge"),
    point!("mab.received", [Event, Counter], "mab", "an alert entered the MAB from a source or gateway"),
    point!("mab.rejected", [Event, Counter], "mab", "an alert was rejected at ingest (duplicate, invalid, or shed)"),
    point!("mab.rejuvenations", [Counter], "mab", "proactive MAB rejuvenation restarts"),
    point!("mab.remote_commands", [Counter], "mab", "remote-control commands (wish-list protocol) applied"),
    point!("mab.replayed", [Counter], "mab", "alerts restored from the WAL across MAB restarts"),
    point!("mab.retired", [Event, Counter], "mab", "an alert reached a terminal state and left the MAB"),
    point!("mab.route_lag_ms", [Histogram], "mab", "queueing delay between ingest and routing"),
    point!("mab.routed", [Event, Counter], "mab", "an alert was matched to a user profile and routed"),
    point!("mab.unsubscribed", [Event, Counter], "mab", "an alert matched no subscription and was dropped"),
    point!("mdc.reboots", [Counter], "mdc", "sim: full machine reboots of the MAB's host (Table 2)"),
    point!("mdc.restarts", [Counter], "mdc", "sim: MDC process restarts of a crashed MAB (Table 2)"),
    point!("monkey.dismissed", [Counter], "monkey", "sim: dialogs the chaos monkey's sweep dismissed"),
    point!("monkey.stuck", [Counter], "monkey", "sim: dialogs the chaos monkey left stuck for the operator"),
    point!("net.email.delivered", [Counter], "net", "emails that reached the user's mailbox"),
    point!("net.email.latency_ms", [Histogram], "net", "email channel delivery latency"),
    point!("net.email.lost", [Counter], "net", "emails silently lost in transit (no bounce)"),
    point!("net.email.sends", [Counter], "net", "email send attempts"),
    point!("net.im.delivered", [Counter], "net", "IM messages that reached the client"),
    point!("net.im.latency_ms", [Histogram], "net", "IM channel delivery latency"),
    point!("net.im.outage_rejects", [Counter], "net", "IM sends rejected during a simulated service outage"),
    point!("net.im.rejected", [Event], "net", "one IM send was rejected by the service"),
    point!("net.im.rejects", [Counter], "net", "IM sends rejected by the service"),
    point!("net.im.sends", [Counter], "net", "IM send attempts"),
    point!("net.im.sent", [Event], "net", "one IM send was accepted by the service"),
    point!("net.sms.delivered", [Counter], "net", "SMS messages that reached the pager/phone"),
    point!("net.sms.dropped", [Counter], "net", "SMS messages dropped by the carrier"),
    point!("net.sms.sends", [Counter], "net", "SMS send attempts"),
    point!("operator.manual_fix", [Counter], "operator", "sim: faults only a human operator could clear (Table 2)"),
    point!("power.outages", [Counter], "power", "sim: power-loss episodes injected at the MAB's site"),
    point!("rejuvenate.triggered", [Event], "rejuvenate", "the rejuvenation policy decided a proactive restart is due"),
    point!("rules.critical_bypass", [Counter], "rules", "critical alerts that cut through a digest rule and delivered immediately"),
    point!("rules.deduped", [Counter], "rules", "alerts suppressed because their dedupe-key template hit a recently seen key"),
    point!("rules.deletes", [Counter], "rules", "rules removed from the rules log"),
    point!("rules.digest_absorbed", [Counter], "rules", "alerts absorbed into a pending digest window instead of routed"),
    point!("rules.digest_escalated", [Counter], "rules", "digest windows flushed early by a count cap or severity escalation"),
    point!("rules.digest_flushed", [Counter], "rules", "digest alerts flushed to delivery (deadline, cap, or escalation)"),
    point!("rules.evaluated", [Counter], "rules", "alerts pushed through the rule engine's hot path"),
    point!("rules.loaded", [Counter], "rules", "rules replayed from the rules log at engine open"),
    point!("rules.matched", [Counter], "rules", "evaluations where some rule matched (any action)"),
    point!("rules.rejected", [Counter], "rules", "rule mutations rejected (parse error, per-user bound, unknown id)"),
    point!("rules.suppressed", [Counter], "rules", "alerts dropped by a suppress rule or dedupe template"),
    point!("rules.upserts", [Counter], "rules", "rules created or replaced in the rules log"),
    point!("runtime.acks_sent", [Counter], "runtime", "acknowledgements the runtime forwarded to sources"),
    point!("runtime.rejuvenations", [Counter], "runtime", "proactive rejuvenation restarts performed"),
    point!("runtime.sends", [Counter], "runtime", "channel sends dispatched by the runtime"),
    point!("runtime.stale_dropped", [Counter], "runtime", "acks and timer wakeups dropped because their delivery or buddy incarnation was gone"),
    point!("sanity.client_restart", [Counter], "sanity", "sim: client restarts performed by the sanity checker (Table 2)"),
    point!("sanity.dialog_dismissed", [Counter], "sanity", "sim: stuck dialogs dismissed by the sanity checker (Table 2)"),
    point!("sanity.relogon", [Counter], "sanity", "sim: IM re-logons performed by the sanity checker (Table 2)"),
    point!("sanity.unrepairable", [Counter], "sanity", "sim: sanity sweeps that escalated past every repair"),
    point!("source.ack_rtt", [Summary], "source", "sim: source-observed ack round-trip time"),
    point!("source.ack_timeout", [Counter], "source", "sim: source-side ack windows that expired"),
    point!("source.email_fallback", [Counter], "source", "sim: alerts a source re-sent via email after IM failure"),
    point!("source.emitted", [Counter], "source", "sim: alerts emitted by sources"),
    point!("source.im_send_failed", [Counter], "source", "sim: source-to-MAB IM handoffs that failed"),
    point!("stabilize.check", [Event], "stabilize", "one self-stabilization audit of delivery state ran"),
    point!("stabilize.checks", [Counter], "stabilize", "self-stabilization audits run"),
    point!("stabilize.violation", [Event], "stabilize", "an audit found and repaired an invariant violation"),
    point!("stabilize.violations", [Counter], "stabilize", "invariant violations repaired by audits"),
    point!("store.evicted", [Counter], "store", "facts shed by per-scope LRU capacity bounds"),
    point!("store.expired", [Counter], "store", "facts dropped at end of TTL (lazy read or sweep)"),
    point!("store.hits", [Counter], "store", "store reads that returned a live fact"),
    point!("store.misses", [Counter], "store", "store reads that found nothing live"),
    point!("store.puts", [Counter], "store", "facts published into the soft-state store"),
    point!("store.size", [Gauge], "store", "facts currently held across all shards"),
    point!("store.sub_dropped", [Counter], "store", "lagging subscribers dropped to keep writers unblocked"),
    point!("store.subscribers", [Gauge], "store", "live store-event subscribers"),
    point!("store.sweeps", [Counter], "store", "periodic TTL sweep passes completed"),
    point!("user.duplicate_sightings", [Counter], "user", "sim: times a user saw the same alert more than once"),
    point!("user.email_sent", [Counter], "user", "sim: alert emails that reached a user"),
    point!("user.im_send_failed", [Counter], "user", "sim: MAB-to-user IM pushes that failed"),
    point!("user.im_sent", [Counter], "user", "sim: alert IMs that reached a user's client"),
    point!("user.reach_latency", [Summary], "user", "sim: emit-to-first-contact latency per alert"),
    point!("user.seen", [Counter], "user", "sim: alerts a user actually saw"),
    point!("user.seen_latency", [Summary], "user", "sim: emit-to-seen latency per alert"),
    point!("user.sms_sent", [Counter], "user", "sim: alert SMS messages that reached a user"),
    point!("wal.append", [Event], "wal", "one record was appended to the write-ahead log"),
    point!("wal.appends", [Counter], "wal", "WAL records appended"),
    point!("wal.replayed", [Event], "wal", "WAL replay finished after a restart, with record counts"),
    point!("wal.replays", [Counter], "wal", "WAL replays performed across restarts"),
];

/// Looks up a registered name.
pub fn find(name: &str) -> Option<&'static PointDef> {
    POINTS
        .binary_search_by(|def| def.name.cmp(name))
        .ok()
        .map(|i| &POINTS[i])
}

/// Renders the registry as a GitHub-markdown table — the generator behind
/// the README's Observability section (`simba-analyze points`).
pub fn markdown_table() -> String {
    let mut out = String::from("| Name | Kind | Scope | Meaning |\n|---|---|---|---|\n");
    for def in POINTS {
        let kinds: Vec<&str> = def.kinds.iter().map(|k| k.label()).collect();
        out.push_str(&format!(
            "| `{}` | {} | `{}` | {} |\n",
            def.name,
            kinds.join(" + "),
            def.scope,
            def.doc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_and_unique() {
        for pair in POINTS.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "POINTS must stay sorted/unique: {} then {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn scope_matches_name_prefix() {
        for def in POINTS {
            let prefix = def.name.split('.').next().unwrap_or_default();
            assert_eq!(def.scope, prefix, "scope field must match {}", def.name);
            assert!(
                SCOPES.contains(&def.scope),
                "scope {} of {} not declared",
                def.scope,
                def.name
            );
        }
    }

    #[test]
    fn find_hits_and_misses() {
        assert!(find("wal.append").is_some());
        assert!(find("wal.appendz").is_none());
    }

    #[test]
    fn markdown_table_has_every_point() {
        let table = markdown_table();
        for def in POINTS {
            assert!(table.contains(def.name), "{} missing from table", def.name);
        }
    }
}
