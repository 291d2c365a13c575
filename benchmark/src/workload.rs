//! The workloads and their seeded alert generator.
//!
//! Everything the pipeline sees is generated here from `--seed`; the
//! program under test receives only frames. Rates are constants frozen
//! from seed-commit measurements (README, "Calibration"), never derived
//! at run time, so a later commit is offered exactly the same load.

use simba_gateway::proto::{self, Frame, WireChannel};

/// Loadgen connections (and threads). Users are partitioned over them,
/// so one user's alerts always travel one connection and stay FIFO.
pub const CONNS: usize = 2;

/// Alerts per storm group: 8 flap, 1 chatty, 1 normal, to one user.
pub const STORM_GROUP: usize = 10;
/// One flap alert in this many carries `PANIC`.
const PANIC_ONE_IN: u64 = 1_000;

/// The classifier keyword every body (and so every digest exemplar)
/// carries; without it the buddy rejects the alert as unclassifiable.
pub const KEYWORD: &str = "Sensor";
pub const SOURCE_NORMAL: &str = "bench-gw";
pub const SOURCE_FLAP: &str = "flap";
pub const SOURCE_CHATTY: &str = "chatty";

/// Which rules each user owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rules {
    /// Engine attached, no rules: every evaluation falls through.
    None,
    /// One deliver rule per user.
    OneDeliver,
    /// PANIC override, flap digest, chatty suppress, catch-all deliver.
    Storm,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// A seeded permutation of the active users, cycled.
    Cycle,
    /// Uniform draws over the active users.
    Uniform,
    /// Groups of [`STORM_GROUP`] to one user, users cycled.
    StormGroups,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub registered_users: usize,
    pub active_users: usize,
    pub rules: Rules,
    pub traffic: Traffic,
    pub body_bytes: usize,
    /// Shard logs, ledger journal and rules log on files under the data
    /// dir instead of in memory.
    pub file_backed: bool,
    /// `None` keeps the library default (5 min: nobody hibernates).
    pub hibernate_after_ms: Option<u64>,
    /// Open-loop offered rate, frames per second over all connections.
    pub open_rate_per_s: u64,
    /// Open loop only: the sink fails the first attempt of one alert in
    /// this many (0 = never).
    pub fail_one_in: u64,
}

/// The workloads `BENCHMARK.json` names, in the order `all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady",
        why: "resident users, small bodies, all in memory: every alert travels the whole path; the ledger back half is the larger share",
        registered_users: 2_000,
        active_users: 2_000,
        rules: Rules::OneDeliver,
        traffic: Traffic::Cycle,
        body_bytes: 48,
        file_backed: false,
        hibernate_after_ms: None,
        open_rate_per_s: 30_000,
        fail_one_in: 0,
    },
    Workload {
        name: "durable",
        why: "steady traffic with shard logs, ledger journal and rules log on files: commit cadence and fsync count decide it; the gateway works as in steady",
        registered_users: 2_000,
        active_users: 2_000,
        rules: Rules::OneDeliver,
        traffic: Traffic::Cycle,
        body_bytes: 48,
        file_backed: true,
        hibernate_after_ms: None,
        open_rate_per_s: DURABLE_RATE,
        fail_one_in: 0,
    },
    Workload {
        name: "storm",
        why: "flapping and chatty sources folded by four rules per user: gateway, pump, rules and correlator do nearly all the work; the ledger sees an eighth of the alerts",
        registered_users: 500,
        active_users: 500,
        rules: Rules::Storm,
        traffic: Traffic::StormGroups,
        body_bytes: 48,
        file_backed: false,
        hibernate_after_ms: None,
        open_rate_per_s: 30_000,
        fail_one_in: 0,
    },
    Workload {
        name: "churn",
        why: "200k registered users, uniform traffic over 100k, 500 ms hibernation, 1 KiB bodies, logs on files: activation, rehydration and per-byte cost dominate; peak RSS must track active users",
        registered_users: 200_000,
        active_users: 100_000,
        rules: Rules::None,
        traffic: Traffic::Uniform,
        body_bytes: 1_024,
        file_backed: true,
        hibernate_after_ms: Some(500),
        open_rate_per_s: CHURN_RATE,
        fail_one_in: 0,
    },
];

const DURABLE_RATE: u64 = 1_000;
const CHURN_RATE: u64 = 900;

/// `durable` with the sink failing the first attempt of 1 alert in 200
/// during the open loop, so ledger retry and backoff run. Not listed in
/// `BENCHMARK.json`: at the seed commit `LedgerChannelBridge` marks the
/// idempotency key seen before the send outcome is known, the retry is
/// absorbed as a duplicate, and every injected failure is an acked alert
/// that is never delivered — a workload on which operations fail.
pub const RETRY: Workload = Workload {
    name: "retry",
    why: "durable plus injected first-attempt send failures: shows whether a failed send is retried or lost",
    fail_one_in: 200,
    ..WORKLOADS[1]
};

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS
        .iter()
        .copied()
        .chain([RETRY])
        .find(|w| w.name == name)
}

pub fn user_name(index: usize) -> String {
    format!("u{index:06}")
}

/// What an alert is, as far as the rules and the checker care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Normal,
    Flap,
    /// A flap alert whose body carries `PANIC`.
    Panic,
    Chatty,
}

impl Kind {
    fn tag(self) -> char {
        match self {
            Kind::Normal => 'n',
            Kind::Flap | Kind::Panic => 'f',
            Kind::Chatty => 'c',
        }
    }

    fn source(self) -> &'static str {
        match self {
            Kind::Normal => SOURCE_NORMAL,
            Kind::Flap | Kind::Panic => SOURCE_FLAP,
            Kind::Chatty => SOURCE_CHATTY,
        }
    }

    /// Reaches the sink as its own send (not folded, not suppressed).
    pub fn delivered_individually(self) -> bool {
        matches!(self, Kind::Normal | Kind::Panic)
    }
}

/// splitmix64: seeds and hashes.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One generated alert, before encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertSpec {
    pub id: u64,
    pub user: usize,
    pub kind: Kind,
    pub body: String,
}

impl AlertSpec {
    pub fn source(&self) -> &'static str {
        self.kind.source()
    }

    /// Appends the alert's `Submit` frame to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        proto::encode(
            &Frame::Submit {
                seq: self.id,
                channel: WireChannel::Im,
                user: user_name(self.user),
                source: self.source().to_string(),
                body: self.body.clone(),
            },
            out,
        );
    }
}

/// The id ↔ body codec. The id rides in the body because the body is the
/// only thing that reaches the channel: `Sensor <kind> #<id hex> <pad>`.
pub fn encode_body(id: u64, kind: Kind, pad: &str) -> String {
    let panic = if kind == Kind::Panic { "PANIC " } else { "" };
    format!("{KEYWORD} {} #{id:x} {panic}{pad}", kind.tag())
}

/// What the sink saw in one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seen {
    /// One alert, by id; `normal` when its kind tag is `n`.
    Alert { id: u64, normal: bool },
    /// A digest standing for `count` folded alerts.
    Digest { count: u64 },
}

/// Parses a channel send's text back into what it stands for. A digest
/// is recognised first: its exemplar lines contain alert bodies.
pub fn decode_text(text: &str) -> Option<Seen> {
    if let Some(rest) = text.strip_prefix("digest: ") {
        let count = rest.split('x').next()?.parse().ok()?;
        return Some(Seen::Digest { count });
    }
    let rest = text.strip_prefix(KEYWORD)?.strip_prefix(' ')?;
    let normal = rest.starts_with('n');
    let hex = rest.get(1..)?.strip_prefix(" #")?.split(' ').next()?;
    let id = u64::from_str_radix(hex, 16).ok()?;
    Some(Seen::Alert { id, normal })
}

/// The connection that sent alert `id` (ids interleave connections).
pub fn conn_of(id: u64) -> usize {
    (id % CONNS as u64) as usize
}

/// Whether the sink fails the first attempt of `id` (open loop only).
pub fn fails_first_attempt(seed: u64, id: u64, one_in: u64) -> bool {
    one_in > 0 && mix(seed ^ mix(id)).is_multiple_of(one_in)
}

/// One connection's seeded alert stream.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: Workload,
    conn: usize,
    rng: Rng,
    /// This connection's users, in seeded order.
    users: Vec<usize>,
    next_seq: u64,
    cursor: usize,
    /// Position inside the current storm group.
    in_group: usize,
    pad: String,
}

impl Generator {
    pub fn new(workload: Workload, seed: u64, conn: usize) -> Generator {
        let mut rng = Rng(mix(seed ^ mix(conn as u64 + 1)));
        let mut users: Vec<usize> = (0..workload.active_users)
            .filter(|u| u % CONNS == conn)
            .collect();
        // Fisher–Yates: the seed decides the order users are touched in.
        for i in (1..users.len()).rev() {
            users.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let pad = (0..workload.body_bytes)
            .map(|_| char::from(b'a' + rng.below(26) as u8))
            .collect();
        Generator {
            workload,
            conn,
            rng,
            users,
            next_seq: 0,
            cursor: 0,
            in_group: 0,
            pad,
        }
    }

    pub fn next_alert(&mut self) -> AlertSpec {
        let id = self.next_seq * CONNS as u64 + self.conn as u64;
        self.next_seq += 1;
        let (user, kind) = match self.workload.traffic {
            Traffic::Cycle => {
                let user = self.users[self.cursor];
                self.cursor = (self.cursor + 1) % self.users.len();
                (user, Kind::Normal)
            }
            Traffic::Uniform => (
                self.users[self.rng.below(self.users.len() as u64) as usize],
                Kind::Normal,
            ),
            Traffic::StormGroups => {
                let user = self.users[self.cursor];
                let slot = self.in_group;
                self.in_group += 1;
                if self.in_group == STORM_GROUP {
                    self.in_group = 0;
                    self.cursor = (self.cursor + 1) % self.users.len();
                }
                // The normal alert goes last: once it is at the sink its
                // nine predecessors have been evaluated (FIFO per user).
                let kind = match slot {
                    0..=3 | 5..=8 => {
                        if self.rng.below(PANIC_ONE_IN) == 0 {
                            Kind::Panic
                        } else {
                            Kind::Flap
                        }
                    }
                    4 => Kind::Chatty,
                    _ => Kind::Normal,
                };
                (user, kind)
            }
        };
        let head = encode_body(id, kind, "");
        let pad_len = self.workload.body_bytes.saturating_sub(head.len());
        let start = self.rng.below((self.pad.len() - pad_len + 1) as u64) as usize;
        let body = encode_body(id, kind, &self.pad[start..start + pad_len]);
        AlertSpec {
            id,
            user,
            kind,
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_codec_round_trips_every_kind() {
        for (id, kind) in [
            (0, Kind::Normal),
            (0x1f3a, Kind::Flap),
            (u64::MAX, Kind::Panic),
            (7, Kind::Chatty),
        ] {
            let body = encode_body(id, kind, "padding");
            assert!(body.contains(KEYWORD));
            assert_eq!(body.contains("PANIC"), kind == Kind::Panic);
            assert_eq!(
                decode_text(&body),
                Some(Seen::Alert {
                    id,
                    normal: kind == Kind::Normal
                })
            );
        }
    }

    #[test]
    fn a_digest_is_told_apart_from_the_exemplars_it_quotes() {
        let text = format!(
            "digest: 64x : 64 alerts from flap/ between t+1ms and t+9ms\n  e.g. {}",
            encode_body(5, Kind::Flap, "x")
        );
        assert_eq!(decode_text(&text), Some(Seen::Digest { count: 64 }));
        assert_eq!(decode_text("not ours"), None);
        assert_eq!(decode_text("Sensor n #zz "), None);
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_another() {
        let take = |seed| {
            let mut g = Generator::new(WORKLOADS[2], seed, 1);
            (0..200).map(|_| g.next_alert()).collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
    }

    #[test]
    fn storm_groups_are_eight_flap_one_chatty_one_normal_to_one_user() {
        let mut g = Generator::new(WORKLOADS[2], 3, 0);
        for _ in 0..50 {
            let group: Vec<AlertSpec> = (0..STORM_GROUP).map(|_| g.next_alert()).collect();
            assert!(group
                .iter()
                .all(|a| a.user == group[0].user && a.user % CONNS == 0));
            let flaps = group.iter().filter(|a| a.source() == SOURCE_FLAP).count();
            assert_eq!(flaps, 8);
            assert_eq!(group[4].kind, Kind::Chatty);
            assert_eq!(group[9].kind, Kind::Normal);
            assert!(group.iter().all(|a| conn_of(a.id) == 0));
        }
    }

    #[test]
    fn bodies_have_the_workload_size_and_frames_decode() {
        for workload in WORKLOADS {
            let mut g = Generator::new(workload, 11, 0);
            for _ in 0..20 {
                let alert = g.next_alert();
                assert_eq!(alert.body.len(), workload.body_bytes);
                let mut buf = Vec::new();
                alert.encode(&mut buf);
                let (frame, used) = proto::decode_frame(&buf).expect("own frames decode");
                assert_eq!(used, buf.len());
                assert!(matches!(frame, Frame::Submit { seq, .. } if seq == alert.id));
            }
        }
    }

    #[test]
    fn failure_choice_is_seeded_and_near_its_rate() {
        let hits = (0..200_000u64)
            .filter(|&id| fails_first_attempt(9, id, 200))
            .count();
        assert!((800..1_200).contains(&hits), "{hits}");
        assert!(!fails_first_attempt(9, 1, 0));
    }
}
