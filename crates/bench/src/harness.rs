//! The end-to-end pipeline world: sources → channels → MyAlertBuddy →
//! the user's devices and eyes, inside the deterministic engine.
//!
//! This is the §5 experimental setting (Figure 5) as a simulation: alert
//! sources deliver to MyAlertBuddy over IM (falling back to email), the
//! host's shard core ([`simba_runtime::Shard`], the only code that runs
//! a buddy) logs/acks/classifies/routes on simulated time, its outbound
//! sends leave through `SimChannels` — the Communication Managers
//! driving flaky client software, and the IM, email and SMS services — the
//! MDC watchdog and the self-stabilization schedule run at the paper's
//! cadences, and a presence-modelled human finally *sees* each alert.
//!
//! Timing model (calibrated to §5's prose numbers):
//!
//! * IM transit: log-normal, median ≈ 0.4 s → "typically less than one
//!   second" one-way;
//! * client pickup ≈ 0.2 s + pessimistic-log fsync ≈ 0.25 s before the
//!   ack → ack RTT ≈ 1.5 s;
//! * classification + delivery-mode parsing + client automation ≈ 1.2 s
//!   before outbound sends → proxy-to-user ≈ 2.5 s (E2). The shard runs
//!   a batch's sends at its commit, so this stage (and the log write
//!   before it) is added to each outbound send's transit; a block's ack
//!   window opens at the commit.

use simba_client::faults::{ClientFaultModel, FaultKind};
use simba_client::dialogs::DialogBox;
use simba_client::{EmailManager, ImManager};
use simba_core::address::{Address, AddressBook, CommType};
use simba_core::alert::IncomingAlert;
use simba_core::classify::{Classifier, KeywordField};
use simba_core::delivery::{DeliveryStatus, SendFailure};
use simba_core::mab::MabConfig;
use simba_core::mdc::{MasterDaemonController, MdcAction, MdcConfig};
use simba_core::mode::DeliveryMode;
use simba_core::shardlog::ShardLog;
use simba_core::stabilize::StabilizationConfig;
use simba_core::subscription::{SubscriptionRegistry, UserId};
use simba_core::Telemetry;
use simba_net::email::{EmailAddr, EmailService, EmailTransit};
use simba_net::im::{ImHandle, ImMessage, ImSendError, ImService, Transit};
use simba_net::latency::LatencyModel;
use simba_net::loss::LossModel;
use simba_net::outage::OutageSchedule;
use simba_net::presence::{HumanModel, PresenceTimeline, UserContext};
use simba_net::sms::{PhoneState, SmsGateway, SmsNumber, SmsTransit};
use simba_runtime::{
    Channels, Door, HostNotice, RuntimeNotice, SendOutcome, Shard, ShardedHostConfig,
    DEFAULT_NOTICE_CAPACITY,
};
use simba_sim::{Ctx, Engine, MetricSet, ObserveDurationNamed, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use tokio::sync::mpsc;

/// Fixed identities used by the standard pipeline.
pub const MAB_IM: &str = "mab-im";
/// The MAB's email address.
pub const MAB_EMAIL: &str = "mab@home";
/// The user's IM handle (the value of their "IM" address-book entry).
pub const USER_IM: &str = "im:alice";
/// The user's SMS number.
pub const USER_SMS: &str = "+1-555-0100";
/// The user's email address.
pub const USER_EMAIL: &str = "alice@work";

/// Per-alert life-cycle record, keyed by the emitter-assigned tag.
#[derive(Debug, Clone, Default)]
pub struct AlertTrack {
    /// When the source emitted it.
    pub emitted_at: Option<SimTime>,
    /// When MyAlertBuddy's client received it (one-way latency endpoint).
    pub mab_received_at: Option<SimTime>,
    /// When the source received MyAlertBuddy's ack (ack RTT endpoint).
    pub source_acked_at: Option<SimTime>,
    /// When the alert first reached any of the user's devices.
    pub reached_user_at: Option<SimTime>,
    /// When the human first saw it.
    pub seen_at: Option<SimTime>,
    /// Whether the user acknowledged (IM).
    pub user_acked: bool,
    /// How the source ultimately shipped it (IM or email fallback).
    pub via: Option<CommType>,
}

/// Timing knobs for the MyAlertBuddy processing stages.
#[derive(Debug, Clone, Copy)]
pub struct PipelineTiming {
    /// Client-automation pickup delay before the buddy sees a new IM.
    pub pickup_median_secs: f64,
    /// Pessimistic-log write (fsync) before the ack.
    pub wal_cost: SimDuration,
    /// Classification + delivery-mode parsing + outbound automation.
    pub route_median_secs: f64,
    /// Log-space sigma for the two log-normal stages.
    pub sigma: f64,
    /// Time to restart MyAlertBuddy after the MDC kills it.
    pub restart_delay: SimDuration,
    /// Time a full machine reboot takes.
    pub reboot_delay: SimDuration,
}

impl Default for PipelineTiming {
    fn default() -> Self {
        PipelineTiming {
            pickup_median_secs: 0.2,
            wal_cost: SimDuration::from_millis(250),
            route_median_secs: 1.2,
            sigma: 0.3,
            restart_delay: SimDuration::from_secs(12),
            reboot_delay: SimDuration::from_mins(3),
        }
    }
}

/// Build-time options for the pipeline world.
pub struct PipelineOptions {
    /// RNG seed.
    pub seed: u64,
    /// Where the user is over the run.
    pub presence: PresenceTimeline,
    /// Human reaction model.
    pub human: HumanModel,
    /// Processing-stage timing.
    pub timing: PipelineTiming,
    /// IM service outage windows.
    pub im_outages: OutageSchedule,
    /// Client-software fault injection (None disables).
    pub client_faults: Option<ClientFaultModel>,
    /// Mean time between MyAlertBuddy process crashes (the paper's "IM
    /// exceptions caused by ... undocumented interfaces"), if any.
    pub mab_crash_mtbf: Option<SimDuration>,
    /// Mean time between MyAlertBuddy hangs (detected only by the MDC's
    /// AreYouWorking ping — the A3 ablation's subject), if any.
    pub mab_hang_mtbf: Option<SimDuration>,
    /// Whether pessimistic logging is enabled (ablation A2 turns it off).
    pub pessimistic_logging: bool,
    /// Source-side ack timeout before falling back to email.
    pub source_ack_timeout: SimDuration,
    /// Disable the nightly rejuvenation (ablation A4).
    pub nightly_rejuvenation: bool,
    /// How long until a human notices and manually closes a dialog box no
    /// rule can dismiss (the paper's two unknown-dialog failures needed
    /// exactly this). `None` = nobody ever comes.
    pub operator_attention_delay: Option<SimDuration>,
    /// Pre-register dismissal rules for the "unknown" dialog captions —
    /// the paper's post-incident fix ("dialog-box handling APIs were then
    /// used to fix the problems").
    pub preregistered_dialog_rules: bool,
    /// Power outages as `(start, duration)`: the whole machine (MDC
    /// included) goes dark. The paper's month had one; the fix was a UPS.
    pub power_outages: Vec<(SimTime, SimDuration)>,
    /// Cadences for the stabilization checks.
    pub stabilization: StabilizationConfig,
    /// MDC watchdog configuration.
    pub mdc: MdcConfig,
}

impl PipelineOptions {
    /// Defaults: user at desk for the whole horizon, no faults, no outages.
    pub fn new(seed: u64, horizon: SimTime) -> Self {
        PipelineOptions {
            seed,
            presence: PresenceTimeline::constant(UserContext::AtDesk, horizon),
            human: HumanModel::default(),
            timing: PipelineTiming::default(),
            im_outages: OutageSchedule::always_up(),
            client_faults: None,
            mab_crash_mtbf: None,
            mab_hang_mtbf: None,
            pessimistic_logging: true,
            source_ack_timeout: SimDuration::from_secs(45),
            nightly_rejuvenation: true,
            operator_attention_delay: Some(SimDuration::from_hours(2)),
            preregistered_dialog_rules: false,
            power_outages: Vec::new(),
            stabilization: StabilizationConfig::default(),
            mdc: MdcConfig::default(),
        }
    }
}

/// The caption pool "unknown" dialogs draw from. Unknown means *no rule
/// was registered*, not unknowable: after the paper's fix, these exact
/// captions get rules.
pub const UNKNOWN_DIALOG_CAPTIONS: [(&str, &str); 3] = [
    ("Proxy Authentication Required", "OK"),
    ("Unexpected Script Error", "Continue"),
    ("Messenger Upgrade Available", "Later"),
];

/// The standard MAB configuration: alice subscribed to every source
/// category with the IM→email "Urgent" mode (plus SMS for the assistant).
pub fn standard_config() -> MabConfig {
    let mut classifier = Classifier::new();
    classifier.accept_source("proxy-im", KeywordField::Body, "remove watch");
    classifier.accept_source("webstore-im", KeywordField::Body, "leave community");
    classifier.accept_source("aladdin-gw", KeywordField::Body, "home gateway config");
    classifier.accept_source("wish-svc", KeywordField::Body, "wish privacy page");
    classifier.accept_source("assistant@desktop", KeywordField::Subject, "stop assistant");
    classifier.map_keyword("changed", "News");
    classifier.map_keyword("photo", "Community");
    classifier.map_keyword("Sensor", "Home.Security");
    classifier.map_keyword("entered", "Location");
    classifier.map_keyword("left", "Location");
    classifier.map_keyword("moved", "Location");
    classifier.map_keyword("Email:", "Work");
    classifier.map_keyword("Reminder:", "Work");
    classifier.set_default_category("Misc");

    let mut registry = SubscriptionRegistry::new();
    let alice = UserId::new("alice");
    let profile = registry.register_user(alice.clone());
    let mut book = AddressBook::new();
    book.add(Address::new("IM", CommType::Im, USER_IM)).expect("fresh book");
    book.add(Address::new("SMS", CommType::Sms, USER_SMS)).expect("fresh book");
    book.add(Address::new("EM", CommType::Email, USER_EMAIL)).expect("fresh book");
    profile.address_book = book;
    profile.define_mode(DeliveryMode::im_then_email(
        "Urgent",
        "IM",
        "EM",
        SimDuration::from_secs(60),
    ));
    profile.define_mode(
        DeliveryMode::new(
            "Critical",
            vec![
                simba_core::mode::Block::acked(vec!["IM".into()], SimDuration::from_secs(60)),
                simba_core::mode::Block::acked(vec!["SMS".into()], SimDuration::from_secs(120)),
                simba_core::mode::Block::fire_and_forget(vec!["EM".into()]),
            ],
        )
        .expect("static mode"),
    );
    for (category, mode) in [
        ("News", "Urgent"),
        ("Community", "Urgent"),
        ("Home.Security", "Critical"),
        ("Location", "Urgent"),
        ("Work", "Critical"),
        ("Misc", "Urgent"),
    ] {
        registry.subscribe(category, alice.clone(), mode).expect("fresh registry");
    }

    MabConfig {
        classifier,
        registry,
        rejuvenation: simba_core::rejuvenate::RejuvenationPolicy::default(),
    }
}

/// Events driving the pipeline world.
#[derive(Debug)]
pub enum Ev {
    /// A source emits an alert (tag must be unique per emission).
    Emit {
        /// Tracking tag.
        tag: u64,
        /// The alert.
        alert: IncomingAlert,
    },
    /// The source's ack window expired; fall back to email if unacked.
    SourceAckTimeout {
        /// Tracking tag.
        tag: u64,
    },
    /// An IM completed transit to the MAB's handle.
    MabImArrive {
        /// Tracking tag.
        tag: u64,
        /// The in-flight message.
        message: ImMessage,
    },
    /// An email completed transit to the MAB's mailbox.
    MabEmailArrive {
        /// Tracking tag.
        tag: u64,
        /// The in-flight message.
        transit: EmailTransit,
    },
    /// The buddy's client picked a received alert up; run the pipeline.
    MabIngest {
        /// Tracking tag.
        tag: u64,
        /// The alert as reconstructed from the channel.
        alert: IncomingAlert,
        /// Whether it arrived over IM (gets an ack).
        via_im: bool,
    },
    /// The MAB→source ack IM completed transit.
    SourceAckArrive {
        /// Tracking tag.
        tag: u64,
    },
    /// The shard's next deadline (block timer or user ack) is due.
    ShardDue,
    /// An outbound IM reached the user's desktop.
    UserImArrive {
        /// Tracking tag.
        tag: u64,
        /// The message.
        message: ImMessage,
    },
    /// An outbound SMS reached the carrier edge for the user.
    UserSmsArrive {
        /// Tracking tag.
        tag: u64,
        /// The message.
        transit: SmsTransit,
    },
    /// An outbound email reached the user's mailbox.
    UserEmailArrive {
        /// Tracking tag.
        tag: u64,
    },
    /// The human read the alert.
    UserSees {
        /// Tracking tag.
        tag: u64,
        /// Whether it was an IM, which the user acknowledges: the shard
        /// hears that ack at this same instant.
        acks: bool,
    },
    /// Periodic MDC ping.
    MdcPing,
    /// MDC reply deadline.
    MdcDeadline,
    /// Periodic Communication Manager sanity checks.
    SanityCheck,
    /// Periodic dialog-box scan (the monkey thread).
    DialogScan,
    /// Nightly rejuvenation.
    Nightly,
    /// MyAlertBuddy finished restarting.
    MabRestarted,
    /// Machine reboot completed.
    MachineUp,
    /// Inject the next client-software fault.
    ClientFault(
        /// Which fault.
        FaultKind,
    ),
    /// The MyAlertBuddy process dies of an internal exception.
    MabCrash,
    /// The MyAlertBuddy process wedges (only the watchdog ping notices).
    MabHang,
    /// A power outage takes the whole machine down (MDC included).
    PowerOut {
        /// How long until power returns.
        restore_after: SimDuration,
    },
}

/// The shard's outbound channels: the buddy's Communication Managers in
/// front of the IM, email and SMS services. A send leaves what follows —
/// arrival, and the user's sighting of an IM — on the outbox.
struct SimChannels {
    im: ImService,
    email: EmailService,
    sms: SmsGateway,
    im_mgr: ImManager,
    email_mgr: EmailManager,
    /// The IM service's outage windows: whether a message outlives the
    /// user's session in transit.
    im_outages: OutageSchedule,
    presence: PresenceTimeline,
    human: HumanModel,
    rng: SimRng,
    /// The instant of the batch being executed.
    now: SimTime,
    /// How long the batch's sends wait before they leave: the log write
    /// and the routing stage for a new alert, nothing for a timer's.
    stage: SimDuration,
    /// What the batch's sends counted, for the world's metrics.
    metrics: MetricSet,
    /// What the batch's sends cause, as delays from `now`.
    outbox: Vec<(SimDuration, Ev)>,
}

impl Channels for SimChannels {
    fn send(&mut self, comm_type: CommType, address: &str, text: &str) -> SendOutcome {
        // All outbound sends go through the buddy's client software.
        let client = if comm_type == CommType::Im { self.im_mgr.core_mut() } else { self.email_mgr.core_mut() };
        if client.automation_op().is_err() {
            self.metrics.incr("mab.outbound_client_failure");
            return SendOutcome::Failed(SendFailure::ClientSoftware);
        }
        let (now, stage) = (self.now, self.stage);
        let tag = parse_tag(text).unwrap_or(u64::MAX);
        match comm_type {
            CommType::Im => match self.im.send(&ImHandle::new(MAB_IM), &ImHandle::new(address), text, now) {
                Ok(Transit { message, delay, lost }) => {
                    self.metrics.incr("user.im_sent");
                    if lost {
                        return SendOutcome::Accepted;
                    }
                    let arrival = stage + delay;
                    self.outbox.push((arrival, Ev::UserImArrive { tag, message }));
                    // The user's session outlives the transit unless an
                    // outage overlaps it; a user at the desk then reads
                    // the IM and acknowledges it.
                    let at = now + arrival;
                    let reaches = !self.im_outages.windows().iter().any(|&(start, end)| start <= at && end > now);
                    if !(reaches && self.presence.context_at(at).sees_im()) {
                        return SendOutcome::Accepted;
                    }
                    let lag = arrival + self.human.im_reaction(&mut self.rng);
                    self.outbox.push((lag, Ev::UserSees { tag, acks: true }));
                    SendOutcome::AcceptedWithAck(Duration::from_millis(lag.as_millis()))
                }
                Err(e) => {
                    self.metrics.incr("user.im_send_failed");
                    SendOutcome::Failed(match e {
                        ImSendError::ServiceDown => SendFailure::ChannelDown,
                        _ => SendFailure::RecipientUnreachable,
                    })
                }
            },
            CommType::Sms => {
                let transit = self.sms.send(&SmsNumber::new(address), text, now);
                self.metrics.incr("user.sms_sent");
                if !transit.lost {
                    self.outbox.push((stage + transit.delay, Ev::UserSmsArrive { tag, transit }));
                }
                SendOutcome::Accepted
            }
            CommType::Email => {
                let from = EmailAddr::new(MAB_EMAIL);
                let transit = self.email.send(&from, &EmailAddr::new(address), "MyAlertBuddy", "alert", text, now);
                self.metrics.incr("user.email_sent");
                if !transit.lost {
                    self.outbox.push((stage + transit.delay, Ev::UserEmailArrive { tag }));
                }
                SendOutcome::Accepted
            }
        }
    }
}

/// The MyAlertBuddy process: alice's one-user shard while it runs, the
/// shard's log while it is down.
enum Process {
    Up(Box<Shard>),
    Down(Box<ShardLog>),
}

/// The pipeline world.
pub struct World {
    channels: SimChannels,
    process: Process,
    /// The process is wedged: it answers no probe and processes nothing.
    hung: bool,
    /// What every incarnation of the shard reports.
    notices: mpsc::Receiver<HostNotice>,
    notice_tx: mpsc::Sender<HostNotice>,
    /// When the earliest pending [`Ev::ShardDue`] fires.
    due: Option<SimTime>,
    /// The watchdog.
    pub mdc: MasterDaemonController,
    stabilization: StabilizationConfig,
    timing: PipelineTiming,
    pessimistic_logging: bool,
    source_ack_timeout: SimDuration,
    nightly_rejuvenation: bool,
    client_faults: Option<ClientFaultModel>,
    mab_crash_mtbf: Option<SimDuration>,
    mab_hang_mtbf: Option<SimDuration>,
    operator_attention_delay: Option<SimDuration>,
    machine_down: bool,
    /// Per-alert tracking by tag.
    pub tracks: BTreeMap<u64, AlertTrack>,
    /// Aggregated counters and latency summaries.
    pub metrics: MetricSet,
}

impl World {
    fn track(&mut self, tag: u64) -> &mut AlertTrack {
        self.tracks.entry(tag).or_default()
    }

    /// True while the buddy process exists and responds.
    pub fn mab_alive(&self) -> bool {
        matches!(self.process, Process::Up(_)) && !self.hung
    }
}

/// Opens alice's shard over `log` (hibernation off, no ledger) and
/// starts it, which replays whatever she left unprocessed.
fn open_shard(log: ShardLog, notices: mpsc::Sender<HostNotice>, now: SimTime) -> Shard {
    let config = ShardedHostConfig { shards: 1, hibernate_after: SimDuration::ZERO, ..ShardedHostConfig::default() };
    let factory = Arc::new(|_: &UserId| standard_config());
    let mut shard = Shard::open(log, &config, factory, notices, Telemetry::disabled());
    shard.register(vec![UserId::new("alice")]);
    shard.start(now);
    shard
}

/// Builds the engine and schedules the maintenance loops.
pub fn build(options: PipelineOptions) -> Engine<World, Ev> {
    let mut seed_rng = SimRng::new(options.seed);
    let im_rng = seed_rng.fork(1);
    let email_rng = seed_rng.fork(2);
    let sms_rng = seed_rng.fork(3);
    let world_rng = seed_rng.fork(4);

    let mut im = ImService::new(im_rng)
        .with_latency(LatencyModel::consumer_im())
        .with_loss(LossModel::Bernoulli(0.001))
        .with_outages(options.im_outages.clone());
    let email = EmailService::new(email_rng);
    let mut sms = SmsGateway::new(sms_rng);
    sms.register(SmsNumber::new(USER_SMS), PhoneState::reachable());

    // Register every identity the standard pipeline uses.
    for handle in [MAB_IM, USER_IM, "proxy-im", "webstore-im", "aladdin-gw", "wish-svc"] {
        im.register(ImHandle::new(handle));
    }
    // Logons are best-effort: if the service starts inside an outage
    // window, the emit path and the sanity sweep re-logon later.
    for handle in ["proxy-im", "webstore-im", "aladdin-gw", "wish-svc", USER_IM] {
        let _ = im.logon(&ImHandle::new(handle), SimTime::ZERO);
    }

    let mut im_mgr = ImManager::new(ImHandle::new(MAB_IM));
    let _ = im_mgr.start(&mut im, SimTime::ZERO);
    let mut email_mgr = EmailManager::new(EmailAddr::new(MAB_EMAIL));
    email_mgr.start(SimTime::ZERO);
    if options.preregistered_dialog_rules {
        for (caption, button) in UNKNOWN_DIALOG_CAPTIONS {
            im_mgr.register_dialog_rule(caption, button);
            email_mgr.register_dialog_rule(caption, button);
        }
    }

    let (notice_tx, notices) = mpsc::channel(DEFAULT_NOTICE_CAPACITY);
    let world = World {
        channels: SimChannels {
            im,
            email,
            sms,
            im_mgr,
            email_mgr,
            im_outages: options.im_outages,
            presence: options.presence,
            human: options.human,
            rng: world_rng,
            now: SimTime::ZERO,
            stage: SimDuration::ZERO,
            metrics: MetricSet::new(),
            outbox: Vec::new(),
        },
        process: Process::Up(Box::new(open_shard(ShardLog::in_memory(), notice_tx.clone(), SimTime::ZERO))),
        hung: false,
        notices,
        notice_tx,
        due: None,
        mdc: MasterDaemonController::new(options.mdc),
        stabilization: options.stabilization,
        timing: options.timing,
        pessimistic_logging: options.pessimistic_logging,
        source_ack_timeout: options.source_ack_timeout,
        nightly_rejuvenation: options.nightly_rejuvenation,
        client_faults: options.client_faults,
        mab_crash_mtbf: options.mab_crash_mtbf,
        mab_hang_mtbf: options.mab_hang_mtbf,
        operator_attention_delay: options.operator_attention_delay,
        machine_down: false,
        tracks: BTreeMap::new(),
        metrics: MetricSet::new(),
    };

    let mut engine = Engine::new(world, options.seed ^ 0xD15C0);
    for (start, duration) in &options.power_outages {
        engine.schedule_at(*start, Ev::PowerOut { restore_after: *duration });
    }
    engine.schedule_in(options.mdc.ping_interval, Ev::MdcPing);
    engine.schedule_in(options.stabilization.sanity_interval, Ev::SanityCheck);
    engine.schedule_in(options.stabilization.dialog_interval, Ev::DialogScan);
    if options.nightly_rejuvenation {
        let next = simba_core::rejuvenate::RejuvenationPolicy::default()
            .next_nightly(SimTime::ZERO)
            .expect("nightly enabled");
        engine.schedule_at(next, Ev::Nightly);
    }
    if let Some(model) = engine.world().client_faults.clone() {
        if let Some((delay, kind)) = model.next_fault(engine.rng()) {
            engine.schedule_in(delay, Ev::ClientFault(kind));
        }
    }
    if let Some(mtbf) = engine.world().mab_crash_mtbf {
        let delay = SimDuration::from_secs_f64(
            engine.rng().exponential(mtbf.as_secs_f64()),
        );
        engine.schedule_in(delay, Ev::MabCrash);
    }
    if let Some(mtbf) = engine.world().mab_hang_mtbf {
        let delay = SimDuration::from_secs_f64(
            engine.rng().exponential(mtbf.as_secs_f64()),
        );
        engine.schedule_in(delay, Ev::MabHang);
    }
    engine
}

/// The event handler: pass to `Engine::run_until`.
pub fn handle(world: &mut World, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
    match ev {
        Ev::Emit { tag, alert } => emit(world, ctx, tag, alert),
        Ev::SourceAckTimeout { tag } => source_ack_timeout(world, ctx, tag),
        Ev::MabImArrive { tag, message } => mab_im_arrive(world, ctx, tag, message),
        Ev::MabEmailArrive { tag, transit } => {
            if !transit.lost {
                // The pickup below carries the mail, so it never sits in
                // the buddy's mailbox for a sanity check to find again.
                let mail = transit.message;
                let alert = IncomingAlert::from_email(
                    mail.from.0,
                    mail.sender_name,
                    mail.subject,
                    mail.body,
                    mail.sent_at,
                );
                let pickup = lognormal(world, world.timing.pickup_median_secs);
                ctx.schedule_in(pickup, Ev::MabIngest { tag, alert, via_im: false });
            }
        }
        Ev::MabIngest { tag, alert, via_im } => mab_ingest(world, ctx, tag, alert, via_im),
        Ev::SourceAckArrive { tag } => {
            let now = ctx.now();
            let t = world.track(tag);
            if t.source_acked_at.is_none() {
                t.source_acked_at = Some(now);
                if let (Some(emit), Some(ack)) = (t.emitted_at, Some(now)) {
                    world.metrics.observe_duration("source.ack_rtt", ack - emit);
                }
            }
        }
        Ev::ShardDue => {
            let now = ctx.now();
            if world.due.is_some_and(|due| due <= now) {
                world.due = None;
            }
            // A wedged or dead process runs nothing: its timers and the
            // acks they carry die with it at the next restart.
            if world.mab_alive() {
                if let Process::Up(shard) = &mut world.process {
                    shard.fire_due(now);
                }
                finish(world, ctx, SimDuration::ZERO);
            }
        }
        Ev::UserImArrive { tag, message } => {
            let now = ctx.now();
            if world.channels.im.deliver(message, now) {
                mark_reached(world, tag, now);
            }
        }
        Ev::UserSmsArrive { tag, transit } => {
            if world.channels.sms.deliver(&transit.message) {
                user_looks_later(world, ctx, tag, UserContext::sees_sms, HumanModel::sms_reaction);
            }
        }
        Ev::UserEmailArrive { tag } => {
            world.channels.email.deposit();
            user_looks_later(world, ctx, tag, UserContext::sees_email, HumanModel::email_poll);
        }
        Ev::UserSees { tag, acks } => user_sees(world, ctx, tag, acks),
        Ev::MdcPing => mdc_ping(world, ctx),
        Ev::MdcDeadline => {
            // The probe answers at deadline-check time if the buddy came
            // back in the meantime (restart completed before the deadline).
            if world.mab_alive() {
                world.mdc.on_reply(ctx.now());
            } else if let Some(action) = world.mdc.on_reply_deadline(ctx.now()) {
                perform_mdc_action(world, ctx, action);
            }
        }
        Ev::SanityCheck => sanity_check(world, ctx),
        Ev::DialogScan => dialog_scan(world, ctx),
        Ev::Nightly => nightly(world, ctx),
        Ev::MabRestarted => mab_restarted(world, ctx),
        Ev::MachineUp => {
            world.machine_down = false;
            ctx.trace("machine.up", "reboot complete");
            mab_restarted(world, ctx);
        }
        Ev::ClientFault(kind) => client_fault(world, ctx, kind),
        Ev::MabCrash => mab_crash(world, ctx),
        Ev::MabHang => mab_hang(world, ctx),
        Ev::PowerOut { restore_after } => {
            ctx.trace("power.out", format!("machine dark for {restore_after}"));
            world.metrics.incr("power.outages");
            world.machine_down = true;
            kill(world);
            world.channels.im_mgr.core_mut().process_mut().kill();
            world.channels.email_mgr.core_mut().process_mut().kill();
            ctx.schedule_in(restore_after, Ev::MachineUp);
        }
    }
}

fn lognormal(world: &mut World, median: f64) -> SimDuration {
    SimDuration::from_secs_f64(world.channels.rng.lognormal(median.max(1e-3), world.timing.sigma))
}

/// Source emission: IM first; synchronous failure → email fallback.
fn emit(world: &mut World, ctx: &mut Ctx<'_, Ev>, tag: u64, alert: IncomingAlert) {
    let now = ctx.now();
    world.track(tag).emitted_at = Some(now);
    world.metrics.incr("source.emitted");
    let source = ImHandle::new(&*alert.source);
    let im = &mut world.channels.im;
    // Sources keep their own sessions alive: re-logon before emitting if a
    // recovery or outage dropped the session.
    if !im.is_logged_on(&source, now) {
        let _ = im.logon(&source, now);
    }
    if !im.is_logged_on(&ImHandle::new(USER_IM), now) {
        let _ = im.logon(&ImHandle::new(USER_IM), now);
    }
    match im.send(&source, &ImHandle::new(MAB_IM), &*alert.body, now) {
        Ok(Transit { message, delay, lost }) => {
            world.track(tag).via = Some(CommType::Im);
            if !lost {
                ctx.schedule_in(delay, Ev::MabImArrive { tag, message });
            }
            ctx.schedule_in(world.source_ack_timeout, Ev::SourceAckTimeout { tag });
        }
        Err(_) => {
            world.metrics.incr("source.im_send_failed");
            emit_email_fallback(world, ctx, tag, &alert);
        }
    }
}

fn emit_email_fallback(world: &mut World, ctx: &mut Ctx<'_, Ev>, tag: u64, alert: &IncomingAlert) {
    let now = ctx.now();
    world.track(tag).via = Some(CommType::Email);
    world.metrics.incr("source.email_fallback");
    let transit = world.channels.email.send(
        &EmailAddr::new(&*alert.source),
        &EmailAddr::new(MAB_EMAIL),
        alert.sender_name.clone(),
        alert.subject.clone(),
        &*alert.body,
        now,
    );
    let delay = transit.delay;
    ctx.schedule_in(delay, Ev::MabEmailArrive { tag, transit });
}

fn source_ack_timeout(world: &mut World, ctx: &mut Ctx<'_, Ev>, tag: u64) {
    let acked = world.track(tag).source_acked_at.is_some();
    if !acked {
        world.metrics.incr("source.ack_timeout");
        // Re-ship the original body via email (the SIMBA library's own
        // IM-then-email delivery mode, used source-side).
        let t = world.track(tag).clone();
        if let Some(emitted_at) = t.emitted_at {
            let alert = IncomingAlert::from_im("proxy-im", format!("(resend #{tag})"), emitted_at);
            // Sources keep their own copy of the alert; the tag routes it.
            emit_email_fallback(world, ctx, tag, &alert);
        }
    }
}

fn mab_im_arrive(world: &mut World, ctx: &mut Ctx<'_, Ev>, tag: u64, message: ImMessage) {
    let now = ctx.now();
    if !world.channels.im.deliver(message, now) {
        world.metrics.incr("mab.im_undeliverable");
        return;
    }
    // The pickup takes the message out of the inbox and carries it, so
    // it is ingested once: a buddy that cannot read it yet defers it.
    let Some(message) = world.channels.im.take_inbox(&ImHandle::new(MAB_IM)).pop() else {
        return;
    };
    let t = world.track(tag);
    if t.mab_received_at.is_none() {
        t.mab_received_at = Some(now);
        if let Some(emit) = t.emitted_at {
            world.metrics.observe_duration("im.one_way", now - emit);
        }
    }
    let alert = IncomingAlert::from_im(message.from.0.clone(), message.body.clone(), message.sent_at);
    let pickup = lognormal(world, world.timing.pickup_median_secs);
    ctx.schedule_in(pickup, Ev::MabIngest { tag, alert, via_im: true });
}

/// The §4.2.1 pipeline with explicit stage timing: the shard takes the
/// alert, and its batch commits now; the ack leaves after the log write,
/// the outbound sends after the log write and the routing stage.
fn mab_ingest(world: &mut World, ctx: &mut Ctx<'_, Ev>, tag: u64, mut alert: IncomingAlert, via_im: bool) {
    // Client software must be usable for the buddy to see the message.
    if world.channels.im_mgr.core_mut().automation_op().is_err() || !world.mab_alive() {
        // Left unread; retried after the next sanity interval.
        world.metrics.incr("mab.ingest_deferred");
        ctx.schedule_in(world.stabilization.sanity_interval, Ev::MabIngest { tag, alert, via_im });
        return;
    }
    // Tag the text so user-side events can find the track.
    alert.body = format!("{} [#{tag}]", alert.body).into();

    let wal_cost = if world.pessimistic_logging {
        world.timing.wal_cost
    } else {
        SimDuration::ZERO
    };
    let now = ctx.now();
    let door = if via_im { Door::Im } else { Door::Email };
    if let Process::Up(shard) = &mut world.process {
        shard.submit(UserId::new("alice"), alert, door, now);
    }
    let stage = wal_cost + lognormal(world, world.timing.route_median_secs);
    for source in finish(world, ctx, stage) {
        let ack = world.channels.im.send(&ImHandle::new(MAB_IM), &ImHandle::new(&*source), format!("ACK [#{tag}]"), now);
        if let Ok(Transit { delay, lost: false, .. }) = ack {
            ctx.schedule_in(wal_cost + delay, Ev::SourceAckArrive { tag });
        }
    }
}

/// Finishes the shard's batch, its sends leaving `stage` after it, and
/// schedules what follows: the outbox, the next [`Ev::ShardDue`], and a
/// requested rejuvenation. Returns the sources the batch acknowledged.
fn finish(world: &mut World, ctx: &mut Ctx<'_, Ev>, stage: SimDuration) -> Vec<Arc<str>> {
    let now = ctx.now();
    let Process::Up(shard) = &mut world.process else {
        return Vec::new();
    };
    world.channels.now = now;
    world.channels.stage = stage;
    shard.finish_batch(&mut world.channels, now);
    if let Some(at) = shard.next_deadline().filter(|at| world.due.is_none_or(|due| *at < due)) {
        let at = at.max(now);
        ctx.schedule_at(at, Ev::ShardDue);
        world.due = Some(at);
    }
    let counted = std::mem::take(&mut world.channels.metrics);
    for name in counted.counter_names() {
        world.metrics.add(name, counted.counter(name));
    }
    for (delay, event) in world.channels.outbox.drain(..) {
        ctx.schedule_in(delay, event);
    }
    let mut acked = Vec::new();
    let mut rejuvenate = false;
    while let Ok(HostNotice { notice, .. }) = world.notices.try_recv() {
        match notice {
            RuntimeNotice::AckSent { source, .. } => acked.push(source),
            RuntimeNotice::DeliveryFinished { status: DeliveryStatus::Acked { .. }, .. } => {
                world.metrics.incr("mab.acked");
            }
            RuntimeNotice::DeliveryFinished { .. } => {}
            RuntimeNotice::Rejuvenating(trigger) => {
                ctx.trace("mab.rejuvenate", trigger.to_string());
                world.metrics.incr("mab.rejuvenations");
                rejuvenate = true;
            }
        }
    }
    if rejuvenate {
        graceful_restart(world, ctx);
    }
    acked
}

/// An SMS or email reached the user's device: they see it once they can
/// look at that device (`sees`), after their reaction (`look`).
fn user_looks_later(
    world: &mut World,
    ctx: &mut Ctx<'_, Ev>,
    tag: u64,
    sees: fn(UserContext) -> bool,
    look: fn(&HumanModel, &mut SimRng) -> SimDuration,
) {
    let now = ctx.now();
    let channels = &mut world.channels;
    let seen = next_matching(&channels.presence, now, sees).map(|visible| visible + look(&channels.human, &mut channels.rng));
    mark_reached(world, tag, now);
    if let Some(at) = seen.filter(|at| *at >= now) {
        ctx.schedule_at(at, Ev::UserSees { tag, acks: false });
    }
}

fn mark_reached(world: &mut World, tag: u64, now: SimTime) {
    let t = world.track(tag);
    if t.reached_user_at.is_none() {
        t.reached_user_at = Some(now);
        if let Some(emit) = t.emitted_at {
            world.metrics.observe_duration("user.reach_latency", now - emit);
        }
    }
}

fn user_sees(world: &mut World, ctx: &mut Ctx<'_, Ev>, tag: u64, acks: bool) {
    let now = ctx.now();
    if acks {
        world.metrics.incr("user.acked");
    }
    let t = world.track(tag);
    t.user_acked |= acks;
    if t.seen_at.is_none() {
        t.seen_at = Some(now);
        if let Some(emit) = t.emitted_at {
            world.metrics.observe_duration("user.seen_latency", now - emit);
        }
        world.metrics.incr("user.seen");
    } else {
        // The user reads the same alert again (duplicate delivery or the
        // email fallback arriving after the IM was acked).
        world.metrics.incr("user.duplicate_sightings");
    }
}

fn mdc_ping(world: &mut World, ctx: &mut Ctx<'_, Ev>) {
    let now = ctx.now();
    if !world.machine_down {
        // The MDC itself is down during a power outage / reboot; its timer
        // keeps running below so probing resumes with the machine.
        let action = world.mdc.on_ping_timer(now);
        let MdcAction::Ping { deadline } = action else {
            unreachable!("on_ping_timer always pings")
        };
        if world.mab_alive() {
            world.mdc.on_reply(now);
        } else {
            ctx.schedule_at(deadline, Ev::MdcDeadline);
        }
    }
    ctx.schedule_in(world.mdc.config().ping_interval, Ev::MdcPing);
}

fn perform_mdc_action(world: &mut World, ctx: &mut Ctx<'_, Ev>, action: MdcAction) {
    match action {
        MdcAction::Ping { .. } => {}
        MdcAction::RestartMab => {
            ctx.trace("mdc.restart", "restarting MyAlertBuddy");
            world.metrics.incr("mdc.restarts");
            kill(world);
            ctx.schedule_in(world.timing.restart_delay, Ev::MabRestarted);
        }
        MdcAction::RebootMachine => {
            ctx.trace("mdc.reboot", "rebooting the machine");
            world.metrics.incr("mdc.reboots");
            world.machine_down = true;
            kill(world);
            ctx.schedule_in(world.timing.reboot_delay, Ev::MachineUp);
        }
    }
}

/// A process death: the shard goes down, and only its log remains.
fn kill(world: &mut World) {
    world.process = Process::Down(Box::new(take_log(world)));
}

/// Takes whatever runs down, memory lost, and hands over its log.
fn take_log(world: &mut World) -> ShardLog {
    world.hung = false;
    let placeholder = Process::Down(Box::new(ShardLog::in_memory()));
    match std::mem::replace(&mut world.process, placeholder) {
        Process::Up(shard) => shard.into_log(),
        Process::Down(log) => *log,
    }
}

fn on_mab_crashed(world: &mut World, ctx: &mut Ctx<'_, Ev>) {
    ctx.trace("mab.crash", "MyAlertBuddy terminated abnormally");
    world.metrics.incr("mab.crashes");
    kill(world);
    let action = world.mdc.on_mab_terminated(ctx.now());
    perform_mdc_action(world, ctx, action);
}

/// The process (re)starts: a shard reopens over the log — replacing one
/// still running — and replays what it holds unprocessed, its sends
/// leaving after the routing stage.
fn mab_restarted(world: &mut World, ctx: &mut Ctx<'_, Ev>) {
    if world.machine_down {
        return; // the reboot path restarts us via MachineUp
    }
    let now = ctx.now();
    let shard = open_shard(take_log(world), world.notice_tx.clone(), now);
    let replayed = shard.snapshot().stats.replayed;
    world.metrics.add("mab.replayed", replayed);
    world.process = Process::Up(Box::new(shard));
    // Restart also restarts the client software.
    let channels = &mut world.channels;
    channels.im_mgr.core_mut().shutdown_restart(now);
    let _ = channels.im_mgr.start(&mut channels.im, now);
    channels.email_mgr.start(now);
    ctx.trace("mab.restarted", "MyAlertBuddy up");
    let stage = if replayed > 0 { lognormal(world, world.timing.route_median_secs) } else { SimDuration::ZERO };
    finish(world, ctx, stage);
}

fn sanity_check(world: &mut World, ctx: &mut Ctx<'_, Ev>) {
    let now = ctx.now();
    if !world.machine_down {
        let channels = &mut world.channels;
        let report = channels.im_mgr.sanity_check(&mut channels.im, now);
        for repair in &report.repairs {
            match repair {
                simba_client::RepairAction::ReLogon => {
                    world.metrics.incr("sanity.relogon");
                    ctx.trace("sanity.relogon", "IM client re-logged on");
                }
                simba_client::RepairAction::Restart => {
                    world.metrics.incr("sanity.client_restart");
                    ctx.trace("sanity.client_restart", "client killed and restarted");
                }
                simba_client::RepairAction::DialogDismissed { caption, .. } => {
                    world.metrics.incr("sanity.dialog_dismissed");
                    ctx.trace("sanity.dialog_dismissed", caption.clone());
                }
                simba_client::RepairAction::Unrepairable(a) => {
                    world.metrics.incr("sanity.unrepairable");
                    ctx.trace("sanity.unrepairable", format!("{a:?}"));
                }
            }
        }
        let _ = channels.email_mgr.sanity_check(now);
        // The user's own IM client recovers its session independently.
        if !channels.im.is_logged_on(&ImHandle::new(USER_IM), now) {
            let _ = channels.im.logon(&ImHandle::new(USER_IM), now);
        }
    }
    ctx.schedule_in(world.stabilization.sanity_interval, Ev::SanityCheck);
}

fn dialog_scan(world: &mut World, ctx: &mut Ctx<'_, Ev>) {
    let now = ctx.now();
    if !world.machine_down {
        let (dismissed, stuck) = world.channels.im_mgr.core_mut().pump_dialogs();
        world.metrics.add("monkey.dismissed", dismissed.len() as u64);
        for caption in stuck {
            world.metrics.incr("monkey.stuck");
            ctx.trace("monkey.stuck", caption);
        }
        let (dismissed, _) = world.channels.email_mgr.core_mut().pump_dialogs();
        world.metrics.add("monkey.dismissed", dismissed.len() as u64);
        // A stuck dialog eventually gets a human: the paper's two unknown
        // dialog boxes were unrecoverable until someone clicked them away.
        if let Some(delay) = world.operator_attention_delay {
            let process = world.channels.im_mgr.core_mut().process_mut();
            let overdue: Vec<usize> = process
                .dialogs()
                .iter()
                .enumerate()
                .filter(|(_, d)| d.popped_at + delay <= now)
                .map(|(i, _)| i)
                .collect();
            for index in overdue.into_iter().rev() {
                let dialog = process.close_dialog(index);
                world.metrics.incr("operator.manual_fix");
                ctx.trace("operator.manual_fix", dialog.caption);
            }
        }
    }
    ctx.schedule_in(world.stabilization.dialog_interval, Ev::DialogScan);
}

fn nightly(world: &mut World, ctx: &mut Ctx<'_, Ev>) {
    let now = ctx.now();
    if world.nightly_rejuvenation && !world.machine_down {
        ctx.trace("mab.rejuvenate", "nightly");
        world.metrics.incr("mab.rejuvenations");
        graceful_restart(world, ctx);
    }
    if let Some(next) = simba_core::rejuvenate::RejuvenationPolicy::default().next_nightly(now) {
        ctx.schedule_at(next, Ev::Nightly);
    }
}

/// An orderly shutdown + relaunch (rejuvenation): the MDC observes the
/// exit but treats it as planned — no failure-streak accounting.
fn graceful_restart(world: &mut World, ctx: &mut Ctx<'_, Ev>) {
    kill(world);
    ctx.schedule_in(world.timing.restart_delay, Ev::MabRestarted);
}

fn client_fault(world: &mut World, ctx: &mut Ctx<'_, Ev>, kind: FaultKind) {
    let now = ctx.now();
    if !world.machine_down {
        ctx.trace("fault.injected", kind.to_string());
        world.metrics.incr(&format!("fault.{kind}"));
        let channels = &mut world.channels;
        let process = channels.im_mgr.core_mut().process_mut();
        match kind {
            FaultKind::Logout => channels.im.force_logout(&ImHandle::new(MAB_IM)),
            FaultKind::Hang => process.inject_hang(),
            FaultKind::Crash => process.inject_crash(),
            FaultKind::KnownDialog => process.inject_dialog(DialogBox::blocking("Connection Lost", "Retry", now)),
            FaultKind::UnknownDialog => {
                let idx = channels.rng.range(0, UNKNOWN_DIALOG_CAPTIONS.len() as u64 - 1) as usize;
                let (caption, button) = UNKNOWN_DIALOG_CAPTIONS[idx];
                process.inject_dialog(DialogBox::blocking(caption, button, now));
            }
        }
    }
    if let Some(model) = world.client_faults.clone() {
        if let Some((delay, kind)) = model.next_fault(ctx.rng()) {
            ctx.schedule_in(delay, Ev::ClientFault(kind));
        }
    }
}

fn mab_crash(world: &mut World, ctx: &mut Ctx<'_, Ev>) {
    if !world.machine_down && matches!(world.process, Process::Up(_)) {
        on_mab_crashed(world, ctx);
    }
    if let Some(mtbf) = world.mab_crash_mtbf {
        let delay = SimDuration::from_secs_f64(ctx.rng().exponential(mtbf.as_secs_f64()));
        ctx.schedule_in(delay, Ev::MabCrash);
    }
}

fn mab_hang(world: &mut World, ctx: &mut Ctx<'_, Ev>) {
    if !world.machine_down && world.mab_alive() {
        world.hung = true;
        world.metrics.incr("mab.hangs");
        ctx.trace("mab.hang", "MyAlertBuddy wedged");
    }
    if let Some(mtbf) = world.mab_hang_mtbf {
        let delay = SimDuration::from_secs_f64(ctx.rng().exponential(mtbf.as_secs_f64()));
        ctx.schedule_in(delay, Ev::MabHang);
    }
}

/// Extracts the `[#tag]` marker the harness appends to alert bodies.
pub fn parse_tag(text: &str) -> Option<u64> {
    let idx = text.rfind("[#")?;
    let rest = &text[idx + 2..];
    let end = rest.find(']')?;
    rest[..end].parse().ok()
}

/// First instant at or after `from` when `pred` holds, within the horizon.
fn next_matching(
    tl: &PresenceTimeline,
    from: SimTime,
    pred: impl Fn(UserContext) -> bool,
) -> Option<SimTime> {
    if from >= tl.horizon() {
        return None;
    }
    if pred(tl.context_at(from)) {
        return Some(from);
    }
    let mut t = from;
    while let Some(change) = tl.next_change(t) {
        if change >= tl.horizon() {
            return None;
        }
        if pred(tl.context_at(change)) {
            return Some(change);
        }
        t = change;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one_alert(seed: u64) -> (World, u64) {
        let horizon = SimTime::from_hours(1);
        let mut engine = build(PipelineOptions::new(seed, horizon));
        let alert = IncomingAlert::from_im("aladdin-gw", "Basement Water Sensor ON", SimTime::from_secs(10));
        engine.schedule_at(SimTime::from_secs(10), Ev::Emit { tag: 1, alert });
        engine.run_until(horizon, handle);
        let (world, _) = engine.into_parts();
        (world, 1)
    }

    #[test]
    fn single_alert_reaches_user_and_is_acked() {
        let (world, tag) = run_one_alert(42);
        let track = &world.tracks[&tag];
        assert!(track.mab_received_at.is_some(), "MAB never received");
        assert!(track.source_acked_at.is_some(), "source never acked");
        assert!(track.reached_user_at.is_some(), "user never reached");
        assert!(track.seen_at.is_some(), "user never saw");
        assert!(track.user_acked, "user never acked");
        // One-way IM under a second or so; ack RTT a couple of seconds.
        let one_way = track.mab_received_at.unwrap() - track.emitted_at.unwrap();
        assert!(one_way < SimDuration::from_secs(3), "one-way {one_way}");
        let rtt = track.source_acked_at.unwrap() - track.emitted_at.unwrap();
        assert!(rtt < SimDuration::from_secs(5), "rtt {rtt}");
    }

    #[test]
    fn deterministic_across_runs() {
        let (a, _) = run_one_alert(7);
        let (b, _) = run_one_alert(7);
        assert_eq!(a.tracks[&1].seen_at, b.tracks[&1].seen_at);
        assert_eq!(a.tracks[&1].source_acked_at, b.tracks[&1].source_acked_at);
    }

    #[test]
    fn im_outage_forces_email_fallback_from_source() {
        let horizon = SimTime::from_days(1);
        let mut options = PipelineOptions::new(3, horizon);
        // IM down for the first six hours.
        options.im_outages =
            OutageSchedule::from_windows(vec![(SimTime::ZERO, SimTime::from_hours(6))]);
        let mut engine = build(options);
        let alert = IncomingAlert::from_im("aladdin-gw", "Garage Door Sensor ON", SimTime::from_secs(30));
        engine.schedule_at(SimTime::from_secs(30), Ev::Emit { tag: 9, alert });
        engine.run_until(horizon, handle);
        let (world, _) = engine.into_parts();
        assert_eq!(world.tracks[&9].via, Some(CommType::Email));
        assert_eq!(world.metrics.counter("source.im_send_failed"), 1);
        // The alert still gets through eventually.
        assert!(world.tracks[&9].seen_at.is_some());
    }

    #[test]
    fn many_alerts_all_seen_at_desk() {
        let horizon = SimTime::from_hours(10);
        let mut engine = build(PipelineOptions::new(11, horizon));
        for i in 0..50u64 {
            let at = SimTime::from_secs(60 + i * 300);
            let alert = IncomingAlert::from_im("aladdin-gw", format!("Sensor tick {i}"), at);
            engine.schedule_at(at, Ev::Emit { tag: i, alert });
        }
        engine.run_until(horizon, handle);
        let (world, _) = engine.into_parts();
        let seen = world.tracks.values().filter(|t| t.seen_at.is_some()).count();
        assert!(seen >= 48, "only {seen}/50 seen");
        let summary = world.metrics.summary("user.seen_latency").unwrap();
        assert!(summary.mean() < 30.0, "mean seen latency {}", summary.mean());
    }

    /// The user's acks reach the shard through its own timer wheel, at
    /// the instant the harness records them: over E1's run every ack the
    /// user gives concludes one delivery acknowledged, and the user
    /// acknowledges nearly every alert. Each alert is ingested once, so
    /// an alert is acked twice only when its source, never hearing the
    /// buddy's ack, sent it again by email.
    #[test]
    fn e1_every_user_ack_concludes_one_acked_delivery() {
        let world = crate::experiments::e1_im_latency::simulate(42, true);
        let acked = world.tracks.values().filter(|t| t.user_acked).count() as u64;
        assert!(acked > 1_990, "{acked} of 2 000 alerts acknowledged");
        let acks = world.metrics.counter("user.acked");
        let resent = world.metrics.counter("source.email_fallback");
        assert!((acked..=acked + resent).contains(&acks), "{acks} acks for {acked} alerts, {resent} resent");
        assert_eq!(world.metrics.counter("mab.acked"), acks);
    }

    #[test]
    fn parse_tag_roundtrip() {
        assert_eq!(parse_tag("Sensor ON [#42]"), Some(42));
        assert_eq!(parse_tag("ACK [#7]"), Some(7));
        assert_eq!(parse_tag("no tag here"), None);
        assert_eq!(parse_tag("[#notanumber]"), None);
    }

    #[test]
    fn mab_crashes_are_restarted_and_alerts_replayed() {
        let horizon = SimTime::from_days(2);
        let mut options = PipelineOptions::new(17, horizon);
        options.mab_crash_mtbf = Some(SimDuration::from_hours(4));
        let mut engine = build(options);
        for i in 0..40u64 {
            let at = SimTime::from_mins(30 + i * 60);
            let alert = IncomingAlert::from_im("aladdin-gw", format!("Sensor event {i}"), at);
            engine.schedule_at(at, Ev::Emit { tag: i, alert });
        }
        engine.run_until(horizon, handle);
        let (world, trace) = engine.into_parts();
        assert!(world.metrics.counter("mab.crashes") > 0, "no crashes injected");
        assert!(world.metrics.counter("mdc.restarts") > 0, "MDC never restarted");
        assert!(trace.count("mab.restarted") > 0);
        // Despite crashes, the overwhelming majority of alerts get through.
        let seen = world.tracks.values().filter(|t| t.seen_at.is_some()).count();
        assert!(seen >= 36, "only {seen}/40 seen");
    }

    #[test]
    fn client_faults_recovered_by_sanity_checks() {
        let horizon = SimTime::from_days(3);
        let mut options = PipelineOptions::new(23, horizon);
        options.client_faults = Some(ClientFaultModel {
            logout_mtbf: Some(SimDuration::from_hours(6)),
            hang_mtbf: Some(SimDuration::from_hours(9)),
            crash_mtbf: None,
            known_dialog_mtbf: Some(SimDuration::from_hours(12)),
            unknown_dialog_mtbf: None,
        });
        let mut engine = build(options);
        for i in 0..30u64 {
            let at = SimTime::from_mins(10 + i * 120);
            let alert = IncomingAlert::from_im("aladdin-gw", format!("Sensor blip {i}"), at);
            engine.schedule_at(at, Ev::Emit { tag: i, alert });
        }
        engine.run_until(horizon, handle);
        let (world, _) = engine.into_parts();
        assert!(world.metrics.counter("sanity.relogon") > 0, "no re-logons");
        assert!(
            world.metrics.counter("sanity.client_restart") > 0,
            "no client restarts"
        );
        let seen = world.tracks.values().filter(|t| t.seen_at.is_some()).count();
        assert!(seen >= 27, "only {seen}/30 seen");
    }
}
