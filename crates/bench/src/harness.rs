//! The end-to-end pipeline world: sources → channels → MyAlertBuddy →
//! the user's devices and eyes, inside the deterministic engine.
//!
//! This is the §5 experimental setting (Figure 5) as a simulation: alert
//! sources deliver to MyAlertBuddy over IM (falling back to email), the
//! buddy logs/acks/classifies/routes, its Communication Managers drive
//! flaky client software, the MDC watchdog and the self-stabilization
//! schedule run at the paper's cadences, and a presence-modelled human
//! finally *sees* each alert.
//!
//! Timing model (calibrated to §5's prose numbers):
//!
//! * IM transit: log-normal, median ≈ 0.4 s → "typically less than one
//!   second" one-way;
//! * client pickup ≈ 0.2 s + pessimistic-log fsync ≈ 0.25 s before the
//!   ack → ack RTT ≈ 1.5 s;
//! * classification + delivery-mode parsing + client automation ≈ 1.2 s
//!   before outbound sends → proxy-to-user ≈ 2.5 s (E2).

use simba_client::faults::{ClientFaultModel, FaultKind};
use simba_client::dialogs::DialogBox;
use simba_client::{EmailManager, ImManager};
use simba_core::address::{Address, AddressBook, CommType};
use simba_core::alert::IncomingAlert;
use simba_core::classify::{Classifier, KeywordField};
use simba_core::delivery::{AttemptId, DeliveryCommand, DeliveryEvent, SendFailure};
use simba_core::mab::{DeliveryId, MabCommand, MabConfig, MabEvent, MyAlertBuddy};
use simba_core::mdc::{MasterDaemonController, MdcAction, MdcConfig};
use simba_core::mode::DeliveryMode;
use simba_core::shardlog::ShardLog;
use simba_core::stabilize::{StabilizationConfig, StabilizationSchedule};
use simba_core::subscription::{SubscriptionRegistry, UserId};
use simba_net::email::{EmailAddr, EmailService, EmailTransit};
use simba_net::im::{ImHandle, ImMessage, ImService, Transit};
use simba_net::latency::LatencyModel;
use simba_net::loss::LossModel;
use simba_net::outage::OutageSchedule;
use simba_net::presence::{HumanModel, PresenceTimeline, UserContext};
use simba_net::sms::{PhoneState, SmsGateway, SmsNumber, SmsTransit};
use simba_sim::{Ctx, Engine, MetricSet, ObserveDurationNamed, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

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
    /// Deferred execution of routed channel commands.
    MabRoute {
        /// Commands produced by the routing stage.
        commands: Vec<MabCommand>,
    },
    /// The MAB→source ack IM completed transit.
    SourceAckArrive {
        /// Tracking tag.
        tag: u64,
    },
    /// A delivery-mode ack timer fired.
    DeliveryTimer {
        /// Which delivery.
        delivery: DeliveryId,
        /// Which timer.
        timer: simba_core::delivery::TimerId,
    },
    /// An outbound IM reached the user's desktop.
    UserImArrive {
        /// Which delivery/attempt it answers.
        delivery: DeliveryId,
        /// The attempt.
        attempt: AttemptId,
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
        /// The message.
        transit: EmailTransit,
    },
    /// The human read the alert (and acks if it was an IM).
    UserSees {
        /// Tracking tag.
        tag: u64,
        /// The delivery/attempt to ack, when IM.
        ack: Option<(DeliveryId, AttemptId)>,
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

/// The pipeline world.
pub struct World {
    /// IM service shared by sources, the buddy, and the user.
    pub im: ImService,
    /// Email service.
    pub email: EmailService,
    /// SMS gateway.
    pub sms: SmsGateway,
    /// The buddy (None while restarting).
    pub mab: Option<MyAlertBuddy>,
    /// The buddy's log, lent to each of its calls: it outlives every
    /// incarnation, and each restart replays it.
    log: ShardLog,
    /// Config used to re-create the buddy on restart.
    pub mab_config: MabConfig,
    /// The buddy's IM client manager.
    pub im_mgr: ImManager,
    /// The buddy's email client manager.
    pub email_mgr: EmailManager,
    /// The watchdog.
    pub mdc: MasterDaemonController,
    sched: StabilizationSchedule,
    /// Presence timeline for the user.
    pub presence: PresenceTimeline,
    /// Human model.
    pub human: HumanModel,
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
    rng: SimRng,
}

impl World {
    fn track(&mut self, tag: u64) -> &mut AlertTrack {
        self.tracks.entry(tag).or_default()
    }

    /// True while the buddy process exists and responds.
    pub fn mab_alive(&self) -> bool {
        self.mab.as_ref().is_some_and(|m| m.are_you_working())
    }
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

    let mab_config = standard_config();
    let mut im_mgr = ImManager::new(ImHandle::new(MAB_IM));
    let _ = im_mgr.start(&mut im, SimTime::ZERO);
    let mut email_mgr = EmailManager::new(EmailAddr::new(MAB_EMAIL));
    email_mgr.start(SimTime::ZERO);

    let mab = MyAlertBuddy::new(mab_config.clone(), UserId::new("alice"));

    let world = World {
        im,
        email,
        sms,
        mab: Some(mab),
        log: ShardLog::in_memory(),
        mab_config,
        im_mgr,
        email_mgr,
        mdc: MasterDaemonController::new(options.mdc),
        sched: StabilizationSchedule::new(options.stabilization, SimTime::ZERO),
        presence: options.presence,
        human: options.human,
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
        rng: world_rng,
    };

    let mut engine = Engine::new(world, options.seed ^ 0xD15C0);
    if options.preregistered_dialog_rules {
        for (caption, button) in UNKNOWN_DIALOG_CAPTIONS {
            engine.world_mut().im_mgr.register_dialog_rule(caption, button);
            engine.world_mut().email_mgr.register_dialog_rule(caption, button);
        }
    }
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
#[allow(clippy::too_many_lines)]
pub fn handle(world: &mut World, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
    match ev {
        Ev::Emit { tag, alert } => emit(world, ctx, tag, alert),
        Ev::SourceAckTimeout { tag } => source_ack_timeout(world, ctx, tag),
        Ev::MabImArrive { tag, message } => mab_im_arrive(world, ctx, tag, message),
        Ev::MabEmailArrive { tag, transit } => {
            if !transit.lost {
                let alert = IncomingAlert::from_email(
                    transit.message.from.0.clone(),
                    transit.message.sender_name.clone(),
                    transit.message.subject.clone(),
                    transit.message.body.clone(),
                    transit.message.sent_at,
                );
                world.email.deposit(transit.message);
                let pickup = lognormal(world, world.timing.pickup_median_secs);
                ctx.schedule_in(pickup, Ev::MabIngest { tag, alert, via_im: false });
            }
        }
        Ev::MabIngest { tag, alert, via_im } => mab_ingest(world, ctx, tag, alert, via_im),
        Ev::MabRoute { commands } => execute_commands(world, ctx, commands),
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
        Ev::DeliveryTimer { delivery, timer } => {
            let event = MabEvent::Delivery {
                id: delivery,
                event: DeliveryEvent::TimerFired { timer },
            };
            mab_handle(world, ctx, event);
        }
        Ev::UserImArrive { delivery, attempt, tag, message } => {
            user_im_arrive(world, ctx, delivery, attempt, tag, message)
        }
        Ev::UserSmsArrive { tag, transit } => user_sms_arrive(world, ctx, tag, transit),
        Ev::UserEmailArrive { tag, transit } => user_email_arrive(world, ctx, tag, transit),
        Ev::UserSees { tag, ack } => user_sees(world, ctx, tag, ack),
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
            world.mab = None;
            world.im_mgr.core_mut().process_mut().kill();
            world.email_mgr.core_mut().process_mut().kill();
            ctx.schedule_in(restore_after, Ev::MachineUp);
        }
    }
}

fn lognormal(world: &mut World, median: f64) -> SimDuration {
    SimDuration::from_secs_f64(world.rng.lognormal(median.max(1e-3), world.timing.sigma))
}

/// Source emission: IM first; synchronous failure → email fallback.
fn emit(world: &mut World, ctx: &mut Ctx<'_, Ev>, tag: u64, alert: IncomingAlert) {
    let now = ctx.now();
    world.track(tag).emitted_at = Some(now);
    world.metrics.incr("source.emitted");
    let source = ImHandle::new(&*alert.source);
    // Sources keep their own sessions alive: re-logon before emitting if a
    // recovery or outage dropped the session.
    if !world.im.is_logged_on(&source, now) {
        let _ = world.im.logon(&source, now);
    }
    if !world.im.is_logged_on(&ImHandle::new(USER_IM), now) {
        let _ = world.im.logon(&ImHandle::new(USER_IM), now);
    }
    match world.im.send(&source, &ImHandle::new(MAB_IM), &*alert.body, now) {
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
    let transit = world.email.send(
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
    if !world.im.deliver(message.clone(), now) {
        world.metrics.incr("mab.im_undeliverable");
        return;
    }
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

/// The §4.2.1 pipeline with explicit stage timing.
fn mab_ingest(world: &mut World, ctx: &mut Ctx<'_, Ev>, tag: u64, mut alert: IncomingAlert, via_im: bool) {
    // Client software must be usable for the buddy to see the message.
    if world.im_mgr.core_mut().automation_op().is_err() || !world.mab_alive() {
        // Left in the inbox / unread; the sanity sweep will re-ingest.
        world.metrics.incr("mab.ingest_deferred");
        // Re-try after the next sanity interval.
        ctx.schedule_in(world.sched.config().sanity_interval, Ev::MabIngest { tag, alert, via_im });
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
    let event = if via_im {
        MabEvent::AlertByIm(alert)
    } else {
        MabEvent::AlertByEmail(alert)
    };
    let Some(mab) = world.mab.as_mut() else {
        return;
    };
    let commands = mab.handle(&mut world.log, event, now);
    let crashed = mab.is_crashed();
    let mut acks = Vec::new();
    let mut routed = Vec::new();
    for c in commands {
        match c {
            MabCommand::AckIm { to, .. } => acks.push(to),
            // The simulation never retires: its buddy keeps every
            // delivery, and the end of one needs no routing delay.
            MabCommand::Finished { .. } => {}
            other => routed.push(other),
        }
    }
    // The ack leaves after the log write.
    for to in acks {
        let send_at_delay = wal_cost;
        let mab_handle_im = ImHandle::new(MAB_IM);
        let target = ImHandle::new(&*to);
        // Model: schedule the ack IM send after the fsync. We send now
        // with the service latency standing in for (fsync + transit).
        if let Ok(Transit { delay, lost, .. }) =
            world.im.send(&mab_handle_im, &target, format!("ACK [#{tag}]"), now)
        {
            if !lost {
                ctx.schedule_in(send_at_delay + delay, Ev::SourceAckArrive { tag });
            }
        }
    }
    // Routing continues after classification/parsing.
    if !routed.is_empty() {
        let route_delay = wal_cost + lognormal(world, world.timing.route_median_secs);
        ctx.schedule_in(route_delay, Ev::MabRoute { commands: routed });
    }
    if crashed {
        on_mab_crashed(world, ctx);
    }
}

/// Runs a MabEvent through the buddy and executes resulting commands.
fn mab_handle(world: &mut World, ctx: &mut Ctx<'_, Ev>, event: MabEvent) {
    let now = ctx.now();
    let Some(mab) = world.mab.as_mut() else {
        return;
    };
    let commands = mab.handle(&mut world.log, event, now);
    let crashed = mab.is_crashed();
    execute_commands(world, ctx, commands);
    if crashed {
        on_mab_crashed(world, ctx);
    }
}

fn execute_commands(world: &mut World, ctx: &mut Ctx<'_, Ev>, commands: Vec<MabCommand>) {
    let now = ctx.now();
    for command in commands {
        match command {
            MabCommand::AckIm { .. } => { /* replay acks are suppressed */ }
            MabCommand::Finished { .. } => { /* the simulation never retires */ }
            MabCommand::Rejuvenate(trigger) => {
                ctx.trace("mab.rejuvenate", trigger.to_string());
                world.metrics.incr("mab.rejuvenations");
                graceful_restart(world, ctx);
            }
            MabCommand::Channel { delivery, command, .. } => match command {
                DeliveryCommand::StartTimer { timer, after } => {
                    ctx.schedule_in(after, Ev::DeliveryTimer { delivery, timer });
                }
                DeliveryCommand::Send { attempt, comm_type, address_value, text, .. } => {
                    let tag = parse_tag(&text).unwrap_or(u64::MAX);
                    send_to_user(world, ctx, delivery, attempt, comm_type, &address_value, text.to_string(), tag);
                }
            },
        }
    }
    let _ = now;
}

#[allow(clippy::too_many_arguments)]
fn send_to_user(
    world: &mut World,
    ctx: &mut Ctx<'_, Ev>,
    delivery: DeliveryId,
    attempt: AttemptId,
    comm_type: CommType,
    address_value: &str,
    text: String,
    tag: u64,
) {
    let now = ctx.now();
    // All outbound sends go through the buddy's client software.
    let client_ok = match comm_type {
        CommType::Im => world.im_mgr.core_mut().automation_op().is_ok(),
        _ => world.email_mgr.core_mut().automation_op().is_ok(),
    };
    if !client_ok {
        world.metrics.incr("mab.outbound_client_failure");
        mab_handle(
            world,
            ctx,
            MabEvent::Delivery {
                id: delivery,
                event: DeliveryEvent::SendFailed { attempt, failure: SendFailure::ClientSoftware },
            },
        );
        return;
    }
    match comm_type {
        CommType::Im => {
            match world.im.send(&ImHandle::new(MAB_IM), &ImHandle::new(address_value), text, now) {
                Ok(Transit { message, delay, lost }) => {
                    world.metrics.incr("user.im_sent");
                    mab_handle(
                        world,
                        ctx,
                        MabEvent::Delivery { id: delivery, event: DeliveryEvent::SendAccepted { attempt } },
                    );
                    if !lost {
                        ctx.schedule_in(delay, Ev::UserImArrive { delivery, attempt, tag, message });
                    }
                }
                Err(e) => {
                    world.metrics.incr("user.im_send_failed");
                    let failure = match e {
                        simba_net::im::ImSendError::ServiceDown => SendFailure::ChannelDown,
                        _ => SendFailure::RecipientUnreachable,
                    };
                    mab_handle(
                        world,
                        ctx,
                        MabEvent::Delivery { id: delivery, event: DeliveryEvent::SendFailed { attempt, failure } },
                    );
                }
            }
        }
        CommType::Sms => {
            let transit = world.sms.send(&SmsNumber::new(address_value), &text, now);
            world.metrics.incr("user.sms_sent");
            mab_handle(
                world,
                ctx,
                MabEvent::Delivery { id: delivery, event: DeliveryEvent::SendAccepted { attempt } },
            );
            if !transit.lost {
                let delay = transit.delay;
                ctx.schedule_in(delay, Ev::UserSmsArrive { tag, transit });
            }
        }
        CommType::Email => {
            let transit = world.email.send(
                &EmailAddr::new(MAB_EMAIL),
                &EmailAddr::new(address_value),
                "MyAlertBuddy",
                "alert",
                text,
                now,
            );
            world.metrics.incr("user.email_sent");
            mab_handle(
                world,
                ctx,
                MabEvent::Delivery { id: delivery, event: DeliveryEvent::SendAccepted { attempt } },
            );
            if !transit.lost {
                let delay = transit.delay;
                ctx.schedule_in(delay, Ev::UserEmailArrive { tag, transit });
            }
        }
    }
}

fn user_im_arrive(
    world: &mut World,
    ctx: &mut Ctx<'_, Ev>,
    delivery: DeliveryId,
    attempt: AttemptId,
    tag: u64,
    message: ImMessage,
) {
    let now = ctx.now();
    if !world.im.deliver(message, now) {
        return;
    }
    mark_reached(world, tag, now);
    if world.presence.context_at(now).sees_im() {
        let reaction = world.human.im_reaction(&mut world.rng);
        ctx.schedule_in(reaction, Ev::UserSees { tag, ack: Some((delivery, attempt)) });
    }
}

fn user_sms_arrive(world: &mut World, ctx: &mut Ctx<'_, Ev>, tag: u64, transit: SmsTransit) {
    let now = ctx.now();
    if !world.sms.deliver(&transit.message) {
        return;
    }
    mark_reached(world, tag, now);
    if let Some(visible) = next_matching(&world.presence, now, UserContext::sees_sms) {
        let reaction = world.human.sms_reaction(&mut world.rng);
        let at = visible + reaction;
        if at >= now {
            ctx.schedule_at(at, Ev::UserSees { tag, ack: None });
        }
    }
}

fn user_email_arrive(world: &mut World, ctx: &mut Ctx<'_, Ev>, tag: u64, transit: EmailTransit) {
    let now = ctx.now();
    world.email.deposit(transit.message);
    mark_reached(world, tag, now);
    if let Some(visible) = next_matching(&world.presence, now, UserContext::sees_email) {
        let poll = world.human.email_poll(&mut world.rng);
        let at = visible + poll;
        if at >= now {
            ctx.schedule_at(at, Ev::UserSees { tag, ack: None });
        }
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

fn user_sees(world: &mut World, ctx: &mut Ctx<'_, Ev>, tag: u64, ack: Option<(DeliveryId, AttemptId)>) {
    let now = ctx.now();
    let t = world.track(tag);
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
    if let Some((delivery, attempt)) = ack {
        world.track(tag).user_acked = true;
        mab_handle(
            world,
            ctx,
            MabEvent::Delivery { id: delivery, event: DeliveryEvent::Acked { attempt } },
        );
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
            world.mab = None;
            ctx.schedule_in(world.timing.restart_delay, Ev::MabRestarted);
        }
        MdcAction::RebootMachine => {
            ctx.trace("mdc.reboot", "rebooting the machine");
            world.metrics.incr("mdc.reboots");
            world.machine_down = true;
            world.mab = None;
            ctx.schedule_in(world.timing.reboot_delay, Ev::MachineUp);
        }
    }
}

fn on_mab_crashed(world: &mut World, ctx: &mut Ctx<'_, Ev>) {
    ctx.trace("mab.crash", "MyAlertBuddy terminated abnormally");
    world.metrics.incr("mab.crashes");
    world.mab = None;
    let action = world.mdc.on_mab_terminated(ctx.now());
    perform_mdc_action(world, ctx, action);
}

fn mab_restarted(world: &mut World, ctx: &mut Ctx<'_, Ev>) {
    if world.machine_down {
        return; // the reboot path restarts us via MachineUp
    }
    let now = ctx.now();
    let mut mab = MyAlertBuddy::new(world.mab_config.clone(), UserId::new("alice"));
    let commands = mab.recover(&mut world.log, now);
    world.metrics.add("mab.replayed", mab.stats().replayed);
    world.mab = Some(mab);
    // Restart also restarts the client software.
    world.im_mgr.core_mut().shutdown_restart(now);
    let _ = world.im_mgr.start(&mut world.im, now);
    world.email_mgr.start(now);
    ctx.trace("mab.restarted", "MyAlertBuddy up");
    if !commands.is_empty() {
        let delay = lognormal(world, world.timing.route_median_secs);
        ctx.schedule_in(delay, Ev::MabRoute { commands });
    }
    // Sweep anything that arrived while down.
    sweep_backlog(world, ctx);
}

fn sweep_backlog(world: &mut World, ctx: &mut Ctx<'_, Ev>) {
    let now = ctx.now();
    if !world.mab_alive() {
        return;
    }
    if let Ok(messages) = world.im_mgr.receive(&mut world.im, now) {
        for message in messages {
            let tag = parse_tag(&message.body).unwrap_or(u64::MAX);
            let alert = IncomingAlert::from_im(message.from.0.clone(), message.body, message.sent_at);
            let pickup = lognormal(world, world.timing.pickup_median_secs);
            ctx.schedule_in(pickup, Ev::MabIngest { tag, alert, via_im: true });
        }
    }
    for mail in world.email_mgr.take_unread() {
        let tag = parse_tag(&mail.body).unwrap_or(u64::MAX);
        let alert = IncomingAlert::from_email(
            mail.from.0.clone(),
            mail.sender_name,
            mail.subject,
            mail.body,
            mail.sent_at,
        );
        let pickup = lognormal(world, world.timing.pickup_median_secs);
        ctx.schedule_in(pickup, Ev::MabIngest { tag, alert, via_im: false });
    }
}

fn sanity_check(world: &mut World, ctx: &mut Ctx<'_, Ev>) {
    let now = ctx.now();
    if !world.machine_down {
        let report = world.im_mgr.sanity_check(&mut world.im, now);
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
        let _ = world.email_mgr.sanity_check(&mut world.email, now);
        // The user's own IM client recovers its session independently.
        if !world.im.is_logged_on(&ImHandle::new(USER_IM), now) {
            let _ = world.im.logon(&ImHandle::new(USER_IM), now);
        }
        // The sweep half of self-stabilization: unprocessed messages.
        sweep_backlog(world, ctx);
    }
    ctx.schedule_in(world.sched.config().sanity_interval, Ev::SanityCheck);
}

fn dialog_scan(world: &mut World, ctx: &mut Ctx<'_, Ev>) {
    let now = ctx.now();
    if !world.machine_down {
        let (dismissed, stuck) = world.im_mgr.core_mut().pump_dialogs();
        world.metrics.add("monkey.dismissed", dismissed.len() as u64);
        for caption in stuck {
            world.metrics.incr("monkey.stuck");
            ctx.trace("monkey.stuck", caption);
        }
        let (dismissed, _) = world.email_mgr.core_mut().pump_dialogs();
        world.metrics.add("monkey.dismissed", dismissed.len() as u64);
        // A stuck dialog eventually gets a human: the paper's two unknown
        // dialog boxes were unrecoverable until someone clicked them away.
        if let Some(delay) = world.operator_attention_delay {
            let process = world.im_mgr.core_mut().process_mut();
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
    ctx.schedule_in(world.sched.config().dialog_interval, Ev::DialogScan);
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
    world.mab = None;
    ctx.schedule_in(world.timing.restart_delay, Ev::MabRestarted);
}

fn client_fault(world: &mut World, ctx: &mut Ctx<'_, Ev>, kind: FaultKind) {
    let now = ctx.now();
    if !world.machine_down {
        ctx.trace("fault.injected", kind.to_string());
        world.metrics.incr(&format!("fault.{kind}"));
        match kind {
            FaultKind::Logout => world.im.force_logout(&ImHandle::new(MAB_IM)),
            FaultKind::Hang => world.im_mgr.core_mut().process_mut().inject_hang(),
            FaultKind::Crash => world.im_mgr.core_mut().process_mut().inject_crash(),
            FaultKind::KnownDialog => world.im_mgr.core_mut().process_mut().inject_dialog(
                DialogBox::blocking("Connection Lost", "Retry", now),
            ),
            FaultKind::UnknownDialog => {
                let idx = world.rng.range(0, UNKNOWN_DIALOG_CAPTIONS.len() as u64 - 1) as usize;
                let (caption, button) = UNKNOWN_DIALOG_CAPTIONS[idx];
                world
                    .im_mgr
                    .core_mut()
                    .process_mut()
                    .inject_dialog(DialogBox::blocking(caption, button, now));
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
    if !world.machine_down && world.mab.is_some() {
        on_mab_crashed(world, ctx);
    }
    if let Some(mtbf) = world.mab_crash_mtbf {
        let delay = SimDuration::from_secs_f64(ctx.rng().exponential(mtbf.as_secs_f64()));
        ctx.schedule_in(delay, Ev::MabCrash);
    }
}

fn mab_hang(world: &mut World, ctx: &mut Ctx<'_, Ev>) {
    if !world.machine_down {
        if let Some(mab) = world.mab.as_mut() {
            if mab.are_you_working() {
                mab.inject_hang();
                world.metrics.incr("mab.hangs");
                ctx.trace("mab.hang", "MyAlertBuddy wedged");
            }
        }
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
