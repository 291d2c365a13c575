//! The reference deployment: the real composed pipeline, built from
//! public APIs only, frozen here so every run measures the same thing.
//!
//! `GatewayServer` (std threads) → bounded intake → `pump_into_sharded_host`
//! → `ShardedHost` with rules and ledger attached → `LedgerWorkerPool` →
//! `LedgerChannelBridge` → the benchmark's [`Sink`]. Pump, shard workers
//! and ledger workers share one runtime thread (`threads: false`): on the
//! 2-core reference box thread-per-shard is slower and much noisier.

use crate::sink::Sink;
use crate::workload::{
    user_name, Rules, Workload, CONNS, KEYWORD, SOURCE_CHATTY, SOURCE_FLAP, SOURCE_NORMAL,
};
use simba_core::address::{Address, AddressBook, CommType};
use simba_core::alert::Urgency;
use simba_core::classify::{Classifier, KeywordField};
use simba_core::mode::{Block, DeliveryMode};
use simba_core::rejuvenate::RejuvenationPolicy;
use simba_core::subscription::{SubscriptionRegistry, UserId};
use simba_core::MabConfig;
use simba_gateway::{
    intake, pump_into_sharded_host, GatewayConfig, GatewayServer, ProbeStats, PumpReport,
};
use simba_ledger::{
    DeliveryLedger, LedgerChannels, LedgerClock, LedgerConfig, LedgerStats, LedgerWorkerPool,
    PoolStats, SharedLedger, WorkerPoolConfig,
};
use simba_rules::{DigestConfig, RuleEngine, RuleSpec, RulesConfig, SharedRuleEngine};
use simba_runtime::{
    shared_filter, ConfigFactory, LedgerChannelBridge, ShardedHost, ShardedHostConfig,
    ShardedSnapshot, DEFAULT_DEDUPE_CAPACITY,
};
use simba_sim::{SimDuration, SimTime};
use simba_telemetry::Telemetry;
use std::cell::Cell;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

pub const SHARDS: usize = 2;
/// Large enough that neither the closed-loop window (256) nor the
/// open-loop catch-up after a stall of the whole VM (seen: 110 ms of
/// hypervisor steal, 4 659 refusals at 8 192) trips `QueueFull` or
/// `ConnBusy`: a second of the highest offered rate fits.
const INTAKE_CAPACITY: usize = 32_768;
const PER_CONN_INFLIGHT: usize = 16_384;
/// Storm digest rule: flush after this long or this many alerts.
const DIGEST_WINDOW_MS: u64 = 200;
const DIGEST_MAX_COUNT: u32 = 64;
/// A pool that cannot drain in this long has stuck leases; the run is
/// void rather than allowed to hang.
const POOL_DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// Every user's profile: one fire-and-forget IM block, so the channel
/// send is the end of the path and no ack window is left running.
pub fn user_config(user: &UserId) -> MabConfig {
    let mut classifier = Classifier::new();
    for source in [SOURCE_NORMAL, SOURCE_FLAP, SOURCE_CHATTY] {
        classifier.accept_source(source, KeywordField::Body, "cfg");
    }
    classifier.map_keyword(KEYWORD, "Home");
    let mut registry = SubscriptionRegistry::new();
    let profile = registry.register_user(user.clone());
    let mut book = AddressBook::new();
    book.add(Address::new("IM", CommType::Im, format!("im:{}", user.0)))
        .expect("fresh book");
    profile.address_book = book;
    profile.define_mode(
        DeliveryMode::new("Direct", vec![Block::fire_and_forget(vec!["IM".into()])])
            .expect("one non-empty block"),
    );
    registry
        .subscribe("Home", user.clone(), "Direct")
        .expect("fresh subscription");
    MabConfig {
        classifier,
        registry,
        rejuvenation: RejuvenationPolicy::default(),
    }
}

/// The rules one user owns, in upsert order — the lowest id wins, so the
/// PANIC override must come before the digest that would swallow it.
pub fn rule_specs(rules: Rules) -> Vec<RuleSpec> {
    match rules {
        Rules::None => Vec::new(),
        Rules::OneDeliver => {
            vec![RuleSpec::deliver(
                "all",
                &format!("source == \"{SOURCE_NORMAL}\""),
            )]
        }
        Rules::Storm => {
            let mut panic = RuleSpec::deliver("panic", "body contains \"PANIC\"");
            panic.severity = Some(Urgency::Critical);
            vec![
                panic,
                RuleSpec::digest(
                    "fold-flaps",
                    &format!("source == \"{SOURCE_FLAP}\""),
                    DigestConfig {
                        window_ms: DIGEST_WINDOW_MS,
                        max_count: DIGEST_MAX_COUNT,
                        ..DigestConfig::default()
                    },
                ),
                RuleSpec::suppress("mute-chatty", &format!("source == \"{SOURCE_CHATTY}\"")),
                RuleSpec::deliver("rest", "any"),
            ]
        }
    }
}

/// Opens a rules engine and upserts the workload's rules for each of
/// `users`. Returns the engine and the upsert cost in µs per rule.
pub fn open_rules(
    workload: &Workload,
    users: impl Iterator<Item = usize>,
    dir: Option<&Path>,
    telemetry: &Telemetry,
) -> (SharedRuleEngine, f64) {
    let config = match dir {
        Some(dir) => RulesConfig::on_disk(dir.join("rules")),
        None => RulesConfig::in_memory(),
    };
    let engine = Arc::new(
        RuleEngine::open_with_telemetry(config, telemetry.clone()).expect("open rules engine"),
    );
    let specs = rule_specs(workload.rules);
    let started = Instant::now();
    let mut rules = 0usize;
    if !specs.is_empty() {
        for user in users {
            let name = user_name(user);
            for spec in &specs {
                engine
                    .upsert(&name, None, spec.clone())
                    .expect("generated rules are valid");
                rules += 1;
            }
        }
    }
    let per_rule = if rules == 0 {
        0.0
    } else {
        started.elapsed().as_secs_f64() * 1e6 / rules as f64
    };
    (engine, per_rule)
}

pub fn open_ledger(dir: Option<&Path>, telemetry: &Telemetry) -> SharedLedger {
    let config = match dir {
        Some(dir) => LedgerConfig::on_disk(dir.join("ledger")),
        None => LedgerConfig::default(),
    };
    let ledger = DeliveryLedger::open(config)
        .expect("open ledger")
        .with_telemetry(telemetry.clone());
    Arc::new(Mutex::new(ledger))
}

pub fn host_config(workload: &Workload, dir: Option<&Path>) -> ShardedHostConfig {
    let defaults = ShardedHostConfig::default();
    ShardedHostConfig {
        shards: SHARDS,
        log_dir: dir.map(|dir| dir.join("shards")),
        hibernate_after: workload
            .hibernate_after_ms
            .map_or(defaults.hibernate_after, SimDuration::from_millis),
        threads: false,
        ..defaults
    }
}

pub fn registered_users(workload: &Workload) -> Vec<UserId> {
    (0..workload.registered_users)
        .map(|u| UserId::new(user_name(u)))
        .collect()
}

/// What the runtime thread hands back when it stops.
#[derive(Debug)]
pub struct RuntimeReport {
    pub pump: PumpReport,
    pub host: ShardedSnapshot,
    /// `None` when the pool failed to drain within [`POOL_DRAIN_LIMIT`].
    pub pool: Option<PoolStats>,
}

/// A running deployment.
pub struct Pipeline {
    pub addr: SocketAddr,
    /// Bind, open logs, upsert rules, register users, spawn the pool:
    /// everything before the first frame can be sent.
    pub setup_s: f64,
    pub upsert_us_per_rule: f64,
    pub ledger: SharedLedger,
    server: GatewayServer,
    runtime: std::thread::JoinHandle<RuntimeReport>,
    peak_active: Arc<AtomicUsize>,
    dir: Option<PathBuf>,
}

/// Final public stats of every layer, read after the pipeline stopped.
#[derive(Debug)]
pub struct Stopped {
    pub gateway: ProbeStats,
    pub runtime: RuntimeReport,
    pub ledger: LedgerStats,
    pub peak_active: usize,
}

impl Pipeline {
    /// Builds and starts the deployment for `workload`. File-backed
    /// state goes under a fresh sub-directory of `data_dir`.
    /// `sample_active` adds a task that snapshots the host twice a second
    /// for `runtime.peak_active` (a snapshot walks the roster, so only
    /// traced runs pay for it).
    pub fn start(
        workload: &Workload,
        data_dir: &Path,
        telemetry: &Telemetry,
        sink: &Sink,
        sample_active: bool,
    ) -> Pipeline {
        let started = Instant::now();
        let dir = workload.file_backed.then(|| {
            // One process starts several pipelines: number their dirs.
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = data_dir.join(format!("run-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create the data dir");
            dir
        });
        let (engine, upsert_us_per_rule) = open_rules(
            workload,
            0..workload.registered_users,
            dir.as_deref(),
            telemetry,
        );
        let ledger = open_ledger(dir.as_deref(), telemetry);

        let (intake_tx, intake_rx) = intake(INTAKE_CAPACITY);
        let gateway_config = GatewayConfig {
            workers: CONNS + 1,
            per_conn_inflight: PER_CONN_INFLIGHT,
            ..GatewayConfig::default()
        };
        let server = GatewayServer::bind(gateway_config, intake_tx, telemetry.clone())
            .expect("bind the gateway on localhost");
        let addr = server.local_addr();

        let peak_active = Arc::new(AtomicUsize::new(0));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let runtime = {
            let config = ShardedHostConfig {
                ledger: Some(Arc::clone(&ledger)),
                rules: Some(Arc::clone(&engine)),
                ..host_config(workload, dir.as_deref())
            };
            let users = registered_users(workload);
            let telemetry = telemetry.clone();
            let sink = sink.clone();
            let ledger = Arc::clone(&ledger);
            let peak = Arc::clone(&peak_active);
            std::thread::Builder::new()
                .name("simba-runtime".into())
                .spawn(move || {
                    tokio::runtime::block_on(async move {
                        let registered = users.len();
                        let factory: ConfigFactory = Arc::new(user_config);
                        let (host, _notices) =
                            ShardedHost::new(sink.clone(), config, factory, telemetry.clone())
                                .expect("open the shard logs");
                        host.register_many(users).await;
                        // A round trip through every shard: registration
                        // has been applied, not merely queued.
                        assert_eq!(host.snapshot().await.users, registered);

                        let filter = shared_filter(DEFAULT_DEDUPE_CAPACITY);
                        let pool_config = WorkerPoolConfig::default();
                        let adapters: Vec<Box<dyn LedgerChannels>> = (0..pool_config.workers)
                            .map(|_| {
                                Box::new(LedgerChannelBridge::with_filter(
                                    sink.clone(),
                                    Arc::clone(&filter),
                                )) as Box<dyn LedgerChannels>
                            })
                            .collect();
                        let epoch = Instant::now();
                        let clock: LedgerClock = Arc::new(move || {
                            SimTime::from_millis(epoch.elapsed().as_millis() as u64)
                        });
                        let pool = LedgerWorkerPool::spawn(ledger, adapters, clock, pool_config)
                            .expect("local workers spawn without threads");
                        ready_tx.send(()).expect("the starter waits for readiness");

                        let host = Rc::new(host);
                        let stop = Rc::new(Cell::new(false));
                        let sampler = sample_active.then(|| {
                            let (host, stop) = (Rc::clone(&host), Rc::clone(&stop));
                            tokio::spawn(async move {
                                while !stop.get() {
                                    tokio::time::sleep(Duration::from_millis(500)).await;
                                    peak.fetch_max(host.snapshot().await.active, Ordering::Relaxed);
                                }
                            })
                        });
                        // Returns once the gateway has shut down and the
                        // intake queue is empty.
                        let pump = pump_into_sharded_host(&host, intake_rx, &telemetry).await;
                        stop.set(true);
                        if let Some(sampler) = sampler {
                            let _ = sampler.await;
                        }
                        let host = Rc::try_unwrap(host).expect("the sampler has exited");
                        // Shard queues are FIFO: every routed alert is
                        // enqueued in the ledger before Stop is seen, so
                        // the pool drains everything that was admitted.
                        let host = host.shutdown().await;
                        let pool = tokio::time::timeout(POOL_DRAIN_LIMIT, pool.drain())
                            .await
                            .ok();
                        RuntimeReport { pump, host, pool }
                    })
                })
                .expect("spawn the runtime thread")
        };
        ready_rx.recv().expect("the runtime thread came up");
        Pipeline {
            addr,
            setup_s: started.elapsed().as_secs_f64(),
            upsert_us_per_rule,
            ledger,
            server,
            runtime,
            peak_active,
            dir,
        }
    }

    /// Intake-queue depth right now (a load signal for the sampler). The
    /// gateway's counter is approximate — the pump can count a submission
    /// out before the worker has counted it in, and it wraps below zero —
    /// so a reading above the capacity stands for an empty queue.
    pub fn queue_depth(&self) -> u32 {
        let stats = self.server.stats();
        if stats.queue_depth > stats.queue_capacity {
            0
        } else {
            stats.queue_depth
        }
    }

    /// Stops the gateway, lets the pump, host and pool drain, joins every
    /// thread and removes the run's files.
    pub fn stop(self) -> Stopped {
        let gateway = self.server.stats();
        self.server.shutdown();
        let runtime = self
            .runtime
            .join()
            .expect("the runtime thread does not panic");
        let ledger = self
            .ledger
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats();
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Stopped {
            gateway,
            runtime,
            ledger,
            peak_active: self.peak_active.load(Ordering::Relaxed),
        }
    }
}
