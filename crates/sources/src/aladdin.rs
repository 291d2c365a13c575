//! The Aladdin home networking system (§2.3, §5).
//!
//! Aladdin "integrates diverse devices and sensors attached to
//! heterogeneous in-home networks including powerline, phoneline, RF and
//! IR, and connects them to the Internet through a home gateway machine"
//! and "generates alerts when any critical sensor fires or when any
//! critical device fails".
//!
//! The §5 end-to-end scenario modelled here hop by hop: remote-control RF
//! signal → powerline transceiver → powerline monitor process on a PC →
//! local SSS write → multicast replication over phoneline Ethernet → SSS
//! on the home gateway → event to the Aladdin home server → IM alert.
//! The paper measured 11 s button-to-popup; most of it is the powerline
//! signalling and SSS propagation, which the per-hop latency model
//! reproduces.

use crate::sss::{SoftStateStore, SssEvent, StoreId};
use simba_core::alert::{IncomingAlert, Urgency};
use simba_sim::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

/// The in-home network a device hangs off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomeNetwork {
    /// X-10-style powerline signalling (slow, seconds per command).
    Powerline,
    /// Phoneline Ethernet (fast).
    Phoneline,
    /// Radio frequency (remote controls).
    Rf,
    /// Infrared (line-of-sight remotes).
    Ir,
}

/// A sensor or device in the home.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sensor {
    /// Unique id, also the SSS variable name suffix.
    pub id: String,
    /// Human-readable name used in alert text ("Basement Water Sensor").
    pub name: String,
    /// Which network it is attached to.
    pub network: HomeNetwork,
    /// Whether state changes alert the user.
    pub critical: bool,
    /// How often the device refreshes its SSS variable (battery heartbeat).
    pub heartbeat: SimDuration,
    /// Allowed missing heartbeats before the device is declared broken.
    pub max_missing: u32,
}

/// Per-hop latency means for the §5 signal chain. Each hop draws
/// log-normally around its median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopLatencies {
    /// RF (or IR) signal pickup by the transceiver, seconds.
    pub rf_to_transceiver: f64,
    /// Powerline signalling of one command (X-10 is ~1–3 s), seconds.
    pub powerline_signal: f64,
    /// The monitor process polling/decoding the powerline frame, seconds.
    pub monitor_pickup: f64,
    /// Local SSS write + event dispatch, seconds.
    pub sss_update: f64,
    /// Multicast replication over phoneline Ethernet, seconds.
    pub replication: f64,
    /// Gateway SSS event → Aladdin home server processing, seconds.
    pub home_server: f64,
    /// Log-space sigma shared by all hops.
    pub sigma: f64,
}

impl Default for HopLatencies {
    /// Calibrated so the full chain sums to ≈ 8.3 s, which with ≈ 2.7 s of
    /// SIMBA routing (IM → MyAlertBuddy → IM) reproduces the paper's 11 s
    /// end-to-end mean (experiment E3).
    fn default() -> Self {
        HopLatencies {
            rf_to_transceiver: 0.3,
            powerline_signal: 2.2,
            monitor_pickup: 1.8,
            sss_update: 0.5,
            replication: 2.0,
            home_server: 1.2,
            sigma: 0.25,
        }
    }
}

/// One traversed hop: name and sampled latency.
pub type Hop = (&'static str, SimDuration);

/// The outcome of a sensor trigger propagating through the home.
#[derive(Debug, Clone)]
pub struct ChainResult {
    /// Each hop with its sampled latency, in order.
    pub hops: Vec<Hop>,
    /// Sum of all hop latencies (button press → home server alert-out).
    pub total: SimDuration,
    /// The alert the home server emits, if the sensor is critical.
    pub alert: Option<IncomingAlert>,
}

/// A remote home-automation command, received by email (§2.3: Aladdin
/// supports "secure, email-based remote home automation").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteCommand {
    /// Turn a device on or off: `SET <sensor-id> ON|OFF`.
    Set {
        /// Target device id.
        device: String,
        /// Desired state.
        on: bool,
    },
    /// Query a device's state: `GET <sensor-id>`.
    Get {
        /// Target device id.
        device: String,
    },
    /// List all devices: `LIST`.
    List,
}

impl RemoteCommand {
    /// Parses a command line from an authorized email body. Commands are
    /// case-insensitive on the verb, exact on the device id.
    pub fn parse(line: &str) -> Option<RemoteCommand> {
        let mut parts = line.split_whitespace();
        match parts.next()?.to_ascii_uppercase().as_str() {
            "SET" => {
                let device = parts.next()?.to_string();
                let state = parts.next()?.to_ascii_uppercase();
                let on = match state.as_str() {
                    "ON" => true,
                    "OFF" => false,
                    _ => return None,
                };
                parts.next().is_none().then_some(RemoteCommand::Set { device, on })
            }
            "GET" => {
                let device = parts.next()?.to_string();
                parts.next().is_none().then_some(RemoteCommand::Get { device })
            }
            "LIST" => parts.next().is_none().then_some(RemoteCommand::List),
            _ => None,
        }
    }
}

/// The simulated home: sensors, one monitor-PC SSS replica, one gateway
/// SSS replica, and the Aladdin home server's alerting rule.
#[derive(Debug)]
pub struct AladdinHome {
    source_id: String,
    sensors: BTreeMap<String, Sensor>,
    /// SSS replica on the PC running the powerline monitor.
    pub monitor_sss: SoftStateStore,
    /// SSS replica on the home gateway machine.
    pub gateway_sss: SoftStateStore,
    latencies: HopLatencies,
    alerts_generated: u64,
}

impl AladdinHome {
    /// Creates a home whose alerts originate from `source_id`.
    pub fn new(source_id: impl Into<String>, latencies: HopLatencies) -> Self {
        let mut monitor_sss = SoftStateStore::new(StoreId(1));
        let mut gateway_sss = SoftStateStore::new(StoreId(2));
        for s in [&mut monitor_sss, &mut gateway_sss] {
            s.define_type("binary-sensor", "ON|OFF");
        }
        AladdinHome {
            source_id: source_id.into(),
            sensors: BTreeMap::new(),
            monitor_sss,
            gateway_sss,
            latencies,
            alerts_generated: 0,
        }
    }

    /// The home's alert source identity.
    pub fn source_id(&self) -> &str {
        &self.source_id
    }

    /// Total alerts the home server emitted.
    pub fn alerts_generated(&self) -> u64 {
        self.alerts_generated
    }

    /// Installs a sensor and creates its SSS variable on both replicas.
    pub fn add_sensor(&mut self, sensor: Sensor, now: SimTime) {
        let var = format!("sensor.{}", sensor.id);
        self.monitor_sss
            .create_var(&var, "binary-sensor", "OFF", sensor.heartbeat, sensor.max_missing, now)
            .expect("type defined, unique sensor id");
        for update in self.monitor_sss.take_outbound() {
            self.gateway_sss.apply_update(update);
        }
        self.sensors.insert(sensor.id.clone(), sensor);
    }

    /// The registered sensors.
    pub fn sensors(&self) -> impl Iterator<Item = &Sensor> {
        self.sensors.values()
    }

    /// Fires a sensor (state `true` = ON) at `pressed_at` and walks the §5
    /// chain. The returned alert's origin timestamp is the *press* time, so
    /// downstream latency measurements are end-to-end.
    ///
    /// # Panics
    ///
    /// Panics for unknown sensor ids — scenario wiring errors.
    pub fn trigger_sensor(
        &mut self,
        id: &str,
        state: bool,
        pressed_at: SimTime,
        rng: &mut SimRng,
    ) -> ChainResult {
        let sensor = self.sensors.get(id).expect("sensor registered").clone();
        let l = self.latencies;
        let mut hops: Vec<Hop> = Vec::new();
        let mut sample = |name: &'static str, median: f64, hops: &mut Vec<Hop>| {
            let d = SimDuration::from_secs_f64(rng.lognormal(median.max(1e-3), l.sigma));
            hops.push((name, d));
            d
        };

        let mut total = SimDuration::ZERO;
        // RF/IR pickup only applies to wireless-originated signals.
        if matches!(sensor.network, HomeNetwork::Rf | HomeNetwork::Ir) {
            total += sample("rf-to-transceiver", l.rf_to_transceiver, &mut hops);
        }
        total += sample("powerline-signal", l.powerline_signal, &mut hops);
        total += sample("monitor-pickup", l.monitor_pickup, &mut hops);

        // The monitor PC writes its local SSS replica.
        let var = format!("sensor.{}", sensor.id);
        let value = if state { "ON" } else { "OFF" };
        let write_at = pressed_at + total;
        let changed = self
            .monitor_sss
            .write(&var, value, write_at)
            .expect("variable created with sensor");
        total += sample("sss-update", l.sss_update, &mut hops);

        // Multicast replication to the gateway replica.
        total += sample("replication", l.replication, &mut hops);
        let mut gateway_events = Vec::new();
        for update in self.monitor_sss.take_outbound() {
            gateway_events.extend(self.gateway_sss.apply_update(update));
        }

        // Home server turns gateway SSS events on critical sensors into alerts.
        total += sample("home-server", l.home_server, &mut hops);
        let alert = if sensor.critical && changed.is_some() && !gateway_events.is_empty() {
            self.alerts_generated += 1;
            Some(
                IncomingAlert::from_im(
                    self.source_id.clone(),
                    format!("{} Sensor {}", sensor.name, value),
                    pressed_at,
                )
                .with_urgency(Urgency::Critical),
            )
        } else {
            None
        };

        ChainResult { hops, total, alert }
    }

    /// Executes a remote command from an *authorized* sender (the caller
    /// performs authorization — in SIMBA the command arrives through
    /// MyAlertBuddy, which already filters accepted sources). Returns the
    /// confirmation text to mail back, plus the sensor-trigger result if
    /// the command changed device state.
    pub fn execute_remote(
        &mut self,
        command: &RemoteCommand,
        now: SimTime,
        rng: &mut SimRng,
    ) -> (String, Option<ChainResult>) {
        match command {
            RemoteCommand::Set { device, on } => {
                if !self.sensors.contains_key(device) {
                    return (format!("ERROR: unknown device {device:?}"), None);
                }
                let result = self.trigger_sensor(device, *on, now, rng);
                (
                    format!(
                        "OK: {} set to {} (took {})",
                        device,
                        if *on { "ON" } else { "OFF" },
                        result.total
                    ),
                    Some(result),
                )
            }
            RemoteCommand::Get { device } => {
                let var = format!("sensor.{device}");
                match self.gateway_sss.read(&var) {
                    Some(v) => {
                        let liveness = if v.timed_out { " (BROKEN: missing heartbeats)" } else { "" };
                        (format!("{device} = {}{liveness}", v.value), None)
                    }
                    None => (format!("ERROR: unknown device {device:?}"), None),
                }
            }
            RemoteCommand::List => {
                let mut lines: Vec<String> = self
                    .sensors
                    .values()
                    .map(|s| {
                        format!(
                            "{} ({}){}",
                            s.id,
                            s.name,
                            if s.critical { " [critical]" } else { "" }
                        )
                    })
                    .collect();
                lines.sort();
                (lines.join("\n"), None)
            }
        }
    }

    /// A device heartbeat: the sensor refreshes its SSS variable.
    pub fn heartbeat(&mut self, id: &str, now: SimTime) {
        let var = format!("sensor.{id}");
        let _ = self.monitor_sss.refresh(&var, now);
        for update in self.monitor_sss.take_outbound() {
            self.gateway_sss.apply_update(update);
        }
    }

    /// Sweeps for device failures (missing heartbeats) at `now`: one
    /// "Sensor Broken" alert per newly timed-out critical device — the
    /// §2.3 "Garage Door Sensor Broken" scenario.
    pub fn check_device_health(&mut self, now: SimTime) -> Vec<IncomingAlert> {
        let events = self.gateway_sss.check_timeouts(now);
        // Keep the monitor replica's view consistent.
        self.monitor_sss.check_timeouts(now);
        let mut alerts = Vec::new();
        for ev in events {
            let SssEvent::TimedOut { name, .. } = ev else {
                continue;
            };
            let Some(id) = name.strip_prefix("sensor.") else {
                continue;
            };
            let Some(sensor) = self.sensors.get(id) else {
                continue;
            };
            if sensor.critical {
                self.alerts_generated += 1;
                alerts.push(
                    IncomingAlert::from_im(
                        self.source_id.clone(),
                        format!("{} Sensor Broken", sensor.name),
                        now,
                    )
                    .with_urgency(Urgency::Critical),
                );
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn security_remote() -> Sensor {
        Sensor {
            id: "security-disarm".into(),
            name: "Security Disarm".into(),
            network: HomeNetwork::Rf,
            critical: true,
            heartbeat: SimDuration::from_mins(10),
            max_missing: 3,
        }
    }

    fn water_sensor() -> Sensor {
        Sensor {
            id: "basement-water".into(),
            name: "Basement Water".into(),
            network: HomeNetwork::Powerline,
            critical: true,
            heartbeat: SimDuration::from_mins(10),
            max_missing: 3,
        }
    }

    fn home() -> AladdinHome {
        let mut h = AladdinHome::new("aladdin-gw", HopLatencies::default());
        h.add_sensor(security_remote(), t(0));
        h.add_sensor(water_sensor(), t(0));
        h
    }

    #[test]
    fn rf_trigger_walks_all_six_hops() {
        let mut h = home();
        let mut rng = SimRng::new(1);
        let r = h.trigger_sensor("security-disarm", true, t(100), &mut rng);
        let names: Vec<&str> = r.hops.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "rf-to-transceiver",
                "powerline-signal",
                "monitor-pickup",
                "sss-update",
                "replication",
                "home-server"
            ]
        );
        let alert = r.alert.expect("critical sensor alerts");
        assert_eq!(&*alert.body, "Security Disarm Sensor ON");
        assert_eq!(alert.origin_timestamp, t(100));
        assert_eq!(alert.urgency, Urgency::Critical);
    }

    #[test]
    fn powerline_sensor_skips_rf_hop() {
        let mut h = home();
        let mut rng = SimRng::new(2);
        let r = h.trigger_sensor("basement-water", true, t(0), &mut rng);
        assert_eq!(r.hops.len(), 5);
        assert_ne!(r.hops[0].0, "rf-to-transceiver");
    }

    #[test]
    fn chain_latency_centers_near_ten_seconds() {
        // The calibration behind experiment E3 (11 s including ~1 s IM).
        let mut rng = SimRng::new(3);
        let mut sum = 0.0;
        let n = 300;
        for i in 0..n {
            let mut h = home();
            let r = h.trigger_sensor("security-disarm", i % 2 == 0, t(i), &mut rng);
            sum += r.total.as_secs_f64();
        }
        let mean = sum / n as f64;
        assert!((7.0..9.5).contains(&mean), "mean chain latency {mean}");
    }

    #[test]
    fn unchanged_state_produces_no_alert() {
        let mut h = home();
        let mut rng = SimRng::new(4);
        assert!(h.trigger_sensor("basement-water", true, t(0), &mut rng).alert.is_some());
        // Same state again: SSS write is not a change → no alert.
        assert!(h.trigger_sensor("basement-water", true, t(10), &mut rng).alert.is_none());
        // Back to OFF: change → alert.
        let r = h.trigger_sensor("basement-water", false, t(20), &mut rng);
        assert_eq!(&*r.alert.unwrap().body, "Basement Water Sensor OFF");
    }

    #[test]
    fn non_critical_sensor_stays_silent() {
        let mut h = home();
        h.add_sensor(
            Sensor {
                id: "hallway-light".into(),
                name: "Hallway Light".into(),
                network: HomeNetwork::Powerline,
                critical: false,
                heartbeat: SimDuration::from_mins(10),
                max_missing: 3,
            },
            t(0),
        );
        let mut rng = SimRng::new(5);
        let r = h.trigger_sensor("hallway-light", true, t(0), &mut rng);
        assert!(r.alert.is_none());
        assert_eq!(h.alerts_generated(), 0);
    }

    #[test]
    fn missing_heartbeats_break_the_device() {
        let mut h = home();
        // heartbeat 10 min, 3 misses → broken at t = 40 min.
        assert!(h.check_device_health(t(30 * 60)).is_empty());
        let alerts = h.check_device_health(t(40 * 60));
        // Both critical sensors break simultaneously (no heartbeats at all).
        assert_eq!(alerts.len(), 2);
        assert!(alerts.iter().any(|a| &*a.body == "Basement Water Sensor Broken"));
        // Reported once.
        assert!(h.check_device_health(t(41 * 60)).is_empty());
    }

    #[test]
    fn heartbeats_keep_devices_alive() {
        let mut h = home();
        for m in (0..=6).map(|i| i * 10) {
            h.heartbeat("basement-water", t(m * 60));
            h.heartbeat("security-disarm", t(m * 60));
        }
        assert!(h.check_device_health(t(60 * 60)).is_empty());
    }

    #[test]
    fn remote_command_parsing() {
        assert_eq!(
            RemoteCommand::parse("SET porch-light ON"),
            Some(RemoteCommand::Set { device: "porch-light".into(), on: true })
        );
        assert_eq!(
            RemoteCommand::parse("set porch-light off"),
            Some(RemoteCommand::Set { device: "porch-light".into(), on: false })
        );
        assert_eq!(
            RemoteCommand::parse("GET basement-water"),
            Some(RemoteCommand::Get { device: "basement-water".into() })
        );
        assert_eq!(RemoteCommand::parse("LIST"), Some(RemoteCommand::List));
        assert_eq!(RemoteCommand::parse("SET x MAYBE"), None);
        assert_eq!(RemoteCommand::parse("SET x ON extra"), None);
        assert_eq!(RemoteCommand::parse("DANCE"), None);
        assert_eq!(RemoteCommand::parse(""), None);
    }

    #[test]
    fn remote_set_triggers_the_device_and_confirms() {
        let mut h = home();
        let mut rng = SimRng::new(11);
        let (reply, result) = h.execute_remote(
            &RemoteCommand::Set { device: "basement-water".into(), on: true },
            t(100),
            &mut rng,
        );
        assert!(reply.starts_with("OK: basement-water set to ON"), "{reply}");
        assert!(result.expect("state changed").alert.is_some());
        assert_eq!(h.gateway_sss.read("sensor.basement-water").unwrap().value, "ON");
    }

    #[test]
    fn remote_get_and_list() {
        let mut h = home();
        let mut rng = SimRng::new(12);
        let (reply, _) = h.execute_remote(
            &RemoteCommand::Get { device: "basement-water".into() },
            t(1),
            &mut rng,
        );
        assert_eq!(reply, "basement-water = OFF");
        let (reply, _) = h.execute_remote(&RemoteCommand::List, t(2), &mut rng);
        assert!(reply.contains("basement-water (Basement Water) [critical]"), "{reply}");
        assert!(reply.contains("security-disarm"), "{reply}");
        let (reply, _) = h.execute_remote(
            &RemoteCommand::Get { device: "toaster".into() },
            t(3),
            &mut rng,
        );
        assert!(reply.starts_with("ERROR"), "{reply}");
    }

    #[test]
    fn remote_get_reports_broken_devices() {
        let mut h = home();
        let mut rng = SimRng::new(13);
        h.check_device_health(t(40 * 60)); // all heartbeats missed
        let (reply, _) = h.execute_remote(
            &RemoteCommand::Get { device: "basement-water".into() },
            t(41 * 60),
            &mut rng,
        );
        assert!(reply.contains("BROKEN"), "{reply}");
    }

    #[test]
    fn replicas_agree_after_trigger() {
        let mut h = home();
        let mut rng = SimRng::new(6);
        h.trigger_sensor("basement-water", true, t(0), &mut rng);
        assert_eq!(h.monitor_sss.read("sensor.basement-water").unwrap().value, "ON");
        assert_eq!(h.gateway_sss.read("sensor.basement-water").unwrap().value, "ON");
    }
}
