//! The WISH wireless user-location service (§2.4, §5).
//!
//! "The WISH client software, running on the user's handheld device,
//! extracts from its RF wireless network card the identity of the Access
//! Point (AP) the device is connected to and the strength of the signals
//! received from the AP. It then sends that information along with the
//! user's name and activity status to a WISH server. The WISH server
//! maintains an RF signal propagation model and a table that maps each AP
//! to a physical location. ... the WISH system is able to determine the
//! user's real-time location to within a few meters. A confidence
//! percentage is associated with each estimate."
//!
//! Alerts fire "when the tracked person enters a building, moves to a
//! different part of the building, and/or leaves the building".

use crate::sss::{SoftStateStore, StoreId};
use simba_core::alert::{IncomingAlert, Urgency};
use simba_sim::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

/// A 2-D position in metres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// X coordinate (m).
    pub x: f64,
    /// Y coordinate (m).
    pub y: f64,
}

impl Point {
    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A wireless access point with its physical-location table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessPoint {
    /// AP identifier (BSSID stand-in).
    pub id: String,
    /// Where the AP is mounted.
    pub position: Point,
    /// Building name.
    pub building: String,
    /// Area within the building ("2F-east").
    pub area: String,
}

/// The log-distance path-loss propagation model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioModel {
    /// Received power at 1 m, dBm.
    pub p0_dbm: f64,
    /// Path-loss exponent (≈2 free space, 3–4 indoors).
    pub exponent: f64,
    /// Log-normal shadowing sigma, dB.
    pub shadow_sigma: f64,
    /// Receive sensitivity floor, dBm — weaker APs are not heard.
    pub floor_dbm: f64,
}

impl Default for RadioModel {
    fn default() -> Self {
        RadioModel {
            p0_dbm: -32.0,
            exponent: 3.2,
            shadow_sigma: 4.0,
            floor_dbm: -90.0,
        }
    }
}

impl RadioModel {
    /// Samples the RSSI heard at distance `d` metres (with shadowing), or
    /// `None` if below the sensitivity floor.
    pub fn rssi(&self, d: f64, rng: &mut SimRng) -> Option<f64> {
        let d = d.max(1.0);
        let mean = self.p0_dbm - 10.0 * self.exponent * d.log10();
        let rssi = rng.normal(mean, self.shadow_sigma);
        (rssi >= self.floor_dbm).then_some(rssi)
    }

    /// Inverts the mean model: estimated distance for an observed RSSI.
    pub fn estimate_distance(&self, rssi: f64) -> f64 {
        10f64.powf((self.p0_dbm - rssi) / (10.0 * self.exponent))
    }
}

/// One client measurement: the connected AP and its signal strength.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The tracked user.
    pub user: String,
    /// AP the card is associated to (strongest heard).
    pub ap_id: String,
    /// RSSI in dBm.
    pub rssi: f64,
    /// The user's self-reported activity status.
    pub activity: String,
    /// When the client took the sample.
    pub taken_at: SimTime,
}

/// The WISH client: measures the radio environment at the user's true
/// position and reports the strongest AP.
#[derive(Debug, Clone)]
pub struct WishClient {
    /// The user this client tracks.
    pub user: String,
    /// Reporting period.
    pub report_every: SimDuration,
}

impl WishClient {
    /// Takes one measurement at `position`; `None` when no AP is audible
    /// (outdoors / out of range).
    pub fn measure(
        &self,
        position: Point,
        aps: &[AccessPoint],
        model: &RadioModel,
        activity: &str,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<Measurement> {
        let mut best: Option<(f64, &AccessPoint)> = None;
        for ap in aps {
            if let Some(rssi) = model.rssi(position.distance(ap.position), rng) {
                if best.is_none_or(|(b, _)| rssi > b) {
                    best = Some((rssi, ap));
                }
            }
        }
        best.map(|(rssi, ap)| Measurement {
            user: self.user.clone(),
            ap_id: ap.id.clone(),
            rssi,
            activity: activity.to_string(),
            taken_at: now,
        })
    }
}

/// A location estimate with its confidence percentage.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationEstimate {
    /// Building the user is in (`None` = outside all buildings).
    pub building: Option<String>,
    /// Area within the building.
    pub area: Option<String>,
    /// Estimated distance from the serving AP, metres.
    pub distance_m: f64,
    /// Confidence percentage in `[0, 100]`.
    pub confidence: f64,
}

/// A transition in a tracked user's location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocationEvent {
    /// The user entered a building.
    Entered {
        /// Who.
        user: String,
        /// Which building.
        building: String,
    },
    /// The user left a building.
    Left {
        /// Who.
        user: String,
        /// Which building.
        building: String,
    },
    /// The user moved to a different part of the same building.
    Moved {
        /// Who.
        user: String,
        /// The building.
        building: String,
        /// Previous area.
        from_area: String,
        /// New area.
        to_area: String,
    },
}

/// What a watcher subscribes to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocationTrigger {
    /// Fire when the tracked person enters the named building.
    Enter(String),
    /// Fire when the tracked person leaves the named building.
    Leave(String),
    /// Fire when the tracked person moves within the named building.
    MoveWithin(String),
}

/// One alert-service subscription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocationSubscription {
    /// The person being tracked (who controls dissemination — the WISH
    /// privacy stance).
    pub tracked: String,
    /// The watcher who receives the alert.
    pub watcher: String,
    /// The trigger condition.
    pub trigger: LocationTrigger,
}

/// The WISH server: AP table, propagation model, per-user soft state, and
/// the alert service. User locations live in a Soft-State Store ("each
/// user is represented by a soft-state variable", §5).
#[derive(Debug)]
pub struct WishServer {
    source_id: String,
    aps: Vec<AccessPoint>,
    model: RadioModel,
    /// Soft state: user → "building/area" strings with refresh timeouts.
    pub store: SoftStateStore,
    /// Last known (building, area) per user, for transition detection.
    last_zone: BTreeMap<String, Option<(String, String)>>,
    subscriptions: Vec<LocationSubscription>,
    /// Confidence below which updates are ignored (unreliable estimate).
    pub min_confidence: f64,
    alerts_generated: u64,
}

impl WishServer {
    /// Creates a server with the given AP map and propagation model.
    pub fn new(source_id: impl Into<String>, aps: Vec<AccessPoint>, model: RadioModel) -> Self {
        let mut store = SoftStateStore::new(StoreId(10));
        store.define_type("user-location", "building/area");
        WishServer {
            source_id: source_id.into(),
            aps,
            model,
            store,
            last_zone: BTreeMap::new(),
            subscriptions: Vec::new(),
            min_confidence: 20.0,
            alerts_generated: 0,
        }
    }

    /// The server's alert source identity.
    pub fn source_id(&self) -> &str {
        &self.source_id
    }

    /// The propagation model.
    pub fn model(&self) -> &RadioModel {
        &self.model
    }

    /// Total alerts generated.
    pub fn alerts_generated(&self) -> u64 {
        self.alerts_generated
    }

    /// Registers a tracking subscription.
    pub fn subscribe(&mut self, sub: LocationSubscription) {
        self.subscriptions.push(sub);
    }

    /// Estimates a location from one measurement.
    pub fn estimate(&self, m: &Measurement) -> LocationEstimate {
        let ap = self.aps.iter().find(|a| a.id == m.ap_id);
        let distance_m = self.model.estimate_distance(m.rssi);
        // Confidence decays with estimated distance: a user glued to the
        // AP is surely in its area; 40 m away the area is a guess.
        let confidence = (100.0 * (1.0 - distance_m / 40.0)).clamp(0.0, 100.0);
        match ap {
            Some(ap) => LocationEstimate {
                building: Some(ap.building.clone()),
                area: Some(ap.area.clone()),
                distance_m,
                confidence,
            },
            None => LocationEstimate {
                building: None,
                area: None,
                distance_m,
                confidence: 0.0,
            },
        }
    }

    /// Processes one client report: updates the soft state, detects
    /// transitions, and fires matching subscription alerts.
    pub fn report(&mut self, m: &Measurement) -> (LocationEstimate, Vec<IncomingAlert>) {
        let est = self.estimate(m);
        let mut alerts = Vec::new();
        if est.confidence < self.min_confidence && est.building.is_some() {
            // Too unsure to move the user; keep previous state.
            return (est, alerts);
        }

        let new_zone = est
            .building
            .clone()
            .zip(est.area.clone());
        let var = format!("user.{}", m.user);
        let value = match &new_zone {
            Some((b, a)) => format!("{b}/{a}"),
            None => "outside".to_string(),
        };
        if self.store.read(&var).is_none() {
            let _ = self.store.create_var(
                &var,
                "user-location",
                value.clone(),
                SimDuration::from_mins(2),
                2,
                m.taken_at,
            );
        } else {
            let _ = self.store.write(&var, value, m.taken_at);
        }

        let previous = self
            .last_zone
            .insert(m.user.clone(), new_zone.clone())
            .flatten();

        let events = transitions(&m.user, previous.as_ref(), new_zone.as_ref());
        for ev in &events {
            for alert in self.match_subscriptions(ev, m.taken_at) {
                alerts.push(alert);
            }
        }
        self.alerts_generated += alerts.len() as u64;
        (est, alerts)
    }

    /// A tracked user whose variable timed out is "gone" (device off /
    /// left the campus): treated as leaving their last building.
    pub fn check_timeouts(&mut self, now: SimTime) -> Vec<IncomingAlert> {
        let mut alerts = Vec::new();
        for ev in self.store.check_timeouts(now) {
            let name = ev.variable().to_string();
            let Some(user) = name.strip_prefix("user.") else {
                continue;
            };
            let user = user.to_string();
            if let Some(Some((building, _))) = self.last_zone.insert(user.clone(), None) {
                let left = LocationEvent::Left { user, building };
                for alert in self.match_subscriptions(&left, now) {
                    alerts.push(alert);
                }
            }
        }
        self.alerts_generated += alerts.len() as u64;
        alerts
    }

    fn match_subscriptions(&self, ev: &LocationEvent, at: SimTime) -> Vec<IncomingAlert> {
        let mut alerts = Vec::new();
        for sub in &self.subscriptions {
            let (user, fire, text) = match (ev, &sub.trigger) {
                (LocationEvent::Entered { user, building }, LocationTrigger::Enter(b)) => (
                    user,
                    building == b,
                    format!("{user} entered {building}"),
                ),
                (LocationEvent::Left { user, building }, LocationTrigger::Leave(b)) => {
                    (user, building == b, format!("{user} left {building}"))
                }
                (
                    LocationEvent::Moved { user, building, from_area, to_area },
                    LocationTrigger::MoveWithin(b),
                ) => (
                    user,
                    building == b,
                    format!("{user} moved {from_area} → {to_area} in {building}"),
                ),
                _ => continue,
            };
            if fire && &sub.tracked == user {
                alerts.push(
                    IncomingAlert::from_im(
                        self.source_id.clone(),
                        format!("[to:{}] {}", sub.watcher, text),
                        at,
                    )
                    .with_urgency(Urgency::Normal),
                );
            }
        }
        alerts
    }
}

fn transitions(
    user: &str,
    previous: Option<&(String, String)>,
    new: Option<&(String, String)>,
) -> Vec<LocationEvent> {
    match (previous, new) {
        (None, Some((b, _))) => vec![LocationEvent::Entered {
            user: user.to_string(),
            building: b.clone(),
        }],
        (Some((b, _)), None) => vec![LocationEvent::Left {
            user: user.to_string(),
            building: b.clone(),
        }],
        (Some((b1, a1)), Some((b2, a2))) if b1 == b2 && a1 != a2 => vec![LocationEvent::Moved {
            user: user.to_string(),
            building: b1.clone(),
            from_area: a1.clone(),
            to_area: a2.clone(),
        }],
        (Some((b1, _)), Some((b2, _))) if b1 != b2 => vec![
            LocationEvent::Left {
                user: user.to_string(),
                building: b1.clone(),
            },
            LocationEvent::Entered {
                user: user.to_string(),
                building: b2.clone(),
            },
        ],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aps() -> Vec<AccessPoint> {
        vec![
            AccessPoint {
                id: "ap-1".into(),
                position: Point { x: 0.0, y: 0.0 },
                building: "B31".into(),
                area: "1F-west".into(),
            },
            AccessPoint {
                id: "ap-2".into(),
                position: Point { x: 60.0, y: 0.0 },
                building: "B31".into(),
                area: "1F-east".into(),
            },
            AccessPoint {
                id: "ap-3".into(),
                position: Point { x: 500.0, y: 500.0 },
                building: "B40".into(),
                area: "lobby".into(),
            },
        ]
    }

    fn server() -> WishServer {
        let mut s = WishServer::new("wish-svc", aps(), RadioModel::default());
        s.min_confidence = 0.0; // deterministic tests control confidence explicitly
        s
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn measurement(user: &str, ap: &str, rssi: f64, secs: u64) -> Measurement {
        Measurement {
            user: user.into(),
            ap_id: ap.into(),
            rssi,
            activity: "active".into(),
            taken_at: t(secs),
        }
    }

    #[test]
    fn radio_model_monotone_in_distance() {
        let m = RadioModel::default();
        let mut rng = SimRng::new(1);
        let near: f64 = (0..200).filter_map(|_| m.rssi(2.0, &mut rng)).sum::<f64>() / 200.0;
        let far: f64 = (0..200).filter_map(|_| m.rssi(30.0, &mut rng)).sum::<f64>() / 200.0;
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn distance_estimate_inverts_mean_model() {
        let m = RadioModel::default();
        for d in [1.0f64, 5.0, 20.0, 50.0] {
            let rssi = m.p0_dbm - 10.0 * m.exponent * d.log10();
            let est = m.estimate_distance(rssi);
            assert!((est - d).abs() < 1e-9, "d={d} est={est}");
        }
    }

    #[test]
    fn client_picks_strongest_ap() {
        let client = WishClient { user: "bob".into(), report_every: SimDuration::from_secs(10) };
        let mut rng = SimRng::new(2);
        // Standing on top of ap-2.
        let m = client
            .measure(Point { x: 60.0, y: 0.0 }, &aps(), &RadioModel::default(), "active", t(0), &mut rng)
            .unwrap();
        assert_eq!(m.ap_id, "ap-2");
    }

    #[test]
    fn client_hears_nothing_far_away() {
        let client = WishClient { user: "bob".into(), report_every: SimDuration::from_secs(10) };
        let mut rng = SimRng::new(3);
        let m = client.measure(
            Point { x: 100_000.0, y: 100_000.0 },
            &aps(),
            &RadioModel::default(),
            "active",
            t(0),
            &mut rng,
        );
        assert!(m.is_none());
    }

    #[test]
    fn estimate_confidence_decays_with_distance() {
        let s = server();
        let strong = s.estimate(&measurement("bob", "ap-1", -35.0, 0));
        let weak = s.estimate(&measurement("bob", "ap-1", -80.0, 0));
        assert!(strong.confidence > weak.confidence);
        assert_eq!(strong.building.as_deref(), Some("B31"));
        assert!(strong.distance_m < weak.distance_m);
    }

    #[test]
    fn enter_move_leave_alert_flow() {
        let mut s = server();
        s.subscribe(LocationSubscription {
            tracked: "bob".into(),
            watcher: "alice".into(),
            trigger: LocationTrigger::Enter("B31".into()),
        });
        s.subscribe(LocationSubscription {
            tracked: "bob".into(),
            watcher: "alice".into(),
            trigger: LocationTrigger::MoveWithin("B31".into()),
        });
        s.subscribe(LocationSubscription {
            tracked: "bob".into(),
            watcher: "alice".into(),
            trigger: LocationTrigger::Leave("B31".into()),
        });

        // Enter via ap-1.
        let (_, alerts) = s.report(&measurement("bob", "ap-1", -40.0, 10));
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].body.contains("bob entered B31"));

        // Move to the east wing.
        let (_, alerts) = s.report(&measurement("bob", "ap-2", -40.0, 20));
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].body.contains("1F-west → 1F-east"));

        // Cross to another building: Leave B31 fires (Enter B40 has no sub).
        let (_, alerts) = s.report(&measurement("bob", "ap-3", -40.0, 30));
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].body.contains("bob left B31"));
        assert_eq!(s.alerts_generated(), 3);
    }

    #[test]
    fn same_area_reports_are_quiet() {
        let mut s = server();
        s.subscribe(LocationSubscription {
            tracked: "bob".into(),
            watcher: "alice".into(),
            trigger: LocationTrigger::MoveWithin("B31".into()),
        });
        s.report(&measurement("bob", "ap-1", -40.0, 10));
        let (_, alerts) = s.report(&measurement("bob", "ap-1", -45.0, 20));
        assert!(alerts.is_empty());
    }

    #[test]
    fn only_tracked_user_triggers_subscription() {
        let mut s = server();
        s.subscribe(LocationSubscription {
            tracked: "bob".into(),
            watcher: "alice".into(),
            trigger: LocationTrigger::Enter("B31".into()),
        });
        let (_, alerts) = s.report(&measurement("carol", "ap-1", -40.0, 10));
        assert!(alerts.is_empty());
    }

    #[test]
    fn low_confidence_reports_are_ignored() {
        let mut s = server();
        s.min_confidence = 50.0;
        s.subscribe(LocationSubscription {
            tracked: "bob".into(),
            watcher: "alice".into(),
            trigger: LocationTrigger::Enter("B31".into()),
        });
        // RSSI so weak the distance estimate is ~40 m → confidence ~0.
        let (est, alerts) = s.report(&measurement("bob", "ap-1", -85.0, 10));
        assert!(est.confidence < 50.0);
        assert!(alerts.is_empty());
    }

    #[test]
    fn stale_user_times_out_as_leave() {
        let mut s = server();
        s.subscribe(LocationSubscription {
            tracked: "bob".into(),
            watcher: "alice".into(),
            trigger: LocationTrigger::Leave("B31".into()),
        });
        s.report(&measurement("bob", "ap-1", -40.0, 10));
        // Variable refresh contract: 2 min period, 2 misses → dead at +6 min.
        let alerts = s.check_timeouts(t(10 + 6 * 60));
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].body.contains("bob left B31"));
    }

    #[test]
    fn soft_state_reflects_latest_zone() {
        let mut s = server();
        s.report(&measurement("bob", "ap-1", -40.0, 10));
        assert_eq!(s.store.read("user.bob").unwrap().value, "B31/1F-west");
        s.report(&measurement("bob", "ap-3", -40.0, 20));
        assert_eq!(s.store.read("user.bob").unwrap().value, "B40/lobby");
    }
}
