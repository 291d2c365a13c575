//! The IM Manager: drives the simulated IM client software against the
//! simulated IM service.
//!
//! Application-specific sanity checks (§4.1.1): "the IM Manager checks if
//! the IM client software is still logged on to the server. If it has been
//! logged out due to, for example, server recovery or network
//! disconnection, it will be re-logged in. The IM Manager also checks to
//! see if it can launch IM sessions, obtain the status of the buddies."

use crate::manager::{Anomaly, ManagerCore, RepairAction, SanityReport};
use crate::process::ClientProcess;
use simba_net::im::{ImHandle, ImSendError, ImService, Transit};
use simba_sim::SimTime;
use simba_telemetry::Telemetry;

/// Why an IM send through the manager failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImManagerError {
    /// The client software is unusable (down/hung/stale pointer/dialog).
    Client(crate::process::ProcessError),
    /// The IM service rejected the send.
    Service(ImSendError),
}

impl std::fmt::Display for ImManagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImManagerError::Client(e) => write!(f, "client software: {e}"),
            ImManagerError::Service(e) => write!(f, "IM service: {e}"),
        }
    }
}

impl std::error::Error for ImManagerError {}

/// The Communication Manager for the IM channel.
#[derive(Debug)]
pub struct ImManager {
    core: ManagerCore,
    identity: ImHandle,
}

impl ImManager {
    /// Creates a manager for `identity`, backed by a typical leaky IM client.
    pub fn new(identity: ImHandle) -> Self {
        ImManager {
            core: ManagerCore::new(ClientProcess::new("im-client", 12_000, 2), 200_000),
            identity,
        }
    }

    /// Records sanity checks, anomalies, repairs, and restarts through
    /// `telemetry` under the `client.*` namespace.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.core.set_telemetry(telemetry);
        self
    }

    /// This manager's IM identity.
    pub fn identity(&self) -> &ImHandle {
        &self.identity
    }

    /// Shared access to the manager core (process, registry).
    pub fn core(&self) -> &ManagerCore {
        &self.core
    }

    /// Mutable core access (fault injection, dialog rules).
    pub fn core_mut(&mut self) -> &mut ManagerCore {
        &mut self.core
    }

    /// Registers a caption→button pair with the monkey thread.
    pub fn register_dialog_rule(&mut self, caption: impl Into<String>, button: impl Into<String>) {
        self.core.register_dialog_rule(caption, button);
    }

    /// Starts the client (if needed) and logs on to the IM service.
    ///
    /// # Errors
    ///
    /// Fails if the service is down or the identity unregistered.
    pub fn start(&mut self, service: &mut ImService, now: SimTime) -> Result<(), ImSendError> {
        self.core.ensure_started(now);
        service.logon(&self.identity, now)
    }

    /// The full Sanity Checking API: generic checks (process, pointers,
    /// dialogs, memory) then the IM-specific logged-on / can-launch-session
    /// checks, repairing what it can.
    pub fn sanity_check(&mut self, service: &mut ImService, now: SimTime) -> SanityReport {
        let report = self.core.base_sanity_check(now);
        let base_anomalies = report.anomalies.len();
        let base_repairs = report.repairs.len();
        let report = self.app_checks(report, service, now);
        // The base pass recorded its own findings; record only the
        // IM-specific delta (re-logons, service probes).
        let delta = SanityReport {
            anomalies: report.anomalies[base_anomalies..].to_vec(),
            repairs: report.repairs[base_repairs..].to_vec(),
        };
        self.core.note_sanity_report(&delta, now);
        report
    }

    fn app_checks(
        &mut self,
        mut report: SanityReport,
        service: &mut ImService,
        now: SimTime,
    ) -> SanityReport {
        // A client restart tears down its server connection: the service
        // session is gone, so the logged-on check below must re-logon.
        if report.repairs.contains(&RepairAction::Restart) {
            service.force_logout(&self.identity);
        }

        let client_usable = self.core.automation_op().is_ok();
        if !client_usable {
            // Base pass already recorded why; app checks are moot.
            return report;
        }

        if service.is_down(now) {
            report.anomalies.push(Anomaly::ServiceUnavailable);
            report
                .repairs
                .push(RepairAction::Unrepairable(Anomaly::ServiceUnavailable));
            return report;
        }

        if !service.is_logged_on(&self.identity, now) {
            report.anomalies.push(Anomaly::LoggedOut);
            match service.logon(&self.identity, now) {
                Ok(()) => report.repairs.push(RepairAction::ReLogon),
                Err(_) => report
                    .repairs
                    .push(RepairAction::Unrepairable(Anomaly::LoggedOut)),
            }
        }

        // "The IM Manager also checks to see if it can launch IM sessions,
        // obtain the status of the buddies" — a failing probe here means
        // the session is subtly broken despite looking logged on.
        if service.is_logged_on(&self.identity, now)
            && service.buddy_status(&self.identity, now).is_err()
        {
            report.anomalies.push(Anomaly::ServiceUnavailable);
            report
                .repairs
                .push(RepairAction::Unrepairable(Anomaly::ServiceUnavailable));
        }
        report
    }

    /// The status of this identity's buddies, through the client software.
    ///
    /// # Errors
    ///
    /// Fails if the client software is unusable or the session is broken.
    pub fn buddy_status(
        &mut self,
        service: &mut ImService,
        now: SimTime,
    ) -> Result<Vec<(ImHandle, bool)>, ImManagerError> {
        self.core.automation_op().map_err(ImManagerError::Client)?;
        service
            .buddy_status(&self.identity, now)
            .map_err(ImManagerError::Service)
    }

    /// Sends an IM through the client software.
    ///
    /// # Errors
    ///
    /// Fails with [`ImManagerError::Client`] when the client software is
    /// unusable (the caller should run [`ImManager::sanity_check`] or
    /// restart) and [`ImManagerError::Service`] when the service rejects
    /// the message (down, not logged on, recipient offline).
    pub fn send(
        &mut self,
        service: &mut ImService,
        to: &ImHandle,
        body: impl Into<String>,
        now: SimTime,
    ) -> Result<Transit, ImManagerError> {
        self.core.automation_op().map_err(ImManagerError::Client)?;
        service
            .send(&self.identity, to, body, now)
            .map_err(ImManagerError::Service)
    }

    /// Checks a buddy's presence through the client software.
    ///
    /// # Errors
    ///
    /// Fails if the client software is unusable.
    pub fn presence(
        &mut self,
        service: &mut ImService,
        buddy: &ImHandle,
        now: SimTime,
    ) -> Result<bool, ImManagerError> {
        self.core.automation_op().map_err(ImManagerError::Client)?;
        Ok(service.presence(buddy, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialogs::DialogBox;
    use simba_net::latency::LatencyModel;
    use simba_net::loss::LossModel;
    use simba_net::outage::OutageSchedule;
    use simba_sim::{SimDuration, SimRng};

    fn service() -> ImService {
        ImService::new(SimRng::new(1))
            .with_latency(LatencyModel::Constant(SimDuration::from_millis(300)))
            .with_loss(LossModel::None)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn setup() -> (ImService, ImManager, ImHandle) {
        let mut svc = service();
        let me = ImHandle::new("mab");
        let peer = ImHandle::new("user");
        svc.register(me.clone());
        svc.register(peer.clone());
        svc.logon(&peer, t(0)).unwrap();
        let mut mgr = ImManager::new(me);
        mgr.start(&mut svc, t(0)).unwrap();
        (svc, mgr, peer)
    }

    #[test]
    fn send_and_receive_through_manager() {
        let (mut svc, mut mgr, peer) = setup();
        let transit = mgr.send(&mut svc, &peer, "alert!", t(1)).unwrap();
        assert_eq!(transit.message.body, "alert!");
        assert!(svc.deliver(transit.message, t(2)));
        assert_eq!(svc.inbox_len(&peer), 1);
    }

    #[test]
    fn hung_client_blocks_send_until_sanity_check() {
        let (mut svc, mut mgr, peer) = setup();
        mgr.core_mut().process_mut().inject_hang();
        assert!(matches!(
            mgr.send(&mut svc, &peer, "x", t(1)),
            Err(ImManagerError::Client(_))
        ));
        let report = mgr.sanity_check(&mut svc, t(2));
        assert!(report.anomalies.contains(&Anomaly::ProcessHung));
        // Restart logged us out; the same pass re-logs on.
        assert!(report.repairs.contains(&RepairAction::Restart));
        assert!(report.repairs.contains(&RepairAction::ReLogon));
        assert!(mgr.send(&mut svc, &peer, "x", t(3)).is_ok());
    }

    #[test]
    fn forced_logout_repaired_by_relogon_without_restart() {
        let (mut svc, mut mgr, peer) = setup();
        svc.force_logout(mgr.identity());
        assert!(matches!(
            mgr.send(&mut svc, &peer, "x", t(1)),
            Err(ImManagerError::Service(ImSendError::SenderNotLoggedOn))
        ));
        let report = mgr.sanity_check(&mut svc, t(2));
        assert_eq!(report.anomalies, vec![Anomaly::LoggedOut]);
        assert_eq!(report.repairs, vec![RepairAction::ReLogon]);
        assert!(mgr.send(&mut svc, &peer, "x", t(3)).is_ok());
    }

    #[test]
    fn server_recovery_logout_detected_and_repaired() {
        let mut svc = service().with_outages(OutageSchedule::from_windows(vec![(
            t(100),
            t(200),
        )]));
        let me = ImHandle::new("mab");
        svc.register(me.clone());
        let mut mgr = ImManager::new(me);
        mgr.start(&mut svc, t(0)).unwrap();

        // During the outage: unrepairable, service down.
        let during = mgr.sanity_check(&mut svc, t(150));
        assert!(during.anomalies.contains(&Anomaly::ServiceUnavailable));
        assert!(!during.healthy());

        // After recovery: logged out by server recovery, re-logon works.
        let after = mgr.sanity_check(&mut svc, t(250));
        assert_eq!(after.anomalies, vec![Anomaly::LoggedOut]);
        assert_eq!(after.repairs, vec![RepairAction::ReLogon]);
        assert!(after.healthy());
    }

    #[test]
    fn unknown_dialog_then_registered_rule_recovers() {
        let (mut svc, mut mgr, peer) = setup();
        mgr.core_mut()
            .process_mut()
            .inject_dialog(DialogBox::blocking("Mystery Box", "Abort", t(1)));
        assert!(mgr.send(&mut svc, &peer, "x", t(1)).is_err());
        let r = mgr.sanity_check(&mut svc, t(2));
        assert!(!r.healthy());

        mgr.register_dialog_rule("Mystery Box", "Abort");
        let r2 = mgr.sanity_check(&mut svc, t(3));
        assert!(r2.healthy());
        assert!(mgr.send(&mut svc, &peer, "x", t(4)).is_ok());
    }

    #[test]
    fn buddy_status_through_manager() {
        let (mut svc, mut mgr, peer) = setup();
        svc.add_buddy(mgr.identity(), &peer).unwrap();
        let status = mgr.buddy_status(&mut svc, t(1)).unwrap();
        assert_eq!(status, vec![(peer.clone(), true)]);
        svc.logoff(&peer, t(2));
        let status = mgr.buddy_status(&mut svc, t(3)).unwrap();
        assert_eq!(status, vec![(peer, false)]);
    }

    #[test]
    fn presence_reads_through_client() {
        let (mut svc, mut mgr, peer) = setup();
        assert!(mgr.presence(&mut svc, &peer, t(1)).unwrap());
        svc.logoff(&peer, t(1));
        assert!(!mgr.presence(&mut svc, &peer, t(2)).unwrap());
    }

    #[test]
    fn relogon_repair_is_recorded_as_delta_only() {
        use simba_telemetry::{RingBufferSink, Value};
        use std::sync::Arc;

        let mut svc = service();
        let me = ImHandle::new("mab");
        svc.register(me.clone());
        let sink = Arc::new(RingBufferSink::new(32));
        let telemetry = Telemetry::with_sink(sink.clone());
        let mut mgr = ImManager::new(me).with_telemetry(telemetry.clone());
        mgr.start(&mut svc, t(0)).unwrap();

        svc.force_logout(mgr.identity());
        let report = mgr.sanity_check(&mut svc, t(2));
        assert_eq!(report.repairs, vec![RepairAction::ReLogon]);

        let snap = telemetry.metrics().snapshot();
        // One pass, one anomaly (logged_out), one re-logon — nothing
        // double-counted between the base pass and the IM delta.
        assert_eq!(snap.counter("client.sanity_check"), 1);
        assert_eq!(snap.counter("client.anomalies"), 1);
        assert_eq!(snap.counter("client.re_logons"), 1);
        assert_eq!(snap.counter("client.restart"), 0);

        let events = sink.events();
        let anomaly = events.iter().find(|e| e.name == "client.anomaly").unwrap();
        assert_eq!(anomaly.field("kind"), Some(&Value::Str("logged_out".into())));
        assert_eq!(anomaly.time_ms, 2_000);
    }
}
