//! The Email Manager: drives the simulated email client software against
//! the simulated email service.
//!
//! Email is SIMBA's fallback channel, so the manager's job is humbler than
//! the IM Manager's: send reliably-enough, and make sure no received alert
//! mail sits unprocessed because a new-mail event was lost (§4.2.1 lists
//! "unprocessed emails ... due to potential loss of new-email events" as a
//! self-stabilization invariant).

use crate::manager::{ManagerCore, SanityReport};
use crate::process::ClientProcess;
use simba_net::email::{Email, EmailAddr, EmailService, EmailTransit};
use simba_sim::SimTime;
use simba_telemetry::Telemetry;

/// The Communication Manager for the email channel.
#[derive(Debug)]
pub struct EmailManager {
    core: ManagerCore,
    identity: EmailAddr,
    /// Mail delivered to the client but not yet handed to the application.
    unread: Vec<Email>,
}

impl EmailManager {
    /// Creates a manager for `identity`, backed by a typical email client.
    pub fn new(identity: EmailAddr) -> Self {
        EmailManager {
            core: ManagerCore::new(ClientProcess::new("email-client", 25_000, 3), 300_000),
            identity,
            unread: Vec::new(),
        }
    }

    /// Records sanity checks, anomalies, repairs, and restarts through
    /// `telemetry` under the `client.*` namespace.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.core.set_telemetry(telemetry);
        self
    }

    /// This manager's email identity.
    pub fn identity(&self) -> &EmailAddr {
        &self.identity
    }

    /// Shared access to the manager core.
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

    /// Starts the client if needed.
    pub fn start(&mut self, now: SimTime) {
        self.core.ensure_started(now);
    }

    /// Full sanity check: generic client checks plus a mailbox sweep —
    /// any mail sitting in the service mailbox whose new-mail event was
    /// missed is pulled into the unread queue here.
    pub fn sanity_check(&mut self, service: &mut EmailService, now: SimTime) -> SanityReport {
        let report = self.core.base_sanity_check(now);
        if self.core.automation_op().is_ok() {
            // The §4.2.1 invariant check: poll the mailbox even without a
            // new-mail event.
            self.unread.extend(service.take_mailbox(&self.identity));
        }
        report
    }

    /// Sends an email through the client software.
    ///
    /// # Errors
    ///
    /// Fails if the client software is unusable; the service itself never
    /// rejects (store-and-forward).
    pub fn send(
        &mut self,
        service: &mut EmailService,
        to: &EmailAddr,
        sender_name: impl Into<String>,
        subject: impl Into<String>,
        body: impl Into<String>,
        now: SimTime,
    ) -> Result<EmailTransit, crate::process::ProcessError> {
        self.core.automation_op()?;
        Ok(service.send(&self.identity, to, sender_name, subject, body, now))
    }

    /// Handles a new-mail notification: pulls the mailbox into the unread
    /// queue. Call when the harness delivers a mailbox deposit event.
    pub fn on_new_mail(&mut self, service: &mut EmailService) {
        if self.core.automation_op().is_ok() {
            self.unread.extend(service.take_mailbox(&self.identity));
        }
    }

    /// Drains the unread queue.
    pub fn take_unread(&mut self) -> Vec<Email> {
        std::mem::take(&mut self.unread)
    }

    /// Number of unread messages held by the client.
    pub fn unread_len(&self) -> usize {
        self.unread.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_net::latency::LatencyModel;
    use simba_net::loss::LossModel;
    use simba_sim::{SimDuration, SimRng};

    fn service() -> EmailService {
        EmailService::new(SimRng::new(1))
            .with_latency(LatencyModel::Constant(SimDuration::from_secs(10)))
            .with_loss(LossModel::None)
            .with_notify_loss(0.0)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn send_through_manager() {
        let mut svc = service();
        let mut mgr = EmailManager::new(EmailAddr::new("mab@home"));
        mgr.start(t(0));
        let transit = mgr
            .send(&mut svc, &EmailAddr::new("user@work"), "MAB", "alert", "body", t(1))
            .unwrap();
        assert_eq!(transit.message.subject, "alert");
        assert_eq!(transit.delay, SimDuration::from_secs(10));
    }

    #[test]
    fn send_fails_when_client_down() {
        let mut svc = service();
        let mut mgr = EmailManager::new(EmailAddr::new("mab@home"));
        // never started
        assert!(mgr
            .send(&mut svc, &EmailAddr::new("u@w"), "n", "s", "b", t(0))
            .is_err());
    }

    #[test]
    fn new_mail_notification_pulls_mailbox() {
        let mut svc = service();
        let me = EmailAddr::new("mab@home");
        let mut mgr = EmailManager::new(me.clone());
        mgr.start(t(0));
        let transit = svc.send(&EmailAddr::new("yahoo"), &me, "Yahoo! Stocks", "MSFT", "b", t(0));
        svc.deposit(transit.message);
        assert_eq!(mgr.unread_len(), 0);
        mgr.on_new_mail(&mut svc);
        assert_eq!(mgr.unread_len(), 1);
        let mail = mgr.take_unread();
        assert_eq!(mail[0].sender_name, "Yahoo! Stocks");
        assert_eq!(mgr.unread_len(), 0);
    }

    #[test]
    fn sanity_check_sweeps_missed_mail() {
        // A deposit whose notification was lost is recovered by the next
        // sanity pass — the self-stabilization invariant.
        let mut svc = service().with_notify_loss(1.0);
        let me = EmailAddr::new("mab@home");
        let mut mgr = EmailManager::new(me.clone());
        mgr.start(t(0));
        let transit = svc.send(&EmailAddr::new("src"), &me, "n", "s", "b", t(0));
        let notified = svc.deposit(transit.message);
        assert!(!notified);
        assert_eq!(mgr.unread_len(), 0);
        let report = mgr.sanity_check(&mut svc, t(60));
        assert!(report.healthy());
        assert_eq!(mgr.unread_len(), 1);
    }

    #[test]
    fn crashed_client_restarted_by_sanity_check_then_usable() {
        let mut svc = service();
        let mut mgr = EmailManager::new(EmailAddr::new("mab@home"));
        mgr.start(t(0));
        mgr.core_mut().process_mut().inject_crash();
        assert!(mgr
            .send(&mut svc, &EmailAddr::new("u"), "n", "s", "b", t(1))
            .is_err());
        let report = mgr.sanity_check(&mut svc, t(2));
        assert!(!report.anomalies.is_empty());
        assert!(mgr
            .send(&mut svc, &EmailAddr::new("u"), "n", "s", "b", t(3))
            .is_ok());
    }
}
