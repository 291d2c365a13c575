//! Alerts: the unit of information SIMBA delivers.

use simba_sim::SimTime;
use std::sync::Arc;

/// An alert's identity: the id of the log record MyAlertBuddy wrote for it
/// (§4.2.1's pessimistic log). A replay of the record routes the same id,
/// and every delivery the alert fans out to carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AlertId(pub u64);

impl std::fmt::Display for AlertId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "alert-{}", self.0)
    }
}

/// How urgent the *source* considers the alert. MyAlertBuddy's category →
/// delivery-mode mapping, not this field, decides how it is delivered —
/// urgency is advisory input to filtering/sub-categorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Urgency {
    /// Informational, no timeliness requirement.
    Low,
    /// Normal alert traffic.
    #[default]
    Normal,
    /// Time-critical, high-importance (basement flooding, outbid with
    /// minutes left).
    Critical,
}

impl std::fmt::Display for Urgency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Urgency::Low => "low",
            Urgency::Normal => "normal",
            Urgency::Critical => "critical",
        };
        f.write_str(s)
    }
}

/// A raw alert as it arrives at MyAlertBuddy, before classification.
///
/// The fields mirror what the two transport channels carry: IM alerts are a
/// body tagged with the sender handle; email alerts additionally carry a
/// sender display name and subject — the two fields the classifier's
/// per-source keyword rules read (§4.2).
///
/// `source` and `body` are shared: the log record, the acknowledgement,
/// the routed [`Alert`] and every send of it hold the strings this value
/// was built with, so cloning an IM alert allocates nothing (the two
/// email-only fields are empty there).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncomingAlert {
    /// Source identifier: the sending IM handle or email address.
    pub source: Arc<str>,
    /// Sender display name (email) or empty (IM).
    pub sender_name: String,
    /// Subject line (email) or empty (IM).
    pub subject: String,
    /// Alert text.
    pub body: Arc<str>,
    /// The source's own timestamp, used for duplicate detection at the
    /// user (§4.2.1: "We use timestamps to allow the user to detect and
    /// discard duplicates").
    pub origin_timestamp: SimTime,
    /// Source-declared urgency.
    pub urgency: Urgency,
}

impl IncomingAlert {
    /// Creates an IM-style incoming alert (no sender name / subject).
    pub fn from_im(source: impl Into<Arc<str>>, body: impl Into<Arc<str>>, origin: SimTime) -> Self {
        IncomingAlert {
            source: source.into(),
            sender_name: String::new(),
            subject: String::new(),
            body: body.into(),
            origin_timestamp: origin,
            urgency: Urgency::Normal,
        }
    }

    /// Creates an email-style incoming alert.
    pub fn from_email(
        source: impl Into<Arc<str>>,
        sender_name: impl Into<String>,
        subject: impl Into<String>,
        body: impl Into<Arc<str>>,
        origin: SimTime,
    ) -> Self {
        IncomingAlert {
            source: source.into(),
            sender_name: sender_name.into(),
            subject: subject.into(),
            body: body.into(),
            origin_timestamp: origin,
            urgency: Urgency::Normal,
        }
    }

    /// Sets the urgency, builder style.
    #[must_use]
    pub fn with_urgency(mut self, urgency: Urgency) -> Self {
        self.urgency = urgency;
        self
    }
}

/// A storm of correlated alerts collapsed into one deliverable summary.
///
/// The rules pipeline's windowed correlator (crate `simba-rules`) absorbs
/// bursts that share a correlation key and flushes them as one of these:
/// a count, the window's first/last origin timestamps, and a bounded set
/// of exemplar payloads. [`DigestAlert::to_incoming`] renders it as a
/// normal [`IncomingAlert`] so the delivery pipeline needs no new path —
/// a flapping source costs the user one delivery, not thousands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestAlert {
    /// The user the digest belongs to.
    pub user: String,
    /// The correlation key the burst shared (default `user/source/kind`).
    pub key: String,
    /// Source of the correlated alerts.
    pub source: String,
    /// Kind (subject/category) of the correlated alerts.
    pub kind: String,
    /// How many alerts the digest absorbed.
    pub count: u64,
    /// Origin timestamp of the first absorbed alert.
    pub first: SimTime,
    /// Origin timestamp of the last absorbed alert.
    pub last: SimTime,
    /// Up to `max_exemplars` payload bodies, first-come.
    pub exemplars: Vec<String>,
    /// Highest urgency observed across the burst.
    pub urgency: Urgency,
}

impl DigestAlert {
    /// Renders the digest as a deliverable [`IncomingAlert`]. The subject
    /// carries the count and kind; the body carries the window bounds and
    /// exemplars. The origin timestamp is the window's *last* alert, so
    /// user-side timestamp dedup treats each flushed window as distinct.
    pub fn to_incoming(&self) -> IncomingAlert {
        let mut body = format!(
            "{} alerts from {}/{} between t+{}ms and t+{}ms",
            self.count,
            self.source,
            self.kind,
            self.first.as_millis(),
            self.last.as_millis(),
        );
        for exemplar in &self.exemplars {
            body.push_str("\n  e.g. ");
            body.push_str(exemplar);
        }
        IncomingAlert {
            source: self.source.as_str().into(),
            sender_name: String::new(),
            subject: format!("digest: {}x {}", self.count, self.kind),
            body: body.into(),
            origin_timestamp: self.last,
            urgency: self.urgency,
        }
    }
}

/// A classified alert flowing through MyAlertBuddy's routing stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Pipeline-assigned id.
    pub id: AlertId,
    /// Source identifier.
    pub source: Arc<str>,
    /// The personal category the classifier assigned.
    pub category: Arc<str>,
    /// Display text delivered to the user; every send of the alert, the
    /// ledger record and the leased work share this one string.
    pub text: Arc<str>,
    /// The source's own timestamp (for dedup).
    pub origin_timestamp: SimTime,
    /// When MyAlertBuddy accepted it.
    pub received_at: SimTime,
    /// Source-declared urgency.
    pub urgency: Urgency,
}

impl Alert {
    /// The key used for timestamp-based duplicate detection at the user:
    /// two alerts with the same source, category, and origin timestamp are
    /// duplicates (a retransmission after an unmarked WAL replay).
    pub fn dedup_key(&self) -> (Arc<str>, Arc<str>, SimTime) {
        (Arc::clone(&self.source), Arc::clone(&self.category), self.origin_timestamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn urgency_orders_low_to_critical() {
        assert!(Urgency::Low < Urgency::Normal);
        assert!(Urgency::Normal < Urgency::Critical);
        assert_eq!(Urgency::default(), Urgency::Normal);
    }

    #[test]
    fn constructors_fill_channel_fields() {
        let im = IncomingAlert::from_im("aladdin-gw", "Basement Water Sensor ON", SimTime::ZERO);
        assert!(im.sender_name.is_empty());
        assert!(im.subject.is_empty());
        assert_eq!(&*im.body, "Basement Water Sensor ON");

        let em = IncomingAlert::from_email(
            "alerts@yahoo",
            "Yahoo! Stocks",
            "MSFT crossed 80",
            "details",
            SimTime::from_secs(5),
        )
        .with_urgency(Urgency::Critical);
        assert_eq!(em.sender_name, "Yahoo! Stocks");
        assert_eq!(em.urgency, Urgency::Critical);
        assert_eq!(em.origin_timestamp, SimTime::from_secs(5));
    }

    #[test]
    fn dedup_key_matches_same_origin() {
        let mk = |id: u64, received: u64| Alert {
            id: AlertId(id),
            source: "aladdin".into(),
            category: "Home.Security".into(),
            text: "x".into(),
            origin_timestamp: SimTime::from_secs(100),
            received_at: SimTime::from_secs(received),
            urgency: Urgency::Critical,
        };
        // Same alert re-sent after a crash: different id and receive time,
        // same dedup key.
        assert_eq!(mk(1, 101).dedup_key(), mk(2, 160).dedup_key());
        // Source, category and origin each make up the key: changing any
        // one of them is a different alert, not a replay.
        let key = mk(1, 101).dedup_key();
        let other_source = Alert { source: "wish".into(), ..mk(2, 160) };
        let other_category = Alert { category: "Home.Water".into(), ..mk(2, 160) };
        let other_origin = Alert { origin_timestamp: SimTime::from_secs(200), ..mk(2, 160) };
        for (what, alert) in
            [("source", other_source), ("category", other_category), ("origin", other_origin)]
        {
            assert_ne!(alert.dedup_key(), key, "a different {what} must change the key");
        }
    }

    #[test]
    fn display_impls() {
        assert_eq!(AlertId(7).to_string(), "alert-7");
        assert_eq!(Urgency::Critical.to_string(), "critical");
    }
}
