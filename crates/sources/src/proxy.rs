//! The information alert proxy (§2.1).
//!
//! "For Web sites that provide interesting information but do not yet
//! support alert services, we use an alert proxy to generate alerts for
//! them. For each Web site, the user specifies the URL, the polling
//! frequency, the starting and ending keywords enclosing the interesting
//! block of information. The alert proxy periodically polls the site and
//! generates an alert when the interesting block changes." The §5 workload
//! monitored the Florida-recount numbers and PlayStation 2 availability.

use simba_core::alert::{IncomingAlert, Urgency};
use simba_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A simulated web site: a URL with mutable page content.
#[derive(Debug, Clone, Default)]
pub struct WebSite {
    pages: BTreeMap<String, String>,
}

impl WebSite {
    /// An empty site collection.
    pub fn new() -> Self {
        WebSite::default()
    }

    /// Publishes (or replaces) the page at `url`.
    pub fn publish(&mut self, url: impl Into<String>, content: impl Into<String>) {
        self.pages.insert(url.into(), content.into());
    }

    /// Fetches the page at `url`, if it exists.
    pub fn fetch(&self, url: &str) -> Option<&str> {
        self.pages.get(url).map(String::as_str)
    }
}

/// One proxy watch: URL + keyword-delimited block + poll cadence.
#[derive(Debug, Clone)]
pub struct Watch {
    /// The page to poll.
    pub url: String,
    /// Keyword starting the interesting block.
    pub start_keyword: String,
    /// Keyword ending the interesting block.
    pub end_keyword: String,
    /// Poll period.
    pub poll_every: SimDuration,
    /// Urgency of generated alerts.
    pub urgency: Urgency,
}

/// Outcome of one poll of one watch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PollOutcome {
    /// Block unchanged (or first observation).
    Unchanged,
    /// Block changed: an alert was generated.
    Alert(IncomingAlert),
    /// The page was unreachable.
    FetchFailed,
    /// Keywords no longer match the page layout.
    BlockMissing,
}

/// The alert proxy: polls watches and diffs their blocks.
#[derive(Debug)]
pub struct AlertProxy {
    /// The IM/email identity this proxy uses as its alert source id.
    source_id: String,
    watches: Vec<Watch>,
    /// Last seen block per URL.
    last_blocks: BTreeMap<String, String>,
    alerts_generated: u64,
    polls: u64,
}

impl AlertProxy {
    /// Creates a proxy sending alerts as `source_id`.
    pub fn new(source_id: impl Into<String>) -> Self {
        AlertProxy {
            source_id: source_id.into(),
            watches: Vec::new(),
            last_blocks: BTreeMap::new(),
            alerts_generated: 0,
            polls: 0,
        }
    }

    /// The proxy's alert source identity.
    pub fn source_id(&self) -> &str {
        &self.source_id
    }

    /// Registers a watch.
    pub fn add_watch(&mut self, watch: Watch) {
        self.watches.push(watch);
    }

    /// The registered watches.
    pub fn watches(&self) -> &[Watch] {
        &self.watches
    }

    /// Total alerts generated.
    pub fn alerts_generated(&self) -> u64 {
        self.alerts_generated
    }

    /// Total polls performed.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Polls the watch at `index` against `site` at time `now`.
    ///
    /// The first successful observation primes the baseline without
    /// alerting (the user asked to be told about *changes*).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn poll(&mut self, index: usize, site: &WebSite, now: SimTime) -> PollOutcome {
        self.polls += 1;
        let watch = &self.watches[index];
        let Some(page) = site.fetch(&watch.url) else {
            return PollOutcome::FetchFailed;
        };
        let Some(block) = extract_block(page, &watch.start_keyword, &watch.end_keyword) else {
            return PollOutcome::BlockMissing;
        };
        let block = block.trim().to_string();
        match self.last_blocks.insert(watch.url.clone(), block.clone()) {
            None => PollOutcome::Unchanged, // primed
            Some(prev) if prev == block => PollOutcome::Unchanged,
            Some(_) => {
                self.alerts_generated += 1;
                let alert = IncomingAlert::from_im(
                    self.source_id.clone(),
                    format!("{} changed: {}", watch.url, block),
                    now,
                )
                .with_urgency(watch.urgency);
                PollOutcome::Alert(alert)
            }
        }
    }
}

/// Extracts the text strictly between the first `start` and the next `end`.
fn extract_block<'a>(page: &'a str, start: &str, end: &str) -> Option<&'a str> {
    let s = page.find(start)? + start.len();
    let rest = &page[s..];
    let e = rest.find(end)?;
    Some(&rest[..e])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn florida_watch() -> Watch {
        Watch {
            url: "http://election/fl".into(),
            start_keyword: "<recount>".into(),
            end_keyword: "</recount>".into(),
            poll_every: SimDuration::from_secs(30),
            urgency: Urgency::Normal,
        }
    }

    fn setup() -> (AlertProxy, WebSite) {
        let mut proxy = AlertProxy::new("proxy-im");
        proxy.add_watch(florida_watch());
        let mut site = WebSite::new();
        site.publish("http://election/fl", "header <recount> Bush +537 </recount> footer");
        (proxy, site)
    }

    #[test]
    fn extract_block_basics() {
        assert_eq!(extract_block("a [x] b", "[", "]"), Some("x"));
        assert_eq!(extract_block("no markers", "[", "]"), None);
        assert_eq!(extract_block("open [ but no close", "[", "]"), None);
        assert_eq!(extract_block("[first][second]", "[", "]"), Some("first"));
    }

    #[test]
    fn first_poll_primes_without_alert() {
        let (mut proxy, site) = setup();
        assert_eq!(proxy.poll(0, &site, t(0)), PollOutcome::Unchanged);
        assert_eq!(proxy.alerts_generated(), 0);
    }

    #[test]
    fn change_generates_alert_with_block_content() {
        let (mut proxy, mut site) = setup();
        proxy.poll(0, &site, t(0));
        site.publish("http://election/fl", "header <recount> Bush +327 </recount> footer");
        let out = proxy.poll(0, &site, t(30));
        let PollOutcome::Alert(alert) = out else {
            panic!("expected alert, got {out:?}")
        };
        assert!(alert.body.contains("Bush +327"));
        assert_eq!(&*alert.source, "proxy-im");
        assert_eq!(alert.origin_timestamp, t(30));
        assert_eq!(proxy.alerts_generated(), 1);
    }

    #[test]
    fn unchanged_block_stays_quiet_even_if_page_moves() {
        let (mut proxy, mut site) = setup();
        proxy.poll(0, &site, t(0));
        // Footer changes but the block does not.
        site.publish("http://election/fl", "NEW header <recount> Bush +537 </recount> NEW footer");
        assert_eq!(proxy.poll(0, &site, t(30)), PollOutcome::Unchanged);
    }

    #[test]
    fn whitespace_only_changes_are_ignored() {
        let (mut proxy, mut site) = setup();
        proxy.poll(0, &site, t(0));
        site.publish("http://election/fl", "header <recount>   Bush +537\n</recount> footer");
        assert_eq!(proxy.poll(0, &site, t(30)), PollOutcome::Unchanged);
    }

    #[test]
    fn missing_page_and_missing_block_reported() {
        let (mut proxy, mut site) = setup();
        assert_eq!(
            proxy.poll(0, &WebSite::new(), t(0)),
            PollOutcome::FetchFailed
        );
        site.publish("http://election/fl", "layout changed entirely");
        assert_eq!(proxy.poll(0, &site, t(30)), PollOutcome::BlockMissing);
    }

    #[test]
    fn multiple_watches_are_independent() {
        let (mut proxy, mut site) = setup();
        proxy.add_watch(Watch {
            url: "http://shop/ps2".into(),
            start_keyword: "stock:".into(),
            end_keyword: ";".into(),
            poll_every: SimDuration::from_secs(60),
            urgency: Urgency::Critical,
        });
        site.publish("http://shop/ps2", "stock: none;");
        proxy.poll(0, &site, t(0));
        proxy.poll(1, &site, t(0));
        site.publish("http://shop/ps2", "stock: PlayStation2 AVAILABLE;");
        let out = proxy.poll(1, &site, t(60));
        let PollOutcome::Alert(alert) = out else {
            panic!("expected alert")
        };
        assert!(alert.body.contains("AVAILABLE"));
        assert_eq!(alert.urgency, Urgency::Critical);
        // Watch 0 unaffected.
        assert_eq!(proxy.poll(0, &site, t(60)), PollOutcome::Unchanged);
        assert_eq!(proxy.polls(), 4);
    }
}
