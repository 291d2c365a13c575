//! Alert classification, aggregation, and filtering (§4.2).
//!
//! * **Classification** — "the user customizes the classifier by specifying
//!   the list of accepted alert sources, and how to extract category-related
//!   keywords from the alerts": per-source rules name the field holding the
//!   keywords (sender name for Yahoo!/Alerts.com, subject for MSN Mobile and
//!   the desktop assistant).
//! * **Aggregation** — "mapping all of 'Stocks', 'Financial news', and
//!   'Earnings reports' to a single category called 'Investment'".
//! * **Filtering via sub-categorization** — "by mapping 'Sensor ON' and
//!   'Sensor OFF' to two different subcategories, the user can treat one of
//!   them as more urgent than the other".
//!
//! The classifier also maintains the directory of subscribed services and
//! their unsubscribe instructions.

use crate::alert::IncomingAlert;
use crate::vecmap::VecMap;
use std::sync::Arc;

/// Which field of an incoming alert carries the category keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeywordField {
    /// The email sender display name (Yahoo!, Alerts.com style).
    SenderName,
    /// The subject line (MSN Mobile, desktop assistant style).
    Subject,
    /// The message body (IM alerts, Aladdin style).
    Body,
}

impl KeywordField {
    fn extract(self, alert: &IncomingAlert) -> &str {
        match self {
            KeywordField::SenderName => &alert.sender_name,
            KeywordField::Subject => &alert.subject,
            KeywordField::Body => &alert.body,
        }
    }
}

/// Per-source acceptance rule.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SourceRule {
    /// Exact source identifier (IM handle or email address).
    source: String,
    /// Where this source puts its keywords.
    field: KeywordField,
    /// How to unsubscribe from this service (kept for the §4.2 service
    /// directory).
    unsubscribe_info: String,
}

/// What a keyword maps to. Matching is case-insensitive, so the keyword
/// is lowercased here, once, not on every alert.
#[derive(Debug, Clone)]
struct Mapped {
    lowered: String,
    category: Arc<str>,
}

/// Sub-categorization rule: refine `category` to `subcategory` when the
/// alert text contains `pattern` (compared as `lowered`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct SubCatRule {
    category: String,
    pattern: String,
    lowered: String,
    subcategory: Arc<str>,
}

/// Why an incoming alert was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The source is not on the accepted list.
    UnknownSource(
        /// The offending source id.
        String,
    ),
    /// No keyword matched and no default category is configured.
    NoCategory,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::UnknownSource(s) => write!(f, "source {s:?} not accepted"),
            RejectReason::NoCategory => write!(f, "no keyword matched and no default category"),
        }
    }
}

/// One entry in the subscribed-services directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceEntry {
    /// Source identifier.
    pub source: String,
    /// Where its keywords live.
    pub field: KeywordField,
    /// How to unsubscribe.
    pub unsubscribe_info: String,
}

/// The MyAlertBuddy alert classifier.
#[derive(Debug, Clone, Default)]
pub struct Classifier {
    sources: Vec<SourceRule>,
    /// keyword → personal category (aggregation).
    keyword_map: VecMap<String, Mapped>,
    subcats: Vec<SubCatRule>,
    default_category: Option<Arc<str>>,
}

impl Classifier {
    /// An empty classifier (accepts nothing).
    pub fn new() -> Self {
        Classifier::default()
    }

    /// Accepts alerts from `source`, reading keywords from `field`.
    pub fn accept_source(
        &mut self,
        source: impl Into<String>,
        field: KeywordField,
        unsubscribe_info: impl Into<String>,
    ) {
        self.sources.push(SourceRule {
            source: source.into(),
            field,
            unsubscribe_info: unsubscribe_info.into(),
        });
    }

    /// Maps a keyword to a personal category (aggregation). Keywords are
    /// matched case-insensitively as substrings of the source's keyword
    /// field; the longest matching keyword wins so "Earnings reports"
    /// beats "Earnings".
    pub fn map_keyword(&mut self, keyword: impl Into<String>, category: impl Into<Arc<str>>) {
        let keyword = keyword.into();
        let mapped = Mapped { lowered: keyword.to_lowercase(), category: category.into() };
        self.keyword_map.insert(keyword, mapped);
    }

    /// Adds a sub-categorization rule (filtering): when an alert lands in
    /// `category` and its body contains `pattern`, refine to `subcategory`.
    pub fn add_subcategory(
        &mut self,
        category: impl Into<String>,
        pattern: impl Into<String>,
        subcategory: impl Into<Arc<str>>,
    ) {
        let pattern = pattern.into();
        self.subcats.push(SubCatRule {
            category: category.into(),
            lowered: pattern.to_lowercase(),
            pattern,
            subcategory: subcategory.into(),
        });
    }

    /// Sets the category used when no keyword matches (instead of
    /// rejecting).
    pub fn set_default_category(&mut self, category: impl Into<Arc<str>>) {
        self.default_category = Some(category.into());
    }

    /// The subscribed-services directory (§4.2: MyAlertBuddy "helps the
    /// user maintain a list of all the subscribed alert services, and the
    /// information about how to unsubscribe them").
    pub fn services(&self) -> Vec<ServiceEntry> {
        self.sources
            .iter()
            .map(|r| ServiceEntry {
                source: r.source.clone(),
                field: r.field,
                unsubscribe_info: r.unsubscribe_info.clone(),
            })
            .collect()
    }

    /// Classifies an incoming alert to a personal category (a shared
    /// handle on the configured name). The keyword field is lowercased
    /// once per call, and the body only when a sub-categorization rule
    /// could apply to the category found.
    ///
    /// # Errors
    ///
    /// Rejects alerts from unknown sources, and keyword-less alerts when no
    /// default category is configured.
    pub fn classify(&self, alert: &IncomingAlert) -> Result<Arc<str>, RejectReason> {
        let rule = self
            .sources
            .iter()
            .find(|r| *r.source == *alert.source)
            .ok_or_else(|| RejectReason::UnknownSource(alert.source.to_string()))?;

        let field_text = rule.field.extract(alert).to_lowercase();
        let category = self
            .keyword_map
            .iter()
            .filter(|(_, mapped)| field_text.contains(&mapped.lowered))
            .max_by_key(|(kw, _)| kw.len())
            .map(|(_, mapped)| &mapped.category)
            .or(self.default_category.as_ref())
            .ok_or(RejectReason::NoCategory)?;

        // Sub-categorization pass over the body.
        let mut rules = self.subcats.iter().filter(|r| *r.category == **category).peekable();
        if rules.peek().is_none() {
            return Ok(Arc::clone(category));
        }
        let body = match rule.field {
            KeywordField::Body => field_text,
            _ => alert.body.to_lowercase(),
        };
        let refined = rules
            .filter(|r| body.contains(&r.lowered))
            .max_by_key(|r| r.pattern.len())
            .map_or(category, |r| &r.subcategory);
        Ok(Arc::clone(refined))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_sim::SimTime;

    fn classifier() -> Classifier {
        let mut c = Classifier::new();
        c.accept_source("alerts@yahoo", KeywordField::SenderName, "visit alerts.yahoo.com");
        c.accept_source("mobile@msn", KeywordField::Subject, "reply STOP");
        c.accept_source("aladdin-gw", KeywordField::Body, "home gateway config");
        c.map_keyword("Stocks", "Investment");
        c.map_keyword("Financial news", "Investment");
        c.map_keyword("Earnings reports", "Investment");
        c.map_keyword("Weather", "Daily");
        c.map_keyword("Sensor", "Home.Security");
        c.add_subcategory("Home.Security", "Sensor ON", "Home.Security.Urgent");
        c.add_subcategory("Home.Security", "Sensor OFF", "Home.Security.Info");
        c
    }

    #[test]
    fn sender_name_keywords_yahoo_style() {
        let c = classifier();
        let a = IncomingAlert::from_email("alerts@yahoo", "Yahoo! Stocks", "MSFT at 80", "…", SimTime::ZERO);
        assert_eq!(&*c.classify(&a).unwrap(), "Investment");
    }

    #[test]
    fn subject_keywords_msn_style() {
        let c = classifier();
        let a = IncomingAlert::from_email("mobile@msn", "MSN Mobile", "Weather update: rain", "…", SimTime::ZERO);
        assert_eq!(&*c.classify(&a).unwrap(), "Daily");
    }

    #[test]
    fn body_keywords_im_style() {
        let c = classifier();
        let a = IncomingAlert::from_im("aladdin-gw", "Garage Door Sensor Broken", SimTime::ZERO);
        assert_eq!(&*c.classify(&a).unwrap(), "Home.Security");
    }

    #[test]
    fn aggregation_maps_many_keywords_to_one_category() {
        let c = classifier();
        for (name, _) in [("Yahoo! Stocks", ""), ("WSJ Financial news", ""), ("CBS Earnings reports", "")] {
            let a = IncomingAlert::from_email("alerts@yahoo", name, "", "", SimTime::ZERO);
            assert_eq!(&*c.classify(&a).unwrap(), "Investment", "for {name}");
        }
    }

    #[test]
    fn subcategorization_splits_on_off() {
        let c = classifier();
        let on = IncomingAlert::from_im("aladdin-gw", "Basement Water Sensor ON", SimTime::ZERO);
        let off = IncomingAlert::from_im("aladdin-gw", "Basement Water Sensor OFF", SimTime::ZERO);
        assert_eq!(&*c.classify(&on).unwrap(), "Home.Security.Urgent");
        assert_eq!(&*c.classify(&off).unwrap(), "Home.Security.Info");
    }

    #[test]
    fn longest_keyword_wins() {
        let mut c = classifier();
        c.map_keyword("Stocks Options", "Derivatives");
        let a = IncomingAlert::from_email("alerts@yahoo", "Yahoo! Stocks Options", "", "", SimTime::ZERO);
        assert_eq!(&*c.classify(&a).unwrap(), "Derivatives");
    }

    #[test]
    fn keyword_match_is_case_insensitive() {
        let c = classifier();
        let a = IncomingAlert::from_email("alerts@yahoo", "yahoo! STOCKS", "", "", SimTime::ZERO);
        assert_eq!(&*c.classify(&a).unwrap(), "Investment");
    }

    #[test]
    fn unknown_source_rejected() {
        let c = classifier();
        let a = IncomingAlert::from_im("spammer", "buy now", SimTime::ZERO);
        assert_eq!(
            c.classify(&a),
            Err(RejectReason::UnknownSource("spammer".into()))
        );
    }

    #[test]
    fn no_keyword_uses_default_or_rejects() {
        let mut c = classifier();
        let a = IncomingAlert::from_email("alerts@yahoo", "Yahoo! Horoscopes", "", "", SimTime::ZERO);
        assert_eq!(c.classify(&a), Err(RejectReason::NoCategory));
        c.set_default_category("Misc");
        assert_eq!(&*c.classify(&a).unwrap(), "Misc");
    }

    #[test]
    fn services_directory_lists_unsubscribe_info() {
        let c = classifier();
        let dir = c.services();
        assert_eq!(dir.len(), 3);
        let yahoo = dir.iter().find(|s| s.source == "alerts@yahoo").unwrap();
        assert_eq!(yahoo.unsubscribe_info, "visit alerts.yahoo.com");
        assert_eq!(yahoo.field, KeywordField::SenderName);
    }

    #[test]
    fn subcategory_requires_matching_parent_category() {
        let mut c = classifier();
        // Same pattern registered under a different parent must not fire.
        c.add_subcategory("Daily", "Sensor ON", "Daily.Wrong");
        let on = IncomingAlert::from_im("aladdin-gw", "Basement Water Sensor ON", SimTime::ZERO);
        assert_eq!(&*c.classify(&on).unwrap(), "Home.Security.Urgent");
    }
    /// The implementation `classify` replaced, kept as the oracle: it
    /// lowercases the field, the body and every keyword and pattern on
    /// every call.
    fn classify_oracle(c: &Classifier, alert: &IncomingAlert) -> Result<String, RejectReason> {
        let rule = c
            .sources
            .iter()
            .find(|r| *r.source == *alert.source)
            .ok_or_else(|| RejectReason::UnknownSource(alert.source.to_string()))?;
        let field_text = rule.field.extract(alert).to_lowercase();
        let category = c
            .keyword_map
            .iter()
            .filter(|(kw, _)| field_text.contains(&kw.to_lowercase()))
            .max_by_key(|(kw, _)| kw.len())
            .map(|(_, mapped)| mapped.category.to_string())
            .or_else(|| c.default_category.as_deref().map(str::to_string))
            .ok_or(RejectReason::NoCategory)?;
        let body = alert.body.to_lowercase();
        let refined = c
            .subcats
            .iter()
            .filter(|r| r.category == category && body.contains(&r.pattern.to_lowercase()))
            .max_by_key(|r| r.pattern.len())
            .map(|r| r.subcategory.to_string())
            .unwrap_or(category);
        Ok(refined)
    }

    /// Lowercasing keywords when they are mapped, and the text once,
    /// changes no answer — over mixed-case and non-ASCII text, where
    /// lowercasing changes lengths (`İ`), has no single-character form
    /// (`ß`) and depends on position (a final `Σ`).
    #[test]
    fn classify_agrees_with_the_implementation_it_replaced() {
        const WORDS: [&str; 12] = [
            "Sensor", "SENSOR on", "sensor OFF", "İstanbul", "i̇stanbul", "Straße", "STRASSE",
            "ΟΔΟΣ", "οδος", "ΟΔΟΣΑ", "Stocks", "x",
        ];
        let mut rng = simba_sim::SimRng::new(23);
        let mut pick = |n: u64| (0..n).map(|_| WORDS[rng.range(0, 11) as usize]).collect::<Vec<_>>();
        let mut c = Classifier::new();
        c.accept_source("by-sender", KeywordField::SenderName, "");
        c.accept_source("by-subject", KeywordField::Subject, "");
        c.accept_source("by-body", KeywordField::Body, "");
        for (i, keyword) in WORDS.iter().enumerate() {
            c.map_keyword(*keyword, format!("Cat{}", i % 4));
        }
        for i in 0..8 {
            c.add_subcategory(format!("Cat{}", i % 4), pick(2).join(" "), format!("Cat{}.Sub{i}", i % 4));
        }
        let mut refined = 0;
        for round in 0..2_000 {
            if round == 1_000 {
                c.set_default_category("Misc");
            }
            let source = ["by-sender", "by-subject", "by-body", "stranger"][round % 4];
            let alert = IncomingAlert::from_email(
                source,
                pick(2).join(" "),
                pick(2).join("-"),
                pick(4).join(" "),
                SimTime::ZERO,
            );
            let got = c.classify(&alert).map(|category| category.to_string());
            refined += usize::from(got.as_ref().is_ok_and(|category| category.contains(".Sub")));
            assert_eq!(got, classify_oracle(&c, &alert), "{alert:?}");
        }
        assert!(refined > 100, "only {refined} alerts reached a subcategory");
    }
}
