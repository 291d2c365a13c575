//! Property tests for classification and subscription matching
//! (DESIGN.md §6 "classifier totality"): every accepted alert maps to
//! exactly one category (or the default); unaccepted sources are always
//! rejected; hierarchical subscription matching never double-delivers to
//! one user.

use proptest::prelude::*;
use simba::core::alert::IncomingAlert;
use simba::core::classify::{Classifier, KeywordField, RejectReason};
use simba::core::mode::DeliveryMode;
use simba::core::subscription::{SubscriptionRegistry, UserId};
use simba::sim::{SimDuration, SimTime};

const SOURCES: [&str; 3] = ["src-a", "src-b", "src-c"];
const KEYWORDS: [(&str, &str); 4] = [
    ("stocks", "Investment"),
    ("weather", "Daily"),
    ("sensor", "Home"),
    ("stocks options", "Derivatives"), // longer keyword containing "stocks"
];

fn classifier(with_default: bool) -> Classifier {
    let mut c = Classifier::new();
    c.accept_source(SOURCES[0], KeywordField::SenderName, "u");
    c.accept_source(SOURCES[1], KeywordField::Subject, "u");
    c.accept_source(SOURCES[2], KeywordField::Body, "u");
    for (kw, cat) in KEYWORDS {
        c.map_keyword(kw, cat);
    }
    if with_default {
        c.set_default_category("Misc");
    }
    c
}

fn arb_text() -> impl Strategy<Value = String> {
    // Text that may or may not contain keywords, in arbitrary casing.
    prop_oneof![
        "[a-zA-Z ]{0,30}",
        "[a-zA-Z ]{0,10}(stocks|WEATHER|Sensor|STOCKS OPTIONS)[a-zA-Z ]{0,10}",
    ]
}

proptest! {
    #[test]
    fn accepted_sources_with_default_always_classify(
        source_idx in 0usize..3,
        sender in arb_text(),
        subject in arb_text(),
        body in arb_text(),
    ) {
        let c = classifier(true);
        let mut alert = IncomingAlert::from_email(SOURCES[source_idx], sender, subject, body, SimTime::ZERO);
        alert.urgency = simba::core::alert::Urgency::Normal;
        let category = c.classify(&alert).expect("default makes classification total");
        let known: Vec<&str> = KEYWORDS.iter().map(|(_, c)| *c).chain(["Misc"]).collect();
        prop_assert!(known.contains(&&*category), "unexpected category {category}");
    }

    #[test]
    fn unknown_sources_always_rejected(
        source in "[a-z]{1,10}",
        body in arb_text(),
    ) {
        prop_assume!(!SOURCES.contains(&source.as_str()));
        let c = classifier(true);
        let alert = IncomingAlert::from_im(source.clone(), body, SimTime::ZERO);
        prop_assert_eq!(
            c.classify(&alert),
            Err(RejectReason::UnknownSource(source))
        );
    }

    #[test]
    fn classification_reads_only_the_configured_field(
        sender in arb_text(),
        subject in arb_text(),
        body in arb_text(),
    ) {
        // src-a reads SenderName: planting a keyword in subject/body must
        // not change the outcome for it.
        let c = classifier(true);
        let base = IncomingAlert::from_email(SOURCES[0], sender.clone(), subject, body, SimTime::ZERO);
        let altered = IncomingAlert::from_email(
            SOURCES[0],
            sender,
            "stocks stocks stocks",
            "weather weather",
            SimTime::ZERO,
        );
        prop_assert_eq!(c.classify(&base), c.classify(&altered));
    }

    #[test]
    fn longer_keyword_always_beats_its_prefix(pad in "[a-z ]{0,10}") {
        let c = classifier(false);
        let alert = IncomingAlert::from_email(
            SOURCES[0],
            format!("{pad} STOCKS OPTIONS {pad}"),
            "",
            "",
            SimTime::ZERO,
        );
        prop_assert_eq!(&*c.classify(&alert).expect("keyword present"), "Derivatives");
    }

    #[test]
    fn hierarchical_matching_delivers_at_most_once_per_user(
        depth in 1usize..5,
        subscribe_levels in proptest::collection::btree_set(0usize..5, 1..5),
    ) {
        // Category "a.b.c..." with subscriptions at several prefix levels:
        // a user must match exactly once (the most specific level).
        let mut registry = SubscriptionRegistry::new();
        let user = UserId::new("u");
        let profile = registry.register_user(user.clone());
        profile
            .address_book
            .add(simba::core::address::Address::new("IM", simba::core::address::CommType::Im, "im:u"))
            .expect("fresh");
        profile.define_mode(DeliveryMode::im_then_email("M", "IM", "IM", SimDuration::from_secs(9)));

        let segments: Vec<String> = (0..=depth).map(|i| format!("l{i}")).collect();
        let full = segments.join(".");
        let mut subscribed_any = false;
        for level in &subscribe_levels {
            if *level <= depth {
                let prefix = segments[..=*level].join(".");
                registry.subscribe(prefix, user.clone(), "M").expect("valid");
                subscribed_any = true;
            }
        }
        let matched = registry.active_subscriptions(&full, SimTime::ZERO);
        if subscribed_any {
            prop_assert_eq!(matched.len(), 1, "category {}", full);
        } else {
            prop_assert!(matched.is_empty());
        }
    }
}
