//! The buddy configuration every gateway integration test hosts.

use simba_core::subscription::UserId;
use simba_runtime::ConfigFactory;
use std::sync::Arc;

/// Accepts `gw-src` and `slow-src`, files "Sensor" alerts under Home,
/// and delivers Home by IM, then email after a minute without an ack.
fn user_config(name: &str) -> simba_core::MabConfig {
    use simba_core::address::{Address, AddressBook, CommType};
    use simba_core::classify::{Classifier, KeywordField};
    use simba_core::mode::DeliveryMode;
    use simba_core::rejuvenate::RejuvenationPolicy;
    use simba_core::subscription::SubscriptionRegistry;

    let mut classifier = Classifier::new();
    classifier.accept_source("gw-src", KeywordField::Body, "cfg");
    classifier.accept_source("slow-src", KeywordField::Body, "cfg");
    classifier.map_keyword("Sensor", "Home");
    let mut registry = SubscriptionRegistry::new();
    let user = UserId::new(name);
    let profile = registry.register_user(user.clone());
    let mut book = AddressBook::new();
    book.add(Address::new("IM", CommType::Im, format!("im:{name}"))).unwrap();
    book.add(Address::new("EM", CommType::Email, format!("{name}@mail"))).unwrap();
    profile.address_book = book;
    profile.define_mode(DeliveryMode::im_then_email(
        "Urgent",
        "IM",
        "EM",
        simba_sim::SimDuration::from_secs(60),
    ));
    registry.subscribe("Home", user, "Urgent").unwrap();
    simba_core::MabConfig { classifier, registry, rejuvenation: RejuvenationPolicy::default() }
}

/// Every user gets [`user_config`].
pub fn factory() -> ConfigFactory {
    Arc::new(|user: &UserId| user_config(&user.0))
}
