//! XML persistence for the whole subscription layer (§4.1).
//!
//! The paper expresses addresses and delivery modes as XML "to allow
//! extensibility"; a real deployment also has to persist the rest of the
//! registry — users, their modes, and the category subscriptions — so a
//! restarted MyAlertBuddy comes back with its configuration. This module
//! defines that document:
//!
//! ```xml
//! <SimbaRegistry>
//!   <User id="alice">
//!     <Addresses>…</Addresses>
//!     <DeliveryMode name="Urgent">…</DeliveryMode>
//!     <Subscription category="Investment" mode="Urgent" enabled="true"
//!                   windowStartMin="540" windowEndMin="1020"/>
//!   </User>
//! </SimbaRegistry>
//! ```

use crate::address::{AddressBook, AddressBookError};
use crate::mode::{DeliveryMode, ModeError};
use crate::subscription::{SubscriptionRegistry, TimeWindow, UserId};
use simba_xml::{Element, XmlError};

/// Errors loading a registry document.
#[derive(Debug)]
pub enum RegistryXmlError {
    /// The XML failed to parse.
    Xml(XmlError),
    /// Structural problem.
    Structure(String),
    /// An embedded address book was invalid.
    Addresses(AddressBookError),
    /// An embedded delivery mode was invalid.
    Mode(ModeError),
    /// A subscription referenced a missing user or mode.
    Subscription(crate::subscription::SubscriptionError),
}

impl std::fmt::Display for RegistryXmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryXmlError::Xml(e) => write!(f, "xml: {e}"),
            RegistryXmlError::Structure(s) => write!(f, "bad registry structure: {s}"),
            RegistryXmlError::Addresses(e) => write!(f, "addresses: {e}"),
            RegistryXmlError::Mode(e) => write!(f, "delivery mode: {e}"),
            RegistryXmlError::Subscription(e) => write!(f, "subscription: {e}"),
        }
    }
}

impl std::error::Error for RegistryXmlError {}

impl From<XmlError> for RegistryXmlError {
    fn from(e: XmlError) -> Self {
        RegistryXmlError::Xml(e)
    }
}
impl From<AddressBookError> for RegistryXmlError {
    fn from(e: AddressBookError) -> Self {
        RegistryXmlError::Addresses(e)
    }
}
impl From<ModeError> for RegistryXmlError {
    fn from(e: ModeError) -> Self {
        RegistryXmlError::Mode(e)
    }
}
impl From<crate::subscription::SubscriptionError> for RegistryXmlError {
    fn from(e: crate::subscription::SubscriptionError) -> Self {
        RegistryXmlError::Subscription(e)
    }
}

/// Serializes the whole registry (users, address books, modes,
/// subscriptions) to one XML document.
pub fn registry_to_xml(registry: &SubscriptionRegistry) -> String {
    let mut root = Element::new("SimbaRegistry");
    // Collect subscriptions grouped by user for a compact document.
    let mut subs_by_user: std::collections::BTreeMap<&UserId, Vec<(&str, &crate::subscription::Subscription)>> =
        std::collections::BTreeMap::new();
    for category in registry.categories().collect::<Vec<_>>() {
        for sub in registry.subscriptions_in(category) {
            subs_by_user.entry(&sub.user).or_default().push((category, sub));
        }
    }

    for (user, profile) in registry.users() {
        let mut user_el = Element::new("User").with_attr("id", &*user.0);

        // Inline the address book (reparse of its own document shape).
        // simba-analyze: allow(hygiene.unwrap): reparsing our own serializer's output; a failure is a codec bug the roundtrip tests catch
        let book_doc = simba_xml::parse(&profile.address_book.to_xml()).expect("own XML parses");
        user_el = user_el.with_child(book_doc);

        for name in profile.mode_names().collect::<Vec<_>>() {
            let Some(mode) = profile.mode(name) else { continue };
            // simba-analyze: allow(hygiene.unwrap): reparsing our own serializer's output; a failure is a codec bug the roundtrip tests catch
            let mode_doc = simba_xml::parse(&mode.to_xml()).expect("own XML parses");
            user_el = user_el.with_child(mode_doc);
        }

        if let Some(subs) = subs_by_user.get(user) {
            for (category, sub) in subs {
                let mut el = Element::new("Subscription")
                    .with_attr("category", category.to_string())
                    .with_attr("mode", sub.mode_name.clone())
                    .with_attr("enabled", if sub.enabled { "true" } else { "false" });
                if let Some(w) = sub.window {
                    el = el
                        .with_attr("windowStartMin", w.start_min.to_string())
                        .with_attr("windowEndMin", w.end_min.to_string());
                }
                user_el = user_el.with_child(el);
            }
        }
        root = root.with_child(user_el);
    }
    root.to_xml_pretty()
}

/// Loads a registry from the document produced by [`registry_to_xml`].
///
/// # Errors
///
/// Fails on malformed XML, structural problems, invalid embedded
/// documents, or subscriptions referencing unknown users/modes.
pub fn registry_from_xml(xml: &str) -> Result<SubscriptionRegistry, RegistryXmlError> {
    let root = simba_xml::parse(xml)?;
    if root.name != "SimbaRegistry" {
        return Err(RegistryXmlError::Structure(format!(
            "expected <SimbaRegistry> root, found <{}>",
            root.name
        )));
    }
    let mut registry = SubscriptionRegistry::new();
    // First pass: users, books, modes.
    for user_el in root.children_named("User") {
        let id = user_el
            .attr("id")
            .ok_or_else(|| RegistryXmlError::Structure("<User> missing id".into()))?;
        let user = UserId::new(id);
        let profile = registry.register_user(user.clone());
        if let Some(book_el) = user_el.child("Addresses") {
            profile.address_book = AddressBook::from_xml(&book_el.to_xml())?;
        }
        for mode_el in user_el.children_named("DeliveryMode") {
            let mode = DeliveryMode::from_xml(&mode_el.to_xml())?;
            profile.define_mode(mode);
        }
    }
    // Second pass: subscriptions (need users/modes in place).
    for user_el in root.children_named("User") {
        let id = user_el
            .attr("id")
            .ok_or_else(|| RegistryXmlError::Structure("<User> missing id".into()))?;
        let user = UserId::new(id);
        for sub_el in user_el.children_named("Subscription") {
            let category = sub_el
                .attr("category")
                .ok_or_else(|| RegistryXmlError::Structure("<Subscription> missing category".into()))?;
            let mode = sub_el
                .attr("mode")
                .ok_or_else(|| RegistryXmlError::Structure("<Subscription> missing mode".into()))?;
            registry.subscribe(category, user.clone(), mode)?;
            if sub_el.attr("enabled") == Some("false") {
                registry.set_enabled(category, &user, false);
            }
            if let (Some(start), Some(end)) = (sub_el.attr("windowStartMin"), sub_el.attr("windowEndMin")) {
                let start: u32 = start
                    .parse()
                    .map_err(|_| RegistryXmlError::Structure("bad windowStartMin".into()))?;
                let end: u32 = end
                    .parse()
                    .map_err(|_| RegistryXmlError::Structure("bad windowEndMin".into()))?;
                registry.set_window(category, &user, Some(TimeWindow { start_min: start, end_min: end }));
            }
        }
    }
    Ok(registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::{Address, CommType};
    use simba_sim::{SimDuration, SimTime};

    fn registry() -> SubscriptionRegistry {
        let mut r = SubscriptionRegistry::new();
        for (user, im) in [("alice", "im:alice"), ("bob", "im:bob")] {
            let uid = UserId::new(user);
            let p = r.register_user(uid.clone());
            p.address_book.add(Address::new("IM", CommType::Im, im)).expect("fresh book");
            p.address_book
                .add(Address::new("EM", CommType::Email, format!("{user}@work")))
                .expect("fresh book");
            p.define_mode(DeliveryMode::im_then_email("Urgent", "IM", "EM", SimDuration::from_secs(60)));
            p.define_mode(DeliveryMode::im_then_email("Relaxed", "EM", "EM", SimDuration::from_secs(600)));
        }
        r.subscribe("Investment", UserId::new("alice"), "Urgent").expect("valid");
        r.subscribe("Investment", UserId::new("bob"), "Relaxed").expect("valid");
        r.subscribe("Daily", UserId::new("alice"), "Relaxed").expect("valid");
        r.set_enabled("Daily", &UserId::new("alice"), false);
        r.set_window(
            "Investment",
            &UserId::new("alice"),
            Some(TimeWindow { start_min: 540, end_min: 1020 }),
        );
        r
    }

    #[test]
    fn registry_round_trips() {
        let original = registry();
        let xml = registry_to_xml(&original);
        let loaded = registry_from_xml(&xml).expect("own output parses");

        // Structural equality: users, addresses, modes.
        for user in [UserId::new("alice"), UserId::new("bob")] {
            let a = original.user(&user).expect("user in original");
            let b = loaded.user(&user).expect("user restored");
            assert_eq!(a.address_book, b.address_book, "{user}");
            let modes_a: Vec<&str> = a.mode_names().collect();
            let modes_b: Vec<&str> = b.mode_names().collect();
            assert_eq!(modes_a, modes_b);
            for m in modes_a {
                assert_eq!(a.mode(m), b.mode(m));
            }
        }

        // Behavioural equality of the subscriptions: same active sets at
        // representative instants.
        for at in [SimTime::from_hours(10), SimTime::from_hours(20)] {
            for cat in ["Investment", "Daily", "Investment.Sub"] {
                let a: Vec<_> = original
                    .active_subscriptions(cat, at)
                    .into_iter()
                    .map(|s| (s.user.clone(), s.mode_name.clone()))
                    .collect();
                let b: Vec<_> = loaded
                    .active_subscriptions(cat, at)
                    .into_iter()
                    .map(|s| (s.user.clone(), s.mode_name.clone()))
                    .collect();
                assert_eq!(a, b, "category {cat} at {at}");
            }
        }
    }

    #[test]
    fn double_serialization_is_stable() {
        let original = registry();
        let once = registry_to_xml(&original);
        let twice = registry_to_xml(&registry_from_xml(&once).expect("parses"));
        assert_eq!(once, twice);
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(matches!(registry_from_xml("<Wrong/>"), Err(RegistryXmlError::Structure(_))));
        assert!(matches!(registry_from_xml("not xml"), Err(RegistryXmlError::Xml(_))));
        // Subscription referencing an undefined mode.
        let xml = r#"<SimbaRegistry>
            <User id="alice">
              <Addresses><Address name="IM" type="IM" value="im:a"/></Addresses>
              <Subscription category="X" mode="NoSuch"/>
            </User>
          </SimbaRegistry>"#;
        assert!(matches!(registry_from_xml(xml), Err(RegistryXmlError::Subscription(_))));
        // User element without id.
        assert!(matches!(
            registry_from_xml("<SimbaRegistry><User/></SimbaRegistry>"),
            Err(RegistryXmlError::Structure(_))
        ));
    }

    #[test]
    fn empty_registry_round_trips() {
        let xml = registry_to_xml(&SubscriptionRegistry::new());
        let loaded = registry_from_xml(&xml).expect("parses");
        assert_eq!(loaded.categories().count(), 0);
    }
}
