//! User addresses and the per-user address book.
//!
//! "An XML document for user addresses consists of a list of all of a
//! user's addresses for alert delivery. Each address is associated with a
//! communication type (e.g., 'IM', 'SMS', and 'EM') and identified by a
//! friendly name such as 'MSN IM', 'Work email'" (§4.1). Addresses can be
//! enabled/disabled at runtime — disabling the SMS address when the phone
//! dies is the §3.3 scenario that makes delivery-mode fallback automatic.

use simba_xml::{Element, XmlError};
use std::sync::Arc;

/// The communication type of an address — the paper's `"IM"`, `"SMS"`,
/// `"EM"` vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CommType {
    /// Instant messaging: synchronous, acknowledgeable.
    Im,
    /// Cell-phone short messages: fire-and-forget, coverage-dependent.
    Sms,
    /// Email: store-and-forward fallback.
    Email,
}

impl CommType {
    /// The XML token for this type.
    pub fn as_token(self) -> &'static str {
        match self {
            CommType::Im => "IM",
            CommType::Sms => "SMS",
            CommType::Email => "EM",
        }
    }

    /// Parses the XML token.
    pub fn from_token(s: &str) -> Option<Self> {
        match s {
            "IM" => Some(CommType::Im),
            "SMS" => Some(CommType::Sms),
            "EM" => Some(CommType::Email),
            _ => None,
        }
    }

    /// Whether the channel supports end-to-end acknowledgements (§3.1:
    /// only IM does).
    pub fn supports_ack(self) -> bool {
        matches!(self, CommType::Im)
    }
}

impl std::fmt::Display for CommType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_token())
    }
}

/// One delivery address in a user's address book.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Address {
    /// Friendly name, the key actions in delivery modes refer to. Shared
    /// with every attempt record and send command that names it.
    pub friendly_name: Arc<str>,
    /// Channel type.
    pub comm_type: CommType,
    /// Channel-specific value: IM handle, phone number, or email address.
    /// Shared with every send command and ledger record addressed to it.
    pub value: Arc<str>,
    /// Whether the address is currently enabled.
    pub enabled: bool,
}

impl Address {
    /// Creates an enabled address.
    pub fn new(
        friendly_name: impl Into<Arc<str>>,
        comm_type: CommType,
        value: impl Into<Arc<str>>,
    ) -> Self {
        Address {
            friendly_name: friendly_name.into(),
            comm_type,
            value: value.into(),
            enabled: true,
        }
    }
}

/// Errors turning XML into an address book.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddressBookError {
    /// The XML failed to parse.
    Xml(XmlError),
    /// The document structure was wrong (missing element/attribute).
    Structure(String),
    /// Two addresses share a friendly name.
    DuplicateName(String),
    /// An unknown communication type token.
    UnknownCommType(String),
}

impl std::fmt::Display for AddressBookError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AddressBookError::Xml(e) => write!(f, "xml: {e}"),
            AddressBookError::Structure(s) => write!(f, "bad address book structure: {s}"),
            AddressBookError::DuplicateName(n) => write!(f, "duplicate address name {n:?}"),
            AddressBookError::UnknownCommType(t) => write!(f, "unknown communication type {t:?}"),
        }
    }
}

impl std::error::Error for AddressBookError {}

impl From<XmlError> for AddressBookError {
    fn from(e: XmlError) -> Self {
        AddressBookError::Xml(e)
    }
}

/// A user's address book: friendly-named, typed, enable/disable-able
/// addresses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AddressBook {
    addresses: Vec<Address>,
}

impl AddressBook {
    /// An empty book.
    pub fn new() -> Self {
        AddressBook::default()
    }

    /// Adds an address.
    ///
    /// # Errors
    ///
    /// Fails if the friendly name is already taken.
    pub fn add(&mut self, address: Address) -> Result<(), AddressBookError> {
        if self.get(&address.friendly_name).is_some() {
            return Err(AddressBookError::DuplicateName(address.friendly_name.to_string()));
        }
        self.addresses.push(address);
        Ok(())
    }

    /// Looks an address up by friendly name.
    pub fn get(&self, friendly_name: &str) -> Option<&Address> {
        self.addresses
            .iter()
            .find(|a| &*a.friendly_name == friendly_name)
    }

    /// Enables or disables an address. Returns `false` if unknown.
    ///
    /// This is the §3.3 one-stop switch: "she only needs to ask
    /// MyAlertBuddy to temporarily disable her SMS address. Any delivery
    /// block that contains an SMS action will automatically fail and fall
    /// back to the next backup block."
    pub fn set_enabled(&mut self, friendly_name: &str, enabled: bool) -> bool {
        match self
            .addresses
            .iter_mut()
            .find(|a| &*a.friendly_name == friendly_name)
        {
            Some(a) => {
                a.enabled = enabled;
                true
            }
            None => false,
        }
    }

    /// Enables or disables every address of a communication type.
    /// Returns how many were changed.
    pub fn set_type_enabled(&mut self, comm_type: CommType, enabled: bool) -> usize {
        let mut n = 0;
        for a in &mut self.addresses {
            if a.comm_type == comm_type && a.enabled != enabled {
                a.enabled = enabled;
                n += 1;
            }
        }
        n
    }

    /// All addresses in insertion order.
    pub fn addresses(&self) -> &[Address] {
        &self.addresses
    }

    /// All currently enabled addresses.
    pub fn enabled(&self) -> impl Iterator<Item = &Address> {
        self.addresses.iter().filter(|a| a.enabled)
    }

    /// Number of addresses.
    pub fn len(&self) -> usize {
        self.addresses.len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.addresses.is_empty()
    }

    /// Serializes to the §4.1 XML document shape.
    ///
    /// ```xml
    /// <Addresses>
    ///   <Address name="MSN IM" type="IM" value="im:alice" enabled="true"/>
    ///   ...
    /// </Addresses>
    /// ```
    pub fn to_xml(&self) -> String {
        let mut root = Element::new("Addresses");
        for a in &self.addresses {
            root = root.with_child(
                Element::new("Address")
                    .with_attr("name", &*a.friendly_name)
                    .with_attr("type", a.comm_type.as_token())
                    .with_attr("value", &*a.value)
                    .with_attr("enabled", if a.enabled { "true" } else { "false" }),
            );
        }
        root.to_xml_pretty()
    }

    /// Parses the §4.1 XML document shape.
    ///
    /// # Errors
    ///
    /// Fails on malformed XML, a wrong root element, missing attributes,
    /// unknown communication types, or duplicate friendly names.
    pub fn from_xml(xml: &str) -> Result<Self, AddressBookError> {
        let root = simba_xml::parse(xml)?;
        if root.name != "Addresses" {
            return Err(AddressBookError::Structure(format!(
                "expected <Addresses> root, found <{}>",
                root.name
            )));
        }
        let mut book = AddressBook::new();
        for el in root.children_named("Address") {
            let name = el
                .attr("name")
                .ok_or_else(|| AddressBookError::Structure("<Address> missing name".into()))?;
            let ty = el
                .attr("type")
                .ok_or_else(|| AddressBookError::Structure("<Address> missing type".into()))?;
            let value = el
                .attr("value")
                .ok_or_else(|| AddressBookError::Structure("<Address> missing value".into()))?;
            let comm_type = CommType::from_token(ty)
                .ok_or_else(|| AddressBookError::UnknownCommType(ty.to_string()))?;
            let enabled = el.attr("enabled").is_none_or(|v| v == "true");
            book.add(Address {
                friendly_name: name.into(),
                comm_type,
                value: value.into(),
                enabled,
            })?;
        }
        Ok(book)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AddressBook {
        let mut book = AddressBook::new();
        book.add(Address::new("MSN IM", CommType::Im, "im:alice")).unwrap();
        book.add(Address::new("Cell SMS", CommType::Sms, "+1-555-0100")).unwrap();
        book.add(Address::new("Work email", CommType::Email, "alice@work")).unwrap();
        book
    }

    #[test]
    fn comm_type_tokens_round_trip() {
        for t in [CommType::Im, CommType::Sms, CommType::Email] {
            assert_eq!(CommType::from_token(t.as_token()), Some(t));
        }
        assert_eq!(CommType::from_token("FAX"), None);
        assert!(CommType::Im.supports_ack());
        assert!(!CommType::Sms.supports_ack());
        assert!(!CommType::Email.supports_ack());
    }

    #[test]
    fn duplicate_friendly_names_rejected() {
        let mut book = sample();
        let err = book
            .add(Address::new("MSN IM", CommType::Im, "im:other"))
            .unwrap_err();
        assert_eq!(err, AddressBookError::DuplicateName("MSN IM".into()));
    }

    #[test]
    fn enable_disable_by_name() {
        let mut book = sample();
        assert!(book.get("Cell SMS").unwrap().enabled);
        assert!(book.set_enabled("Cell SMS", false));
        assert!(!book.get("Cell SMS").unwrap().enabled);
        assert_eq!(book.enabled().count(), 2);
        assert!(!book.set_enabled("No Such", false));
    }

    #[test]
    fn disable_whole_type() {
        let mut book = sample();
        book.add(Address::new("Home SMS", CommType::Sms, "+1-555-0101")).unwrap();
        assert_eq!(book.set_type_enabled(CommType::Sms, false), 2);
        assert_eq!(book.set_type_enabled(CommType::Sms, false), 0); // already off
        assert!(book.get("MSN IM").unwrap().enabled);
    }

    #[test]
    fn xml_round_trip() {
        let mut book = sample();
        book.set_enabled("Cell SMS", false);
        let xml = book.to_xml();
        let parsed = AddressBook::from_xml(&xml).unwrap();
        assert_eq!(parsed, book);
    }

    #[test]
    fn xml_default_enabled_is_true() {
        let book = AddressBook::from_xml(
            r#"<Addresses><Address name="A" type="IM" value="im:a"/></Addresses>"#,
        )
        .unwrap();
        assert!(book.get("A").unwrap().enabled);
    }

    #[test]
    fn xml_structure_errors() {
        assert!(matches!(
            AddressBook::from_xml("<Wrong/>"),
            Err(AddressBookError::Structure(_))
        ));
        assert!(matches!(
            AddressBook::from_xml(r#"<Addresses><Address type="IM" value="x"/></Addresses>"#),
            Err(AddressBookError::Structure(_))
        ));
        assert!(matches!(
            AddressBook::from_xml(
                r#"<Addresses><Address name="A" type="FAX" value="x"/></Addresses>"#
            ),
            Err(AddressBookError::UnknownCommType(_))
        ));
        assert!(matches!(
            AddressBook::from_xml("not xml"),
            Err(AddressBookError::Xml(_))
        ));
    }

    #[test]
    fn xml_duplicate_names_rejected() {
        let xml = r#"<Addresses>
            <Address name="A" type="IM" value="x"/>
            <Address name="A" type="EM" value="y"/>
        </Addresses>"#;
        assert!(matches!(
            AddressBook::from_xml(xml),
            Err(AddressBookError::DuplicateName(_))
        ));
    }

    #[test]
    fn xml_values_with_special_chars_survive() {
        let mut book = AddressBook::new();
        book.add(Address::new("Odd & Name", CommType::Email, "a<b>@work\"quoted\"")).unwrap();
        let parsed = AddressBook::from_xml(&book.to_xml()).unwrap();
        assert_eq!(parsed, book);
    }
}
