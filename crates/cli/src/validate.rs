//! `validate addresses|mode|registry <file>`: check the §4.1 XML
//! documents before installing them.

use crate::{read_file, Done, Outcome};
use simba_core::address::AddressBook;
use simba_core::mode::DeliveryMode;

/// `validate addresses|mode|registry <file>`.
pub(crate) fn validate(args: &[String]) -> Done {
    let [kind, path] = args else {
        return Err(Outcome::usage("validate takes a document kind and a file"));
    };
    let content = read_file(path)?;
    match kind.as_str() {
        "addresses" => match AddressBook::from_xml(&content) {
            Ok(book) => Ok(Outcome::ok(format!(
                "OK: {} addresses ({} enabled)\n",
                book.len(),
                book.enabled().count()
            ))),
            Err(e) => Err(Outcome::error(format!("INVALID address book: {e}\n"))),
        },
        "mode" => match DeliveryMode::from_xml(&content) {
            Ok(mode) => Ok(Outcome::ok(format!(
                "OK: delivery mode {:?} with {} block(s)\n",
                mode.name,
                mode.len()
            ))),
            Err(e) => Err(Outcome::error(format!("INVALID delivery mode: {e}\n"))),
        },
        "registry" => match simba_core::registry_from_xml(&content) {
            Ok(reg) => Ok(Outcome::ok(format!(
                "OK: {} user(s), {} categor(ies)\n",
                reg.users().count(),
                reg.categories().count()
            ))),
            Err(e) => Err(Outcome::error(format!("INVALID registry: {e}\n"))),
        },
        other => Err(Outcome::usage(&format!("unknown document kind {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{strings, tmp};

    fn validate(args: &[String]) -> Outcome {
        super::validate(args).unwrap_or_else(|early| early)
    }

    #[test]
    fn validate_good_and_bad_documents() {
        let good = tmp(
            "good-book.xml",
            r#"<Addresses><Address name="IM" type="IM" value="im:a"/></Addresses>"#,
        );
        let out = validate(&strings(&["addresses", &good]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("OK: 1 addresses"));

        let bad = tmp("bad-book.xml", "<Addresses><Address/></Addresses>");
        let out = validate(&strings(&["addresses", &bad]));
        assert_eq!(out.code, 1);
        assert!(out.output.contains("INVALID"));

        let mode = tmp(
            "mode.xml",
            r#"<DeliveryMode name="M"><Block><Action address="IM"/></Block></DeliveryMode>"#,
        );
        assert_eq!(validate(&strings(&["mode", &mode])).code, 0);
        assert_eq!(validate(&strings(&["registry", &mode])).code, 1);
        assert_eq!(validate(&strings(&["nonsense", &mode])).code, 2);
        assert_eq!(validate(&strings(&["addresses", "/no/such/file"])).code, 1);
    }
}
