//! The one `--flag` parser every subcommand declares its flags to.

use crate::Outcome;
use std::str::FromStr;

/// What a declared flag takes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    /// `--flag <text>`.
    Value,
    /// `--flag <n>`: a non-negative integer.
    Number,
    /// `--flag <one of these>`.
    Choice(&'static [&'static str]),
    /// `--flag` alone: present or not.
    Switch,
}

/// The flags of one command line, in the order given. A flag given more
/// than once keeps every occurrence: [`Flags::all`] reads them in order,
/// the other accessors the last one.
#[derive(Debug)]
pub(crate) struct Flags {
    given: Vec<(&'static str, String)>,
}

impl Flags {
    /// Parses `args` against `declared`. An undeclared flag, a flag
    /// missing its value, a number that does not parse and a choice
    /// outside its set are usage errors naming the flag.
    pub(crate) fn parse(args: &[String], declared: &[(&'static str, Kind)]) -> Result<Flags, Outcome> {
        let mut given = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(&(name, kind)) = declared.iter().find(|(name, _)| name == arg) else {
                return Err(Outcome::usage(&format!("unknown flag {arg:?}")));
            };
            if let Kind::Switch = kind {
                given.push((name, String::new()));
                continue;
            }
            let Some(value) = it.next() else {
                return Err(Outcome::usage(&format!("{name} needs a value")));
            };
            match kind {
                Kind::Number if value.parse::<u64>().is_err() => {
                    return Err(Outcome::usage(&format!("{name} needs a number, not {value:?}")));
                }
                Kind::Choice(choices) if !choices.contains(&value.as_str()) => {
                    let choices = choices.join("|");
                    return Err(Outcome::usage(&format!("{name} is {choices}, not {value:?}")));
                }
                _ => given.push((name, value.clone())),
            }
        }
        Ok(Flags { given })
    }

    /// The last value given for `name`.
    pub(crate) fn value(&self, name: &str) -> Option<&str> {
        self.given.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Every value given for `name`, in order.
    pub(crate) fn all(&self, name: &str) -> Vec<&str> {
        self.given.iter().filter(|(n, _)| *n == name).map(|(_, v)| v.as_str()).collect()
    }

    /// Whether `name` was given (for a [`Kind::Switch`]).
    pub(crate) fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The last value given for `name`; a usage error when absent.
    pub(crate) fn required(&self, name: &str) -> Result<&str, Outcome> {
        self.value(name).ok_or_else(|| Outcome::usage(&format!("{name} is required")))
    }

    /// The last number given for `name`; a usage error when it does not
    /// fit `T`.
    pub(crate) fn number<T: FromStr>(&self, name: &str) -> Result<Option<T>, Outcome> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| Outcome::usage(&format!("{name} is out of range: {v}"))))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::strings;

    const DECLARED: &[(&str, Kind)] = &[
        ("--addr", Kind::Value),
        ("--count", Kind::Number),
        ("--channel", Kind::Choice(&["im", "email"])),
        ("--json", Kind::Switch),
        ("--fail", Kind::Value),
    ];

    fn parse(args: &[&str]) -> Result<Flags, Outcome> {
        Flags::parse(&strings(args), DECLARED)
    }

    fn usage_error(args: &[&str]) -> String {
        let out = parse(args).unwrap_err();
        assert_eq!(out.code, 2, "{}", out.output);
        out.output
    }

    #[test]
    fn an_unknown_flag_is_a_usage_error_naming_it() {
        assert!(usage_error(&["--bogus", "x"]).contains("\"--bogus\""));
        assert!(usage_error(&["stray"]).contains("\"stray\""));
    }

    #[test]
    fn a_missing_value_is_a_usage_error_naming_the_flag() {
        assert!(usage_error(&["--addr"]).contains("--addr needs a value"));
        assert!(usage_error(&["--json", "--count"]).contains("--count needs a value"));
    }

    #[test]
    fn a_non_numeric_value_is_a_usage_error_naming_the_flag() {
        assert!(usage_error(&["--count", "NaN"]).contains("--count needs a number"));
        assert!(usage_error(&["--count", "-1"]).contains("--count"));
        let flags = parse(&["--count", "300"]).unwrap();
        assert_eq!(flags.number::<u64>("--count").unwrap(), Some(300));
        assert_eq!(flags.number::<u8>("--count").unwrap_err().code, 2, "300 does not fit a u8");
        assert_eq!(parse(&[]).unwrap().number::<u32>("--count").unwrap(), None);
    }

    #[test]
    fn a_boolean_flag_takes_no_value() {
        let flags = parse(&["--json", "--addr", "a"]).unwrap();
        assert!(flags.has("--json"));
        assert_eq!(flags.value("--addr"), Some("a"));
        assert!(!parse(&["--addr", "a"]).unwrap().has("--json"));
    }

    #[test]
    fn a_repeated_flag_keeps_every_value_in_order() {
        let flags = parse(&["--fail", "IM", "--addr", "a", "--fail", "SMS"]).unwrap();
        assert_eq!(flags.all("--fail"), ["IM", "SMS"]);
        assert_eq!(flags.value("--fail"), Some("SMS"));
        assert!(flags.all("--addr").len() == 1 && flags.all("--count").is_empty());
    }

    #[test]
    fn a_choice_outside_its_set_is_a_usage_error_naming_the_flag() {
        let out = usage_error(&["--channel", "sms"]);
        assert!(out.contains("--channel is im|email"), "{out}");
        assert_eq!(parse(&["--channel", "email"]).unwrap().value("--channel"), Some("email"));
    }

    #[test]
    fn a_required_flag_names_itself_when_absent() {
        let out = parse(&[]).unwrap().required("--addr").unwrap_err();
        assert_eq!(out.code, 2);
        assert!(out.output.contains("--addr is required"), "{}", out.output);
    }
}
