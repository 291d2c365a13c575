//! `wal inspect <dir>`: print a shard log's unprocessed records per user,
//! tolerating a torn tail as a restarting host would.

use crate::{Done, Outcome};
use simba_core::shardlog::{ShardLog, ShardLogConfig};
use std::fmt::Write as _;

/// `wal inspect <dir>`: the unprocessed records of one shard log.
pub(crate) fn wal(args: &[String]) -> Done {
    let [action, dir] = args else {
        return Err(Outcome::usage("wal takes an action and a shard-log directory"));
    };
    if action != "inspect" {
        return Err(Outcome::usage(&format!("unknown wal action {action:?}")));
    }
    // Opening would create the directory; inspecting must not.
    if !std::path::Path::new(dir).is_dir() {
        return Err(Outcome::error(format!("cannot open log: {dir} is not a directory\n")));
    }
    let log = ShardLog::open(ShardLogConfig::on_disk(dir))
        .map_err(|e| Outcome::error(format!("cannot open log: {e}\n")))?;
    let mut users = log.users_with_unprocessed();
    users.sort();
    let mut out = format!(
        "{dir}: {} unprocessed record(s) for {} user(s)\n",
        log.unprocessed_len(),
        users.len()
    );
    for user in users {
        let _ = writeln!(out, "  {user}:");
        for r in log.unprocessed_for(&user) {
            let _ = writeln!(
                out,
                "    #{} received {} from {:?}: {}",
                r.id,
                r.received_at,
                r.alert.source,
                summary_line(&r.alert.body)
            );
        }
    }
    Ok(Outcome::ok(out))
}

fn summary_line(body: &str) -> String {
    let one_line: String = body.chars().map(|c| if c == '\n' { ' ' } else { c }).collect();
    if one_line.chars().count() > 60 {
        let prefix: String = one_line.chars().take(57).collect();
        format!("{prefix}...")
    } else {
        one_line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::strings;
    use simba_sim::SimTime;

    fn wal(args: &[String]) -> Outcome {
        super::wal(args).unwrap_or_else(|early| early)
    }

    #[test]
    fn wal_inspect_round_trip() {
        use simba_core::alert::IncomingAlert;
        use simba_core::subscription::UserId;
        let dir = std::env::temp_dir().join(format!("simba-cli-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let inspect = || wal(&strings(&["inspect", dir.to_string_lossy().as_ref()]));
        let missing = inspect();
        assert_eq!(missing.code, 1, "{}", missing.output);
        assert!(!dir.exists(), "inspect must not create what it was asked to read");

        let (ada, bob) = (UserId::new("ada"), UserId::new("bob"));
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&dir)).unwrap();
        let on = IncomingAlert::from_im("aladdin-gw", "Sensor ON", SimTime::from_secs(9));
        let id = log.append(&ada, &on, SimTime::from_secs(10)).unwrap();
        let off = IncomingAlert::from_im("aladdin-gw", "Sensor OFF", SimTime::from_secs(19));
        log.append(&ada, &off, SimTime::from_secs(20)).unwrap();
        let door = IncomingAlert::from_im("aladdin-gw", "Door open", SimTime::from_secs(29));
        log.append(&bob, &door, SimTime::from_secs(30)).unwrap();
        log.mark_processed(&ada, id).unwrap();
        log.commit().unwrap();
        drop(log);

        let out = inspect();
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("2 unprocessed record(s) for 2 user(s)"), "{}", out.output);
        let (ada_at, bob_at) = (out.output.find("  ada:\n").unwrap(), out.output.find("  bob:\n").unwrap());
        assert!(ada_at < out.output.find("Sensor OFF").unwrap());
        assert!(bob_at < out.output.find("Door open").unwrap());
        assert!(!out.output.contains("Sensor ON\n")); // processed: not listed
        std::fs::remove_dir_all(&dir).unwrap();

        assert_eq!(wal(&strings(&["inspect"])).code, 2);
        assert_eq!(wal(&strings(&["scrub", "x"])).code, 2);
    }

    #[test]
    fn summary_line_truncates() {
        assert_eq!(summary_line("short"), "short");
        assert_eq!(summary_line("a\nb"), "a b");
        let long = "x".repeat(100);
        let s = summary_line(&long);
        assert_eq!(s.chars().count(), 60);
        assert!(s.ends_with("..."));
    }
}
