//! The conservation check: every admitted alert ends as exactly one of
//! delivered, folded into a delivered digest, or suppressed by a rule.
//!
//! Violations are counted and listed by id, never asserted: the run's
//! `failed` is their total, so a pipeline that starts losing alerts
//! shows up as a number that moved.

use crate::workload::Kind;

/// What became of one frame the loadgen wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fate {
    pub id: u64,
    pub kind: Kind,
    pub reply: Reply,
    /// Individual channel sends that carried this id.
    pub sends: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    Ack,
    Nack,
    /// No reply was read before the phase's settle time ran out.
    None,
}

#[derive(Debug, Default, PartialEq, Eq)]
pub struct Violations {
    /// Refused at the gateway, or never answered.
    pub refused: Vec<u64>,
    /// Acked, owed an individual delivery, never at the sink.
    pub lost: Vec<u64>,
    /// At the sink more than once: a double-visible send.
    pub doubled: Vec<u64>,
    /// Chatty alerts that reached the sink although a rule suppresses them.
    pub leaked: Vec<u64>,
    /// |acked flap alerts − (alerts the digests claim + flaps sent alone)|.
    pub digest_mismatch: u64,
}

impl Violations {
    pub fn total(&self) -> u64 {
        (self.refused.len() + self.lost.len() + self.doubled.len() + self.leaked.len()) as u64
            + self.digest_mismatch
    }
}

/// Checks a whole run's transcript. `digest_counts` is the count parsed
/// from each digest send.
pub fn check(fates: impl IntoIterator<Item = Fate>, digest_counts: &[u64]) -> Violations {
    let mut v = Violations::default();
    let (mut flaps_acked, mut flaps_alone) = (0u64, 0u64);
    for fate in fates {
        if fate.reply != Reply::Ack {
            v.refused.push(fate.id);
        }
        if fate.sends > 1 {
            v.doubled.push(fate.id);
        }
        match fate.kind {
            Kind::Normal | Kind::Panic => {
                if fate.reply == Reply::Ack && fate.sends == 0 {
                    v.lost.push(fate.id);
                }
            }
            Kind::Flap => {
                flaps_acked += u64::from(fate.reply == Reply::Ack);
                flaps_alone += u64::from(fate.sends.min(1));
            }
            Kind::Chatty => {
                if fate.sends > 0 {
                    v.leaked.push(fate.id);
                }
            }
        }
    }
    let folded: u64 = digest_counts.iter().sum();
    v.digest_mismatch = flaps_acked.abs_diff(folded + flaps_alone);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm_group(base: u64) -> Vec<Fate> {
        (0..10)
            .map(|i| {
                let kind = match i {
                    4 => Kind::Chatty,
                    9 => Kind::Normal,
                    _ => Kind::Flap,
                };
                let sends = u32::from(kind == Kind::Normal);
                Fate {
                    id: base + i,
                    kind,
                    reply: Reply::Ack,
                    sends,
                }
            })
            .collect()
    }

    #[test]
    fn a_clean_transcript_has_no_violations() {
        let fates: Vec<Fate> = (0..3).flat_map(|g| storm_group(g * 10)).collect();
        assert_eq!(check(fates, &[20, 4]), Violations::default());
    }

    #[test]
    fn one_loss_one_duplicate_and_one_short_digest_are_each_caught() {
        let mut fates: Vec<Fate> = (0..3).flat_map(|g| storm_group(g * 10)).collect();
        fates[9].sends = 0; // the first group's normal alert never arrives
        fates[19].sends = 2; // the second group's arrives twice
        let v = check(fates, &[20, 3]); // and a digest owns up to one alert too few
        assert_eq!(v.lost, [9]);
        assert_eq!(v.doubled, [19]);
        assert_eq!(v.digest_mismatch, 1);
        assert_eq!(v.total(), 3);
    }

    #[test]
    fn refusals_leaks_and_unanswered_frames_count_too() {
        let mut fates = storm_group(0);
        fates[0].reply = Reply::Nack; // a refused flap is owed no digest slot
        fates[1].reply = Reply::None;
        fates[4].sends = 1; // the suppressed alert got through
        fates[2].sends = 1; // a flap delivered alone is conserved, not lost
        let v = check(fates, &[5]);
        assert_eq!(v.refused, [0, 1]);
        assert_eq!(v.leaked, [4]);
        assert_eq!(v.digest_mismatch, 0);
        assert!(v.lost.is_empty() && v.doubled.is_empty());
    }

    #[test]
    fn an_acked_panic_alert_is_owed_its_own_delivery() {
        let fate = Fate {
            id: 1,
            kind: Kind::Panic,
            reply: Reply::Ack,
            sends: 0,
        };
        assert_eq!(check([fate], &[]).lost, [1]);
    }
}
