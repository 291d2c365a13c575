//! One module per experiment; each reproduces one measured claim from the
//! paper's §5 (E1–E5), checks one layer of the reproduction under load
//! (E3H, E6–E10) or ablates one design choice (A1–A6). See `DESIGN.md` §5
//! for the index and `EXPERIMENTS.md` for recorded results.

pub mod a1_strategies;
pub mod a2_wal;
pub mod a3_watchdog;
pub mod a4_rejuvenation;
pub mod a5_dialogs;
pub mod a6_sanity;
pub mod e1_im_latency;
pub mod e2_proxy;
pub mod e3_aladdin;
pub mod e3_host_soak;
pub mod e4_wish;
pub mod e5_faultlog;
pub mod e6_gateway;
pub mod e7_store;
pub mod e8_sharded;
pub mod e9_ledger;
pub mod e10_rules;

use crate::report::Table;

/// The output of one experiment run.
#[derive(Debug)]
pub struct ExperimentOutput {
    /// Short id, e.g. `"E1"`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The paper's reported value(s), quoted.
    pub paper_claim: &'static str,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Free-form observations appended to the report.
    pub notes: Vec<String>,
}

impl ExperimentOutput {
    /// Prints the experiment as aligned text to stdout.
    pub fn print(&self) {
        println!("================================================================");
        println!("{} — {}", self.id, self.title);
        println!("paper: {}", self.paper_claim);
        println!("================================================================");
        for t in &self.tables {
            t.print();
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        println!();
    }

    /// Renders the experiment as markdown (for EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n*Paper:* {}\n\n", self.id, self.title, self.paper_claim);
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("*Note:* {n}\n\n"));
        }
        out
    }
}

/// One shape of one experiment, run with a seed.
pub type Run = fn(u64) -> ExperimentOutput;

/// Every experiment as `(id, recorded shape, reduced CI shape)`, in
/// `EXPERIMENTS.md` section order. The `exp` binary and [`run_all`] both
/// read this table, so adding an experiment is one row here. Only the
/// six correctness smokes have a second shape.
pub const EXPERIMENTS: [(&str, Run, Option<Run>); 17] = [
    ("e1", e1_im_latency::run, None),
    ("e2", e2_proxy::run, None),
    ("e3", e3_aladdin::run, None),
    ("e3h", e3_host_soak::run, Some(e3_host_soak::run_smoke)),
    ("e4", e4_wish::run, None),
    ("e5", e5_faultlog::run, None),
    ("e6", e6_gateway::run, Some(e6_gateway::run_smoke)),
    ("e7", e7_store::run, Some(e7_store::run_smoke)),
    ("e8", e8_sharded::run, Some(e8_sharded::run_smoke)),
    ("e9", e9_ledger::run, Some(e9_ledger::run_smoke)),
    ("e10", e10_rules::run, Some(e10_rules::run_smoke)),
    ("a1", a1_strategies::run, None),
    ("a2", a2_wal::run, None),
    ("a3", a3_watchdog::run, None),
    ("a4", a4_rejuvenation::run, None),
    ("a5", a5_dialogs::run, None),
    ("a6", a6_sanity::run, None),
];

/// Runs every experiment at its recorded shape, in table order.
pub fn run_all(seed: u64) -> Vec<ExperimentOutput> {
    EXPERIMENTS.iter().map(|(_, run, _)| run(seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ids_are_unique_lower_case_and_in_section_order() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
        assert_eq!(
            ids,
            [
                "e1", "e2", "e3", "e3h", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "a1", "a2",
                "a3", "a4", "a5", "a6"
            ],
            "EXPERIMENTS.md section order"
        );
    }

    #[test]
    fn only_the_six_smokes_have_a_reduced_shape() {
        let reduced: Vec<&str> =
            EXPERIMENTS.iter().filter(|(.., smoke)| smoke.is_some()).map(|(id, ..)| *id).collect();
        assert_eq!(reduced, ["e3h", "e6", "e7", "e8", "e9", "e10"]);
    }
}
