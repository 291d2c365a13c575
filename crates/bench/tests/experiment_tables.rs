//! Pins the simulated experiments to their committed results: every table
//! E1–E5 and A1–A6 print at seed 42 must appear verbatim in
//! `EXPERIMENTS_RESULTS.md`. A change that perturbs the simulation — a
//! different log id, one more RNG draw — fails here, not in a reader's
//! diff of the regenerated file.

use simba_bench::experiments::EXPERIMENTS;

const PINNED: [&str; 11] = ["e1", "e2", "e3", "e4", "e5", "a1", "a2", "a3", "a4", "a5", "a6"];

#[test]
fn simulated_experiment_tables_match_the_committed_results() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS_RESULTS.md");
    let committed = std::fs::read_to_string(path).expect("read EXPERIMENTS_RESULTS.md");
    for id in PINNED {
        let (_, run, _) = EXPERIMENTS
            .iter()
            .find(|(name, ..)| *name == id)
            .expect("pinned id is in the experiment table");
        for table in run(42).tables {
            let markdown = table.to_markdown();
            assert!(
                committed.contains(&markdown),
                "{id}: table not in EXPERIMENTS_RESULTS.md verbatim \
                 (regenerate with `exp all 42 --write` only if the change is meant):\n{markdown}"
            );
        }
    }
}
