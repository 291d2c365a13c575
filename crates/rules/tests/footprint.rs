//! What one user's rules cost the engine, pinned: live requested heap
//! bytes per rule-owning user, read off a counting global allocator.
//! `make footprint` prints the figures. This binary holds one `#[test]`,
//! so nothing else allocates while it counts.

use simba_core::Urgency;
use simba_rules::{DigestConfig, RuleEngine, RuleSpec, RulesConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Requested bytes currently allocated.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic and publishes
// no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The two engine sizes measured.
const USERS: [usize; 2] = [500, 2_000];

/// Budgets in bytes per user, about 1.5× what one id-ordered rule list
/// per user measures (≈ 400 B with one rule, ≈ 1 140 B with four). A
/// second copy of every rule, or a per-user map of maps, breaks them.
const BUDGET_ONE_RULE: isize = 600;
const BUDGET_FOUR_RULES: isize = 1_700;

/// E11's rule sets: `steady`'s one deliver rule and `storm`'s four.
fn rule_specs(rules: usize) -> Vec<RuleSpec> {
    if rules == 1 {
        return vec![RuleSpec::deliver("all", "source == \"bench-normal\"")];
    }
    let mut panic = RuleSpec::deliver("panic", "body contains \"PANIC\"");
    panic.severity = Some(Urgency::Critical);
    let window = DigestConfig { window_ms: 1_000, max_count: 50, ..DigestConfig::default() };
    vec![
        panic,
        RuleSpec::digest("fold-flaps", "source == \"bench-flap\"", window),
        RuleSpec::suppress("mute-chatty", "source == \"bench-chatty\""),
        RuleSpec::deliver("rest", "any"),
    ]
}

/// Live heap bytes per user once `users` users each hold `rules` rules in
/// an in-memory engine.
fn per_user(users: usize, rules: usize) -> isize {
    let specs = rule_specs(rules);
    let names: Vec<String> = (0..users).map(|i| format!("user{i:06}")).collect();
    let engine = RuleEngine::open(RulesConfig::in_memory()).expect("in-memory engine");
    let before = LIVE.load(Ordering::Relaxed);
    for name in &names {
        for spec in &specs {
            engine.upsert(name, None, spec.clone()).expect("valid rule");
        }
    }
    let after = LIVE.load(Ordering::Relaxed);
    assert_eq!(engine.rule_count(), users * rules);
    (after - before) / users as isize
}

#[test]
fn a_users_rules_stay_within_their_budget() {
    let mut line = String::from("rules footprint:");
    for (rules, budget) in [(1, BUDGET_ONE_RULE), (4, BUDGET_FOUR_RULES)] {
        for users in USERS {
            let bytes = per_user(users, rules);
            assert!(bytes <= budget, "{bytes} B per user with {rules} rule(s) at {users} users");
            line.push_str(&format!(" {bytes} B per user ({rules} rule(s), {users} users);"));
        }
    }
    println!("{}", line.trim_end_matches(';'));
}
