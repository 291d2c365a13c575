//! What `footprint.rs` and `alloc_budget.rs` share: a counting global
//! allocator and E11's per-user configuration. Each of the two is its own
//! test binary with a single `#[test]`, so nothing else allocates while
//! it counts.

use simba_core::address::{Address, AddressBook, CommType};
use simba_core::classify::{Classifier, KeywordField};
use simba_core::mode::{Block, DeliveryMode};
use simba_core::rejuvenate::RejuvenationPolicy;
use simba_core::subscription::{SubscriptionRegistry, UserId};
use simba_core::MabConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};

/// Requested bytes currently allocated.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Calls that obtained memory (`alloc` and `realloc`) so far.
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes those calls asked for (a `realloc` counts its new size).
static REQUESTED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics and publish
// no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
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
        CALLS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocator's readings: `(live bytes, allocating calls, bytes requested)`.
pub fn heap() -> (isize, u64, u64) {
    (
        LIVE.load(Ordering::Relaxed),
        CALLS.load(Ordering::Relaxed),
        REQUESTED.load(Ordering::Relaxed),
    )
}

/// E11's `user_config` shape: three accepted sources, one keyword, one
/// IM address, one fire-and-forget mode, one subscription.
pub fn user_config(user: &UserId) -> MabConfig {
    let mut classifier = Classifier::new();
    for source in ["bench-normal", "bench-flap", "bench-chatty"] {
        classifier.accept_source(source, KeywordField::Body, "cfg");
    }
    classifier.map_keyword("Sensor", "Home");
    let mut registry = SubscriptionRegistry::new();
    let profile = registry.register_user(user.clone());
    let mut book = AddressBook::new();
    book.add(Address::new("IM", CommType::Im, format!("im:{}", user.0))).unwrap();
    profile.address_book = book;
    profile.define_mode(
        DeliveryMode::new("Direct", vec![Block::fire_and_forget(vec!["IM".into()])]).unwrap(),
    );
    registry.subscribe("Home", user.clone(), "Direct").unwrap();
    MabConfig { classifier, registry, rejuvenation: RejuvenationPolicy::default() }
}
