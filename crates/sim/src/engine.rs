//! The simulation engine: clock, queue, and the per-event [`Ctx`] handle.

use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;

/// A discrete-event simulation over world state `W` and event type `E`.
///
/// The engine owns the virtual clock, the pending-event queue, the random
/// stream, and the trace. The caller supplies the world and, per run, an
/// event handler `FnMut(&mut W, &mut Ctx<E>, E)` that mutates the world and
/// schedules follow-up events through the [`Ctx`].
///
/// See the [crate docs](crate) for a complete example.
#[derive(Debug)]
pub struct Engine<W, E> {
    world: W,
    now: SimTime,
    queue: EventQueue<E>,
    rng: SimRng,
    trace: Trace,
    processed: u64,
    event_limit: u64,
}

impl<W, E> Engine<W, E> {
    /// Creates an engine at `t = 0` with the given world and RNG seed.
    pub fn new(world: W, seed: u64) -> Self {
        Engine {
            world,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            rng: SimRng::new(seed),
            trace: Trace::new(),
            processed: 0,
            event_limit: u64::MAX,
        }
    }

    /// Caps the total number of events processed across all runs; the engine
    /// stops silently when the cap is reached. A guard against runaway
    /// self-rescheduling loops in experiment code.
    #[must_use]
    pub fn with_event_limit(mut self, limit: u64) -> Self {
        self.event_limit = limit;
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared view of the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable view of the world (for setup between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// The trace accumulated so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The engine's root random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Total events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — time travel would break causality
    /// and, silently clamped, would mask scheduling bugs.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past: {at} < {}", self.now);
        self.queue.push(at, event);
    }

    /// Runs until the queue is empty or the next event is after `end`.
    ///
    /// The clock finishes at the time of the last processed event (or `end`
    /// if no event at/after it fired — the clock is advanced to `end` so
    /// subsequent `schedule_in` calls are relative to the horizon).
    ///
    /// Events exactly at `end` are processed.
    pub fn run_until<F>(&mut self, end: SimTime, mut handler: F)
    where
        F: FnMut(&mut W, &mut Ctx<'_, E>, E),
    {
        let mut stopped = false;
        while let Some(at) = self.queue.peek_time() {
            if at > end {
                break;
            }
            if self.processed >= self.event_limit {
                stopped = true;
                break;
            }
            let (at, event) = self.queue.pop().expect("peeked entry exists");
            self.now = at;
            self.processed += 1;
            let mut ctx = Ctx {
                now: self.now,
                queue: &mut self.queue,
                rng: &mut self.rng,
                trace: &mut self.trace,
                stop: false,
            };
            handler(&mut self.world, &mut ctx, event);
            if ctx.stop {
                stopped = true;
                break;
            }
        }
        if !stopped && self.now < end {
            self.now = end;
        }
    }

    /// Runs until the queue drains entirely (or the event limit trips).
    pub fn run_to_completion<F>(&mut self, handler: F)
    where
        F: FnMut(&mut W, &mut Ctx<'_, E>, E),
    {
        // SimTime::MAX is +∞ for our purposes; run_until will not advance
        // the clock past the final event because `now < end` stays true
        // only until the queue drains.
        let final_now = {
            self.run_until_inner(handler);
            self.now
        };
        self.now = final_now;
    }

    fn run_until_inner<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut W, &mut Ctx<'_, E>, E),
    {
        while let Some((at, event)) = self.queue.pop() {
            if self.processed >= self.event_limit {
                // Put it back conceptually: the event is dropped, which is
                // acceptable because the limit is a bug backstop, not a
                // semantic boundary.
                break;
            }
            self.now = at;
            self.processed += 1;
            let mut ctx = Ctx {
                now: self.now,
                queue: &mut self.queue,
                rng: &mut self.rng,
                trace: &mut self.trace,
                stop: false,
            };
            handler(&mut self.world, &mut ctx, event);
            if ctx.stop {
                break;
            }
        }
    }

    /// Consumes the engine and returns `(world, trace)`.
    pub fn into_parts(self) -> (W, Trace) {
        (self.world, self.trace)
    }
}

/// The handler-side handle: schedule follow-ups, draw randomness, record
/// trace entries, or stop the run.
#[derive(Debug)]
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    rng: &'a mut SimRng,
    trace: &'a mut Trace,
    stop: bool,
}

impl<'a, E> Ctx<'a, E> {
    /// Current virtual time (the timestamp of the event being handled).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past: {at} < {}", self.now);
        self.queue.push(at, event);
    }

    /// The engine's random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Records a trace entry at the current time.
    pub fn trace(&mut self, category: impl Into<String>, message: impl Into<String>) {
        self.trace.record(self.now, category, message);
    }

    /// Requests that the run stop after this event returns.
    pub fn stop(&mut self) {
        self.stop = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    enum Ev {
        Once(&'static str),
        Repeat { label: &'static str, period: SimDuration },
        StopNow,
    }

    fn handler(w: &mut World, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
        match ev {
            Ev::Once(label) => w.log.push((ctx.now().as_millis(), label)),
            Ev::Repeat { label, period } => {
                w.log.push((ctx.now().as_millis(), label));
                ctx.schedule_in(period, Ev::Repeat { label, period });
            }
            Ev::StopNow => ctx.stop(),
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut e = Engine::new(World::default(), 1);
        e.schedule_in(SimDuration::from_millis(30), Ev::Once("c"));
        e.schedule_in(SimDuration::from_millis(10), Ev::Once("a"));
        e.schedule_in(SimDuration::from_millis(20), Ev::Once("b"));
        e.run_until(SimTime::from_secs(1), handler);
        assert_eq!(e.world().log, vec![(10, "a"), (20, "b"), (30, "c")]);
        assert_eq!(e.now(), SimTime::from_secs(1));
        assert_eq!(e.processed(), 3);
    }

    #[test]
    fn horizon_is_inclusive_and_later_events_stay_queued() {
        let mut e = Engine::new(World::default(), 1);
        e.schedule_in(SimDuration::from_secs(5), Ev::Once("at-horizon"));
        e.schedule_in(SimDuration::from_secs(6), Ev::Once("beyond"));
        e.run_until(SimTime::from_secs(5), handler);
        assert_eq!(e.world().log, vec![(5_000, "at-horizon")]);
        assert_eq!(e.pending(), 1);
        // A later run picks the remaining event up.
        e.run_until(SimTime::from_secs(10), handler);
        assert_eq!(e.world().log.len(), 2);
    }

    #[test]
    fn repeating_events_tick() {
        let mut e = Engine::new(World::default(), 1);
        e.schedule_in(
            SimDuration::ZERO,
            Ev::Repeat { label: "t", period: SimDuration::from_secs(2) },
        );
        e.run_until(SimTime::from_secs(7), handler);
        let times: Vec<u64> = e.world().log.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![0, 2_000, 4_000, 6_000]);
    }

    #[test]
    fn stop_halts_immediately() {
        let mut e = Engine::new(World::default(), 1);
        e.schedule_in(SimDuration::from_secs(1), Ev::Once("before"));
        e.schedule_in(SimDuration::from_secs(2), Ev::StopNow);
        e.schedule_in(SimDuration::from_secs(3), Ev::Once("after"));
        e.run_until(SimTime::from_secs(10), handler);
        assert_eq!(e.world().log, vec![(1_000, "before")]);
        assert_eq!(e.pending(), 1);
        // Clock stays at the stop event, not the horizon.
        assert_eq!(e.now(), SimTime::from_secs(2));
    }

    #[test]
    fn event_limit_is_a_backstop() {
        let mut e = Engine::new(World::default(), 1).with_event_limit(5);
        e.schedule_in(
            SimDuration::ZERO,
            Ev::Repeat { label: "r", period: SimDuration::from_millis(1) },
        );
        e.run_until(SimTime::MAX, handler);
        assert_eq!(e.processed(), 5);
    }

    #[test]
    fn run_to_completion_drains_queue() {
        let mut e = Engine::new(World::default(), 1);
        e.schedule_in(SimDuration::from_secs(1), Ev::Once("a"));
        e.schedule_in(SimDuration::from_secs(9), Ev::Once("b"));
        e.run_to_completion(handler);
        assert_eq!(e.world().log.len(), 2);
        assert_eq!(e.now(), SimTime::from_secs(9));
        assert_eq!(e.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut e: Engine<(), Ev> = Engine::new((), 1);
        e.schedule_in(SimDuration::from_secs(10), Ev::Once("later"));
        e.run_until(SimTime::from_secs(20), |_, ctx, _| {
            ctx.schedule_at(SimTime::from_secs(1), Ev::Once("past"));
        });
    }

    #[test]
    fn trace_records_through_ctx() {
        let mut e: Engine<(), Ev> = Engine::new((), 1);
        e.schedule_in(SimDuration::from_secs(1), Ev::Once("x"));
        e.run_until(SimTime::from_secs(2), |_, ctx, _| {
            ctx.trace("test.cat", "hello");
        });
        assert_eq!(e.trace().count("test.cat"), 1);
        assert_eq!(e.trace().entries()[0].at, SimTime::from_secs(1));
    }

    #[test]
    fn into_parts_returns_world_and_trace() {
        let mut e = Engine::new(World::default(), 1);
        e.schedule_in(SimDuration::ZERO, Ev::Once("only"));
        e.run_to_completion(handler);
        let (w, trace) = e.into_parts();
        assert_eq!(w.log.len(), 1);
        assert!(trace.is_empty());
    }
}
