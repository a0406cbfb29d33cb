//! Event tracing into a bounded ring.
//!
//! A [`Tracer`] stamps each [`Event`] against one origin instant and
//! keeps the most recent ones for post-hoc dumping ("what were the last
//! 1024 things the store did?"). Call sites are registered statically —
//! an event's `name` is a `&'static str`, so emitting never allocates.
//! Durations are measured by the caller, so an event can report time
//! spent under a lock the tracer must not take. Emission is always on:
//! one short mutex hold per event, never nested inside a store lock.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// One traced occurrence: a timed section or an instantaneous event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Static call-site name, e.g. `"store.apply_chunk"`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin at which the event was
    /// emitted (non-decreasing along the ring).
    pub t_ns: u64,
    /// Duration in nanoseconds (0 for instantaneous events).
    pub dur_ns: u64,
    /// One free argument, event-defined (a count, a byte size, …).
    pub arg: u64,
}

/// Stamps events against one origin instant and keeps the most recent
/// ones in a bounded ring (oldest evicted first).
pub struct Tracer {
    origin: Instant,
    cap: usize,
    ring: Mutex<VecDeque<Event>>,
}

impl Tracer {
    /// A tracer whose ring holds up to `cap` events.
    pub fn new(cap: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            cap: cap.max(1),
            ring: Mutex::new(VecDeque::with_capacity(cap.clamp(1, 4096))),
        }
    }

    /// Emit a pre-measured event. The timestamp is read under the ring's
    /// lock, so ring order is time order.
    #[inline]
    pub fn event(&self, name: &'static str, dur_ns: u64, arg: u64) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(Event {
            name,
            t_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns,
            arg,
        });
    }

    /// The buffered events, oldest first.
    pub fn recent(&self) -> Vec<Event> {
        self.ring
            .lock()
            .expect("trace ring poisoned")
            .iter()
            .copied()
            .collect()
    }
}

impl Default for Tracer {
    /// A tracer holding the 1024 most recent events.
    fn default() -> Self {
        Self::new(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_emit_to_ring_in_order() {
        let tracer = Tracer::default();
        tracer.event("first", 0, 7);
        tracer.event("second", 123, 9);
        let events = tracer.recent();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "first");
        assert_eq!(events[0].arg, 7);
        assert_eq!(events[1].name, "second");
        assert_eq!(events[1].dur_ns, 123);
        assert_eq!(events[1].arg, 9);
        assert!(events[0].t_ns <= events[1].t_ns);
    }

    #[test]
    fn ring_evicts_oldest() {
        let tracer = Tracer::new(3);
        for i in 0..5u64 {
            tracer.event("e", 0, i);
        }
        let events = tracer.recent();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].arg, 2);
        assert_eq!(events[2].arg, 4);
    }
}
