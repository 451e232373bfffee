//! In-process publish/subscribe fan-out of [`JobEvent`]s to watchers.
//!
//! Delivery is *bounded*: every subscriber has a fixed-capacity channel
//! and a publish never blocks on a slow consumer. Instead the event is
//! dropped for that subscriber — and because every published event
//! carries a server-wide monotonic `seq`, the subscriber observes the
//! drop as a gap in the sequence numbers rather than silent loss.

use crate::protocol::{JobEvent, JobEventPayload};
use parking_lot::Mutex;
use snn_cluster::lock_order::{mutex, Rank};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

/// Default per-subscriber channel capacity. Large enough that only a
/// genuinely stuck consumer ever drops events.
pub const DEFAULT_SUBSCRIBER_CAPACITY: usize = 1024;

struct Subscriber {
    /// Names the subscription to its handle's `Drop`.
    id: u64,
    /// `Some(id)` restricts delivery to that job's events.
    job: Option<u64>,
    tx: mpsc::SyncSender<JobEvent>,
}

/// Broadcasts job events to any number of subscribers. A subscription
/// lasts as long as its [`Subscription`] handle; slow subscribers (full
/// channels) lose the event but stay subscribed.
pub struct EventBus {
    subscribers: Mutex<Vec<Subscriber>>,
    next_subscriber: AtomicU64,
    next_seq: AtomicU64,
}

/// The receiving end of one subscription; dereferences to its channel.
/// Dropping it unsubscribes — whatever the job it watched is doing, or
/// whether that job exists at all — so a subscription costs its channel
/// only while someone reads it.
pub struct Subscription<'a> {
    bus: &'a EventBus,
    id: u64,
    rx: mpsc::Receiver<JobEvent>,
}

impl std::ops::Deref for Subscription<'_> {
    type Target = mpsc::Receiver<JobEvent>;

    fn deref(&self) -> &Self::Target {
        &self.rx
    }
}

impl Drop for Subscription<'_> {
    fn drop(&mut self) {
        self.bus.unsubscribe(self.id);
    }
}

impl Default for EventBus {
    fn default() -> Self {
        Self::new()
    }
}

impl EventBus {
    /// An empty bus.
    pub fn new() -> Self {
        Self {
            subscribers: mutex(Rank::Bus, Vec::new()),
            next_subscriber: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
        }
    }

    /// Registers a subscriber with the default channel capacity.
    /// `job = Some(id)` delivers only that job's events; `None` delivers
    /// everything.
    pub fn subscribe(&self, job: Option<u64>) -> Subscription<'_> {
        self.subscribe_with_capacity(job, DEFAULT_SUBSCRIBER_CAPACITY)
    }

    /// Registers a subscriber whose channel holds at most `capacity`
    /// undelivered events (minimum 1). Events published while the
    /// channel is full are dropped for this subscriber; the next event
    /// it does receive has a non-consecutive `seq`.
    #[expect(clippy::disallowed_methods, reason = "appends one subscriber")]
    pub fn subscribe_with_capacity(&self, job: Option<u64>, capacity: usize) -> Subscription<'_> {
        let (tx, rx) = mpsc::sync_channel(capacity.max(1));
        // The id publishes nothing: it only has to be unique.
        let id = self.next_subscriber.fetch_add(1, Ordering::Relaxed);
        self.subscribers.lock().push(Subscriber { id, job, tx });
        Subscription { bus: self, id, rx }
    }

    #[expect(clippy::disallowed_methods, reason = "removes one subscriber")]
    fn unsubscribe(&self, id: u64) {
        self.subscribers.lock().retain(|s| s.id != id);
    }

    /// Wraps `payload` in an envelope carrying the next sequence number
    /// and the emission time, without delivering it.
    pub fn stamp(&self, payload: JobEventPayload) -> JobEvent {
        JobEvent {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            at_ms: crate::store::now_ms(),
            payload,
        }
    }

    /// Stamps `payload` with the next sequence number and the emission
    /// time, then delivers it to every interested subscriber. Never
    /// blocks: a full subscriber channel drops this event for that
    /// subscriber.
    #[expect(clippy::disallowed_methods, reason = "non-blocking sends to every subscriber")]
    pub fn publish(&self, payload: JobEventPayload) {
        let event = self.stamp(payload);
        let subs = self.subscribers.lock();
        for s in subs.iter().filter(|s| s.job.is_none_or(|id| id == event.job())) {
            // A subscriber is listed only while its handle, and with it
            // the receiver, is alive: a send fails on a full channel
            // alone. The event is dropped for this slow subscriber, who
            // sees the loss as a gap in `seq`.
            if s.tx.try_send(event.clone()).is_err() {
                snn_obs::counter!(
                    "snn_service_events_dropped_total",
                    "Events dropped because a subscriber channel was full."
                )
                .inc();
            }
        }
    }

    /// Live subscriber count.
    #[expect(clippy::disallowed_methods, reason = "reads the subscriber count")]
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobState;

    fn state_payload(job: u64) -> JobEventPayload {
        JobEventPayload::State { job, state: JobState::Running, error: None }
    }

    #[test]
    fn filtered_subscribers_see_only_their_job() {
        let bus = EventBus::new();
        let all = bus.subscribe(None);
        let only_two = bus.subscribe(Some(2));

        bus.publish(state_payload(1));
        bus.publish(state_payload(2));

        assert_eq!(all.try_iter().count(), 2);
        let got: Vec<_> = only_two.try_iter().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].job(), 2);
    }

    /// A subscription ends with its handle — no event has to come by to
    /// prune it, which for a job-filtered subscriber of a finished or
    /// unknown job would be never.
    #[test]
    fn dropping_the_handle_unsubscribes() {
        let bus = EventBus::new();
        let all = bus.subscribe(None);
        let finished = bus.subscribe(Some(7));
        assert_eq!(bus.subscriber_count(), 2);
        drop(finished);
        assert_eq!(bus.subscriber_count(), 1);
        bus.publish(state_payload(1));
        assert_eq!(all.try_iter().count(), 1, "the other subscription is untouched");
        drop(all);
        assert_eq!(bus.subscriber_count(), 0);
    }

    #[test]
    fn sequence_numbers_are_consecutive_and_stamped_at_publish() {
        let bus = EventBus::new();
        let rx = bus.subscribe(None);
        for job in 0..5 {
            bus.publish(state_payload(job));
        }
        let got: Vec<JobEvent> = rx.try_iter().collect();
        assert_eq!(got.len(), 5);
        for (i, event) in got.iter().enumerate() {
            assert_eq!(event.seq, i as u64);
            assert!(event.at_ms > 0, "emission timestamp must be stamped");
        }
    }

    #[test]
    fn slow_subscriber_observes_a_seq_gap_not_silent_loss() {
        let bus = EventBus::new();
        // Capacity 2: the subscriber can buffer two events; the third
        // and fourth are dropped while it is "busy".
        let rx = bus.subscribe_with_capacity(None, 2);
        for job in 0..4 {
            bus.publish(state_payload(job));
        }
        assert_eq!(bus.subscriber_count(), 1, "slow subscriber must stay subscribed");

        // The consumer wakes up and drains: seq 0 and 1 arrived, 2 and 3
        // were dropped.
        let first = rx.recv().expect("buffered event");
        let second = rx.recv().expect("buffered event");
        assert_eq!((first.seq, second.seq), (0, 1));

        // It catches up: the next event it sees skips the dropped range.
        bus.publish(state_payload(9));
        let resumed = rx.recv().expect("post-drain event");
        assert_eq!(resumed.seq, 4, "seq gap (2, 3 missing) reveals the dropped events");
        assert!(resumed.seq > second.seq + 1, "the gap is observable");
    }
}
