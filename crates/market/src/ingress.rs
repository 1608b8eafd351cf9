//! The bounded ingress queue between streaming submitters and the epoch
//! scheduler.
//!
//! Submitters ([`crate::MarketHandle`]) push from any number of threads;
//! the scheduler pops from exactly one. The queue is **bounded** — an
//! open-world market must decide what sustained overload does, and the
//! two answers are the two [`Backpressure`] policies: shed (reject
//! synchronously, count it) or block (propagate the market's pace into
//! the submitter). Both are explicit; nothing is silently dropped.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use dauctioneer_types::{ProviderAsk, UserBid, UserId};

use crate::config::Backpressure;

/// One streamed submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// A user's bid for the open epoch.
    Bid {
        /// The bidder (must be `< n_users`).
        user: UserId,
        /// The bid.
        bid: UserBid,
    },
    /// A provider ask for the open epoch, overwriting the configured
    /// default for that slot.
    Ask {
        /// Ask slot index (must be `< n_asks`).
        slot: usize,
        /// The ask.
        ask: ProviderAsk,
    },
}

/// Why a submission did not enter the ingress queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is full and the policy is [`Backpressure::Shed`].
    Overloaded,
    /// The market is shutting down (or already shut down); no further
    /// submissions are accepted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "ingress queue full: submission shed"),
            SubmitError::Closed => write!(f, "market closed: submission rejected"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A submission plus the instant it entered the queue — the stamp the
/// epoch traces turn into the ingress span (queue wait of the bid that
/// opened the epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Queued {
    /// When the submission was pushed.
    pub(crate) at: Instant,
    /// The submission itself.
    pub(crate) submission: Submission,
}

/// What one pop attempt produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pop {
    /// A submission, stamped with its queue-entry time.
    Item(Queued),
    /// Nothing arrived within the timeout.
    Timeout,
    /// Nothing is queued right now ([`IngressQueue::try_pop`] only): the
    /// scheduler's cue to commit what it has staged before it blocks.
    Empty,
    /// The queue is closed **and drained**: no submission will ever
    /// arrive again. (Close with items still queued keeps yielding
    /// them first — drain-then-shutdown.)
    Closed,
}

#[derive(Debug)]
struct Inner {
    buf: VecDeque<Queued>,
    closed: bool,
}

/// The multi-producer single-consumer bounded queue with explicit
/// backpressure and shed accounting.
#[derive(Debug)]
pub(crate) struct IngressQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    policy: Backpressure,
    /// Bids rejected because the queue was full (shed policy).
    shed_bids: AtomicU64,
    /// Asks rejected because the queue was full (shed policy).
    shed_asks: AtomicU64,
    /// Submissions that entered the queue.
    enqueued: AtomicU64,
}

impl IngressQueue {
    pub(crate) fn new(capacity: usize, policy: Backpressure) -> IngressQueue {
        assert!(capacity > 0, "ingress capacity validated non-zero");
        IngressQueue {
            inner: Mutex::new(Inner { buf: VecDeque::with_capacity(capacity), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            policy,
            shed_bids: AtomicU64::new(0),
            shed_asks: AtomicU64::new(0),
            enqueued: AtomicU64::new(0),
        }
    }

    /// Push one submission under the configured backpressure policy.
    pub(crate) fn push(&self, submission: Submission) -> Result<(), SubmitError> {
        let mut inner = self.inner.lock().expect("ingress lock");
        loop {
            if inner.closed {
                return Err(SubmitError::Closed);
            }
            if inner.buf.len() < self.capacity {
                inner.buf.push_back(Queued { at: Instant::now(), submission });
                self.enqueued.fetch_add(1, Ordering::Relaxed);
                self.not_empty.notify_one();
                return Ok(());
            }
            match self.policy {
                Backpressure::Shed => {
                    match submission {
                        Submission::Bid { .. } => self.shed_bids.fetch_add(1, Ordering::Relaxed),
                        Submission::Ask { .. } => self.shed_asks.fetch_add(1, Ordering::Relaxed),
                    };
                    return Err(SubmitError::Overloaded);
                }
                Backpressure::Block => {
                    inner = self.not_full.wait(inner).expect("ingress lock");
                }
            }
        }
    }

    /// Pop one submission, waiting up to `timeout`. Queued submissions
    /// are always yielded before [`Pop::Closed`] is reported.
    pub(crate) fn pop_timeout(&self, timeout: Duration) -> Pop {
        // A timeout too large to anchor to the clock (e.g. a ByTime
        // policy configured with Duration::MAX as "no staleness bound")
        // is effectively unbounded: block instead of panicking on
        // Instant overflow.
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            return self.pop();
        };
        let mut inner = self.inner.lock().expect("ingress lock");
        loop {
            if let Some(item) = inner.buf.pop_front() {
                self.not_full.notify_one();
                return Pop::Item(item);
            }
            if inner.closed {
                return Pop::Closed;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Pop::Timeout;
            }
            let (guard, _) = self.not_empty.wait_timeout(inner, left).expect("ingress lock");
            inner = guard;
        }
    }

    /// Pop one submission, blocking until one arrives or the queue is
    /// closed and drained.
    pub(crate) fn pop(&self) -> Pop {
        let mut inner = self.inner.lock().expect("ingress lock");
        loop {
            if let Some(item) = inner.buf.pop_front() {
                self.not_full.notify_one();
                return Pop::Item(item);
            }
            if inner.closed {
                return Pop::Closed;
            }
            inner = self.not_empty.wait(inner).expect("ingress lock");
        }
    }

    /// Pop one submission without waiting.
    pub(crate) fn try_pop(&self) -> Pop {
        let mut inner = self.inner.lock().expect("ingress lock");
        match inner.buf.pop_front() {
            Some(item) => {
                self.not_full.notify_one();
                Pop::Item(item)
            }
            None if inner.closed => Pop::Closed,
            None => Pop::Empty,
        }
    }

    /// Stop accepting submissions. Already-queued items remain poppable;
    /// blocked pushers and the popper are woken.
    pub(crate) fn close(&self) {
        let mut inner = self.inner.lock().expect("ingress lock");
        inner.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Bids shed at the queue (full + shed policy).
    pub(crate) fn shed_bids_count(&self) -> u64 {
        self.shed_bids.load(Ordering::Relaxed)
    }

    /// Asks shed at the queue (full + shed policy).
    pub(crate) fn shed_asks_count(&self) -> u64 {
        self.shed_asks.load(Ordering::Relaxed)
    }

    /// Submissions that entered the queue.
    pub(crate) fn enqueued_count(&self) -> u64 {
        self.enqueued.load(Ordering::Relaxed)
    }

    /// Current queue depth.
    pub(crate) fn depth(&self) -> usize {
        self.inner.lock().expect("ingress lock").buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dauctioneer_types::{Bw, Money};
    use std::sync::Arc;

    fn bid(user: u32) -> Submission {
        Submission::Bid {
            user: UserId(user),
            bid: UserBid::new(Money::from_f64(1.0), Bw::from_f64(0.5)),
        }
    }

    /// The submission inside a pop, panicking on timeout/closed.
    fn item(pop: Pop) -> Submission {
        match pop {
            Pop::Item(q) => q.submission,
            other => panic!("expected an item, got {other:?}"),
        }
    }

    #[test]
    fn fifo_roundtrip() {
        let q = IngressQueue::new(4, Backpressure::Shed);
        let before = Instant::now();
        q.push(bid(0)).unwrap();
        q.push(bid(1)).unwrap();
        assert_eq!(q.depth(), 2);
        match q.pop_timeout(Duration::from_millis(10)) {
            Pop::Item(queued) => {
                assert_eq!(queued.submission, bid(0));
                assert!(queued.at >= before, "queue stamp must be the push instant");
            }
            other => panic!("expected an item, got {other:?}"),
        }
        assert_eq!(item(q.pop_timeout(Duration::from_millis(10))), bid(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Timeout);
        assert_eq!(q.try_pop(), Pop::Empty);
        assert_eq!(q.enqueued_count(), 2);
    }

    #[test]
    fn shed_policy_rejects_and_counts_when_full() {
        let q = IngressQueue::new(2, Backpressure::Shed);
        q.push(bid(0)).unwrap();
        q.push(bid(1)).unwrap();
        assert_eq!(q.push(bid(2)), Err(SubmitError::Overloaded));
        assert_eq!(q.push(bid(3)), Err(SubmitError::Overloaded));
        assert_eq!(q.shed_bids_count(), 2);
        // Draining reopens capacity.
        assert!(matches!(q.pop(), Pop::Item(_)));
        q.push(bid(4)).unwrap();
        assert_eq!(q.shed_bids_count(), 2);
    }

    #[test]
    fn block_policy_waits_for_space() {
        let q = Arc::new(IngressQueue::new(1, Backpressure::Block));
        q.push(bid(0)).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(bid(1)));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!pusher.is_finished(), "full queue must block the pusher");
        assert!(matches!(q.pop(), Pop::Item(_)));
        pusher.join().unwrap().unwrap();
        assert_eq!(q.shed_bids_count() + q.shed_asks_count(), 0, "block policy never sheds");
    }

    #[test]
    fn close_drains_before_reporting_closed() {
        let q = IngressQueue::new(4, Backpressure::Shed);
        q.push(bid(0)).unwrap();
        q.push(bid(1)).unwrap();
        q.close();
        assert_eq!(q.push(bid(2)), Err(SubmitError::Closed));
        assert_eq!(item(q.pop()), bid(0));
        assert_eq!(item(q.try_pop()), bid(1));
        assert_eq!(q.try_pop(), Pop::Closed);
        assert_eq!(q.pop(), Pop::Closed);
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Closed);
    }

    #[test]
    fn close_wakes_blocked_pusher() {
        let q = Arc::new(IngressQueue::new(1, Backpressure::Block));
        q.push(bid(0)).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(bid(1)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(pusher.join().unwrap(), Err(SubmitError::Closed));
    }
}
