//! Queueing primitives for modelling contended hardware resources.
//!
//! Every shared unit in the RNIC model — a PCIe direction, the wire, a
//! processing-unit issue port, a translation-table bank — is modelled as a
//! *server* that can process one job at a time. Reserving a slot returns
//! when the job starts and ends; the gap between "now" and the start is the
//! queueing delay an observer measures, which is exactly the contention
//! signal the Ragnar attacks exploit.

use crate::time::{SimDuration, SimTime};

/// A single-server FIFO resource.
///
/// # Examples
///
/// ```
/// use sim_core::{ServiceResource, SimTime, SimDuration};
///
/// let mut port = ServiceResource::new();
/// let a = port.reserve(SimTime::ZERO, SimDuration::from_nanos(10));
/// let b = port.reserve(SimTime::ZERO, SimDuration::from_nanos(10));
/// assert_eq!(a.start, SimTime::ZERO);
/// assert_eq!(b.start, SimTime::from_nanos(10)); // queued behind `a`
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServiceResource {
    next_free: SimTime,
    busy: SimDuration,
    jobs: u64,
}

/// The outcome of reserving a service slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the job begins service (≥ the requested time).
    pub start: SimTime,
    /// When the job completes service.
    pub end: SimTime,
}

impl Reservation {
    /// Queueing delay experienced before service started.
    pub fn wait_since(&self, requested: SimTime) -> SimDuration {
        self.start.saturating_since(requested)
    }
}

impl ServiceResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the next available service slot of length `service` at or
    /// after `now`, FIFO behind earlier reservations.
    pub fn reserve(&mut self, now: SimTime, service: SimDuration) -> Reservation {
        let start = now.max_of(self.next_free);
        let end = start + service;
        self.next_free = end;
        self.busy += service;
        self.jobs += 1;
        Reservation { start, end }
    }

    /// When the resource next becomes idle.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Backlog still queued at `now` (zero when idle).
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.next_free.saturating_since(now)
    }

    /// Total service time accumulated.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Fraction of `[0, now]` spent busy (1.0 when saturated). Returns 0 at
    /// time zero.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_picos() as f64 / now.as_picos() as f64).min(1.0)
    }
}

/// A bank-parallel resource: `n` identical servers, jobs are steered to an
/// explicit bank (e.g. by address bits). Same-bank jobs serialize; jobs to
/// different banks proceed in parallel. This is the mechanism behind the
/// Grain-IV offset effect.
#[derive(Debug, Clone)]
pub struct BankedResource {
    banks: Vec<ServiceResource>,
}

impl BankedResource {
    /// Creates `n` idle banks.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a banked resource needs at least one bank");
        BankedResource {
            banks: vec![ServiceResource::new(); n],
        }
    }

    /// Reserves a slot on the bank with the given index (modulo the bank
    /// count, so callers can pass raw address bits).
    pub fn reserve(&mut self, bank: usize, now: SimTime, service: SimDuration) -> Reservation {
        let n = self.banks.len();
        self.banks[bank % n].reserve(now, service)
    }

    /// Backlog of the addressed bank.
    pub fn backlog(&self, bank: usize, now: SimTime) -> SimDuration {
        let n = self.banks.len();
        self.banks[bank % n].backlog(now)
    }

    /// Total jobs across all banks.
    pub fn jobs(&self) -> u64 {
        self.banks.iter().map(ServiceResource::jobs).sum()
    }
}

/// A link direction with a fixed bit rate: reserving transmission of a
/// frame serializes behind earlier frames, like an egress queue.
#[derive(Debug, Clone)]
pub struct LinkResource {
    rate_bps: u64,
    port: ServiceResource,
    bytes: u64,
    frames: u64,
}

impl LinkResource {
    /// Creates an idle link direction at `rate_bps` bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bps` is zero.
    pub fn new(rate_bps: u64) -> Self {
        assert!(rate_bps > 0, "link rate must be positive");
        LinkResource {
            rate_bps,
            port: ServiceResource::new(),
            bytes: 0,
            frames: 0,
        }
    }

    /// Configured bit rate.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Queues a frame of `bytes` for transmission at or after `now`;
    /// returns when serialization starts and finishes.
    pub fn transmit(&mut self, now: SimTime, bytes: u64) -> Reservation {
        let ser = SimDuration::serialization(bytes, self.rate_bps);
        self.bytes += bytes;
        self.frames += 1;
        self.port.reserve(now, ser)
    }

    /// Egress backlog at `now`.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.port.backlog(now)
    }

    /// Total bytes accepted.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes
    }

    /// Total frames accepted.
    pub fn frames_sent(&self) -> u64 {
        self.frames
    }

    /// Fraction of `[0, now]` spent transmitting.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.port.utilization(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_serialization() {
        let mut r = ServiceResource::new();
        let t0 = SimTime::from_nanos(100);
        let a = r.reserve(t0, SimDuration::from_nanos(5));
        let b = r.reserve(t0, SimDuration::from_nanos(5));
        let c = r.reserve(t0, SimDuration::from_nanos(5));
        assert_eq!(a.start, t0);
        assert_eq!(b.start, t0 + SimDuration::from_nanos(5));
        assert_eq!(c.start, t0 + SimDuration::from_nanos(10));
        assert_eq!(c.wait_since(t0), SimDuration::from_nanos(10));
    }

    #[test]
    fn idle_gap_not_counted_busy() {
        let mut r = ServiceResource::new();
        r.reserve(SimTime::from_nanos(0), SimDuration::from_nanos(10));
        // Arrives after the resource went idle at t=10.
        let b = r.reserve(SimTime::from_nanos(50), SimDuration::from_nanos(10));
        assert_eq!(b.start, SimTime::from_nanos(50));
        assert_eq!(r.busy_time(), SimDuration::from_nanos(20));
        assert_eq!(r.jobs(), 2);
        let u = r.utilization(SimTime::from_nanos(100));
        assert!((u - 0.2).abs() < 1e-9);
    }

    #[test]
    fn banked_parallelism() {
        let mut b = BankedResource::new(4);
        let t = SimTime::ZERO;
        let d = SimDuration::from_nanos(10);
        // Different banks run in parallel.
        assert_eq!(b.reserve(0, t, d).start, t);
        assert_eq!(b.reserve(1, t, d).start, t);
        // Same bank serializes; index wraps modulo bank count.
        assert_eq!(b.reserve(4, t, d).start, t + d);
        assert_eq!(b.jobs(), 3);
    }

    #[test]
    fn link_backlog_and_counters() {
        let mut l = LinkResource::new(8_000_000_000_000); // 1 B/ps
        let t = SimTime::ZERO;
        l.transmit(t, 1000);
        let r = l.transmit(t, 1000);
        assert_eq!(r.start, SimTime::from_picos(1000));
        assert_eq!(l.bytes_sent(), 2000);
        assert_eq!(l.frames_sent(), 2);
        assert_eq!(l.backlog(t), SimDuration::from_picos(2000));
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_panics() {
        let _ = BankedResource::new(0);
    }
}
