//! The wire-hop fault injector: interprets a [`FaultPlan`] packet by
//! packet and folds every non-trivial verdict into a deterministic trace
//! digest.

use crate::plan::{FaultKind, FaultPlan};
use ragnar_telemetry::{ActorId, Target, Tracer};
use rnic_model::HostId;
use sim_core::{SimDuration, SimRng, SimTime};

/// What the fabric should do with one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Verdict {
    /// Drop the packet (link down or loss burst).
    pub drop: bool,
    /// Deliver, but flag the payload corrupt: the receiver drops it as an
    /// ICRC failure after it has consumed wire bandwidth.
    pub corrupt: bool,
    /// Schedule a second delivery of the same packet.
    pub duplicate: bool,
    /// Extra propagation delay (reorder windows, stalls).
    pub extra_delay: SimDuration,
}

impl Verdict {
    /// A clean pass-through verdict.
    pub fn deliver() -> Self {
        Verdict::default()
    }

    /// Whether the verdict perturbs the packet at all.
    pub fn is_fault(&self) -> bool {
        self.drop || self.corrupt || self.duplicate || self.extra_delay > SimDuration::ZERO
    }
}

/// Running totals of what the injector did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectorStats {
    /// Packets the injector examined.
    pub packets_seen: u64,
    /// Packets dropped (loss bursts + link-down windows).
    pub dropped: u64,
    /// Packets flagged corrupt (ICRC-dropped at the receiver).
    pub corrupted: u64,
    /// Packets duplicated.
    pub duplicated: u64,
    /// Packets delayed (reorder or stall).
    pub delayed: u64,
}

/// Interprets a [`FaultPlan`] at every link a packet crosses.
///
/// All probabilistic draws come from the injector's own RNG stream
/// (`derive(plan.seed, "chaos-inject")`), so installing a plan never
/// perturbs the simulation's other random streams, and the same plan over
/// the same packet sequence produces the same verdicts — the property the
/// trace digest pins down.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    stats: InjectorStats,
    digest: u64,
    tracer: Tracer,
}

impl FaultInjector {
    /// Builds an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SimRng::derive(plan.seed, "chaos-inject");
        let digest = 0xCBF2_9CE4_8422_2325 ^ plan_fingerprint(&plan);
        let tracer = ragnar_telemetry::tracer();
        tracer.instant(
            Target::Chaos,
            "plan_installed",
            ActorId::GLOBAL,
            0,
            &[
                ("seed", plan.seed.into()),
                ("events", plan.events.len().into()),
            ],
        );
        FaultInjector {
            plan,
            rng,
            stats: InjectorStats::default(),
            digest,
            tracer,
        }
    }

    /// The installed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fate of one packet departing `src` for `dst` at `at`.
    pub fn verdict(&mut self, at: SimTime, src: HostId, dst: HostId) -> Verdict {
        self.stats.packets_seen += 1;
        let mut v = Verdict::deliver();
        for i in 0..self.plan.events.len() {
            let ev = self.plan.events[i];
            if !ev.active(at) || !ev.link.matches(src, dst) {
                continue;
            }
            match ev.kind {
                FaultKind::LinkDown => v.drop = true,
                FaultKind::LossBurst { rate } => {
                    if self.rng.chance(rate.clamp(0.0, 1.0)) {
                        v.drop = true;
                    }
                }
                FaultKind::Duplicate { prob } => {
                    if self.rng.chance(prob.clamp(0.0, 1.0)) {
                        v.duplicate = true;
                    }
                }
                FaultKind::Corrupt { prob } => {
                    if self.rng.chance(prob.clamp(0.0, 1.0)) {
                        v.corrupt = true;
                    }
                }
                FaultKind::Reorder { window } => {
                    let span = window.as_picos();
                    if span > 0 {
                        let extra = SimDuration::from_picos(self.rng.uniform_range(0, span + 1));
                        v.extra_delay += extra;
                    }
                }
                FaultKind::Stall => {
                    // Hold the packet until the stall window ends.
                    let release = ev.until.saturating_since(at);
                    if release > v.extra_delay {
                        v.extra_delay = release;
                    }
                }
            }
        }
        if v.drop {
            // A dropped packet cannot also be delivered corrupt or twice.
            v.corrupt = false;
            v.duplicate = false;
            self.stats.dropped += 1;
        } else {
            if v.corrupt {
                self.stats.corrupted += 1;
            }
            if v.duplicate {
                self.stats.duplicated += 1;
            }
            if v.extra_delay > SimDuration::ZERO {
                self.stats.delayed += 1;
            }
        }
        if v.is_fault() {
            self.fold(at, src, dst, &v);
            if self.tracer.enabled(Target::Chaos) {
                self.tracer.instant(
                    Target::Chaos,
                    "fault",
                    ActorId::device(src.0),
                    at.as_picos(),
                    &[
                        ("dst", u64::from(dst.0).into()),
                        ("drop", v.drop.into()),
                        ("corrupt", v.corrupt.into()),
                        ("duplicate", v.duplicate.into()),
                        ("extra_delay_ps", v.extra_delay.as_picos().into()),
                    ],
                );
            }
        }
        v
    }

    /// Injection totals so far.
    pub fn stats(&self) -> InjectorStats {
        self.stats
    }

    /// A deterministic digest over every fault the injector applied
    /// (time, link, verdict). Equal digests mean equal fault traces.
    pub fn trace_digest(&self) -> u64 {
        self.digest
    }

    fn fold(&mut self, at: SimTime, src: HostId, dst: HostId, v: &Verdict) {
        let mut mix = |value: u64| {
            self.digest ^= value;
            self.digest = self.digest.wrapping_mul(0x100_0000_01B3);
            self.digest ^= self.digest >> 31;
        };
        mix(at.as_picos());
        mix((u64::from(src.0) << 32) | u64::from(dst.0));
        mix(u64::from(v.drop) | (u64::from(v.corrupt) << 1) | (u64::from(v.duplicate) << 2));
        mix(v.extra_delay.as_picos());
    }
}

fn plan_fingerprint(plan: &FaultPlan) -> u64 {
    let mut h = plan.seed ^ 0x9E37_79B9_7F4A_7C15;
    for byte in plan.to_text().as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x100_0000_01B3);
        h ^= h >> 29;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultEvent, LinkSelector, PlanParams};

    fn drive(inj: &mut FaultInjector, n: u64) -> Vec<Verdict> {
        (0..n)
            .map(|i| {
                inj.verdict(
                    SimTime::from_nanos(10 * i),
                    HostId((i % 2) as u32),
                    HostId(((i + 1) % 2) as u32),
                )
            })
            .collect()
    }

    #[test]
    fn identical_plans_give_identical_traces() {
        let plan = FaultPlan::generate(11, &PlanParams::default());
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        assert_eq!(drive(&mut a, 500), drive(&mut b, 500));
        assert_eq!(a.trace_digest(), b.trace_digest());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let mut a = FaultInjector::new(FaultPlan::generate(1, &PlanParams::default()));
        let mut b = FaultInjector::new(FaultPlan::generate(2, &PlanParams::default()));
        drive(&mut a, 500);
        drive(&mut b, 500);
        assert_ne!(a.trace_digest(), b.trace_digest());
    }

    #[test]
    fn empty_plan_never_faults() {
        let mut inj = FaultInjector::new(FaultPlan::empty(3));
        for v in drive(&mut inj, 100) {
            assert_eq!(v, Verdict::deliver());
        }
        assert_eq!(inj.stats().dropped, 0);
    }

    #[test]
    fn link_down_drops_everything_in_window() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                link: LinkSelector::Host(HostId(1)),
                from: SimTime::from_nanos(100),
                until: SimTime::from_nanos(200),
                kind: FaultKind::LinkDown,
            }],
        };
        let mut inj = FaultInjector::new(plan);
        assert!(
            !inj.verdict(SimTime::from_nanos(50), HostId(0), HostId(1))
                .drop
        );
        assert!(
            inj.verdict(SimTime::from_nanos(150), HostId(0), HostId(1))
                .drop
        );
        assert!(
            inj.verdict(SimTime::from_nanos(150), HostId(1), HostId(0))
                .drop
        );
        // Unrelated link unaffected.
        assert!(
            !inj.verdict(SimTime::from_nanos(150), HostId(0), HostId(2))
                .drop
        );
        // Window over.
        assert!(
            !inj.verdict(SimTime::from_nanos(250), HostId(0), HostId(1))
                .drop
        );
    }

    #[test]
    fn stall_releases_at_window_end() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                link: LinkSelector::Any,
                from: SimTime::from_nanos(0),
                until: SimTime::from_nanos(1000),
                kind: FaultKind::Stall,
            }],
        };
        let mut inj = FaultInjector::new(plan);
        let v = inj.verdict(SimTime::from_nanos(400), HostId(0), HostId(1));
        assert_eq!(v.extra_delay, SimDuration::from_nanos(600));
        assert!(!v.drop);
    }

    #[test]
    fn drop_suppresses_other_effects() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent {
                    link: LinkSelector::Any,
                    from: SimTime::ZERO,
                    until: SimTime::from_secs(1),
                    kind: FaultKind::LinkDown,
                },
                FaultEvent {
                    link: LinkSelector::Any,
                    from: SimTime::ZERO,
                    until: SimTime::from_secs(1),
                    kind: FaultKind::Duplicate { prob: 1.0 },
                },
                FaultEvent {
                    link: LinkSelector::Any,
                    from: SimTime::ZERO,
                    until: SimTime::from_secs(1),
                    kind: FaultKind::Corrupt { prob: 1.0 },
                },
            ],
        };
        let mut inj = FaultInjector::new(plan);
        let v = inj.verdict(SimTime::from_nanos(1), HostId(0), HostId(1));
        assert!(v.drop && !v.corrupt && !v.duplicate);
        let s = inj.stats();
        assert_eq!((s.dropped, s.corrupted, s.duplicated), (1, 0, 0));
    }
}
