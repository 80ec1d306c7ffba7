//! Fault plans: typed, time-bounded fault events on the simulated fabric.
//!
//! A [`FaultPlan`] is either generated from a seed (the property suite's
//! randomized plans) or written by hand / parsed from a file (the
//! `--chaos-plan` CLI flag). Plans are pure data: the injector in
//! [`crate::inject`] interprets them at the wire hop.

use rnic_model::HostId;
use sim_core::{SimDuration, SimRng, SimTime};

/// Which fabric link a fault event applies to.
///
/// The simulated fabric is a star: every host has one link to the switch,
/// so "link" and "host" coincide. An event matches a packet when the
/// selector is [`LinkSelector::Any`] or names the packet's source *or*
/// destination host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSelector {
    /// Every link in the fabric.
    Any,
    /// The link of one host (matches packets it sends or receives).
    Host(HostId),
}

impl LinkSelector {
    /// Whether a packet travelling `src -> dst` crosses this selector.
    pub fn matches(self, src: HostId, dst: HostId) -> bool {
        match self {
            LinkSelector::Any => true,
            LinkSelector::Host(h) => h == src || h == dst,
        }
    }
}

/// The typed fault a [`FaultEvent`] injects while active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Drop each matching packet with probability `rate`.
    LossBurst {
        /// Per-packet drop probability in `[0, 1]`.
        rate: f64,
    },
    /// The link is down: every matching packet is dropped.
    LinkDown,
    /// Add a uniform random extra delay in `[0, window)` to each matching
    /// packet, so packets overtake each other inside the window.
    Reorder {
        /// Maximum extra delay.
        window: SimDuration,
    },
    /// Deliver each matching packet twice with probability `prob` (the
    /// duplicate arrives one switch hop later).
    Duplicate {
        /// Per-packet duplication probability in `[0, 1]`.
        prob: f64,
    },
    /// Corrupt the payload with probability `prob`. Corrupt packets still
    /// consume wire and ingress bandwidth but fail the receiver's ICRC
    /// check and are dropped there (RoCE semantics).
    Corrupt {
        /// Per-packet corruption probability in `[0, 1]`.
        prob: f64,
    },
    /// The destination NIC stalls (PCIe hiccup, host pause): matching
    /// packets are held and delivered when the event window ends.
    Stall,
}

impl FaultKind {
    fn tag(&self) -> &'static str {
        match self {
            FaultKind::LossBurst { .. } => "loss",
            FaultKind::LinkDown => "down",
            FaultKind::Reorder { .. } => "reorder",
            FaultKind::Duplicate { .. } => "dup",
            FaultKind::Corrupt { .. } => "corrupt",
            FaultKind::Stall => "stall",
        }
    }
}

/// One scheduled fault: a kind, a link selector, and an active window
/// `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Link(s) the fault applies to.
    pub link: LinkSelector,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// What happens to matching packets inside the window.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Whether the event is active at `now`.
    pub fn active(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// Parameters for [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanParams {
    /// Number of hosts in the fabric (link selectors are drawn from
    /// these, plus [`LinkSelector::Any`]).
    pub hosts: u32,
    /// Horizon the event windows are placed within.
    pub horizon: SimDuration,
    /// Number of fault events to generate.
    pub events: usize,
    /// Scales fault probabilities (loss/duplicate/corrupt rates) in
    /// `(0, 1]`; 1.0 is the nastiest fabric.
    pub intensity: f64,
}

impl Default for PlanParams {
    fn default() -> Self {
        PlanParams {
            hosts: 2,
            horizon: SimDuration::from_micros(500),
            events: 6,
            intensity: 0.5,
        }
    }
}

/// A deterministic, serializable schedule of fault events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the injector's probabilistic draws (loss, duplication,
    /// corruption, reorder offsets). Two installs of the same plan see
    /// identical per-packet verdicts for identical packet sequences.
    pub seed: u64,
    /// The scheduled events.
    pub events: Vec<FaultEvent>,
}

/// A problem parsing a [`FaultPlan`] from its text form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    /// 1-based line the problem was found on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "fault-plan line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PlanParseError {}

impl FaultPlan {
    /// A plan with no events (the injector passes everything through).
    pub fn empty(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a randomized plan from a seed.
    ///
    /// The draw stream is `derive(seed, "chaos-plan")`, decorrelated from
    /// every simulation stream, and the first event is always a loss
    /// burst across all links spanning the middle of the horizon — so a
    /// generated plan always perturbs traffic that runs inside it.
    pub fn generate(seed: u64, params: &PlanParams) -> Self {
        assert!(params.hosts > 0, "plan needs at least one host");
        assert!(
            params.intensity > 0.0 && params.intensity <= 1.0,
            "intensity must be in (0, 1], got {}",
            params.intensity
        );
        let mut rng = SimRng::derive(seed, "chaos-plan");
        let horizon_ps = params.horizon.as_picos().max(1);
        let mut events = Vec::with_capacity(params.events);
        if params.events > 0 {
            // Guaranteed perturbation: a fabric-wide loss burst over the
            // middle 60% of the horizon.
            events.push(FaultEvent {
                link: LinkSelector::Any,
                from: SimTime::from_picos(horizon_ps / 5),
                until: SimTime::from_picos(horizon_ps * 4 / 5),
                kind: FaultKind::LossBurst {
                    rate: 0.02 + 0.18 * params.intensity * rng.uniform(),
                },
            });
        }
        while events.len() < params.events {
            let link = if rng.chance(0.4) {
                LinkSelector::Any
            } else {
                LinkSelector::Host(HostId(rng.uniform_range(0, u64::from(params.hosts)) as u32))
            };
            let a = rng.uniform_range(0, horizon_ps);
            let span = rng.uniform_range(1, horizon_ps / 4 + 2);
            let from = SimTime::from_picos(a);
            let until = SimTime::from_picos(a.saturating_add(span));
            let kind = match rng.uniform_range(0, 6) {
                0 => FaultKind::LossBurst {
                    rate: params.intensity * rng.uniform(),
                },
                1 => FaultKind::LinkDown,
                2 => FaultKind::Reorder {
                    window: SimDuration::from_picos(rng.uniform_range(1, horizon_ps / 20 + 2)),
                },
                3 => FaultKind::Duplicate {
                    prob: params.intensity * rng.uniform(),
                },
                4 => FaultKind::Corrupt {
                    prob: 0.5 * params.intensity * rng.uniform(),
                },
                _ => FaultKind::Stall,
            };
            events.push(FaultEvent {
                link,
                from,
                until,
                kind,
            });
        }
        FaultPlan { seed, events }
    }

    /// Serializes to the plan text format (see [`FaultPlan::parse`]).
    ///
    /// The workspace has no serialization dependency, so plans use their
    /// own line-based format; `parse(to_text(p)) == p` is unit-tested.
    pub fn to_text(&self) -> String {
        use core::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "chaos-plan v1 seed={}", self.seed);
        for ev in &self.events {
            let link = match ev.link {
                LinkSelector::Any => "any".to_string(),
                LinkSelector::Host(h) => h.0.to_string(),
            };
            let _ = write!(
                s,
                "{} link={} from={} until={}",
                ev.kind.tag(),
                link,
                ev.from.as_picos(),
                ev.until.as_picos()
            );
            match ev.kind {
                FaultKind::LossBurst { rate } => {
                    let _ = write!(s, " rate={rate}");
                }
                FaultKind::Duplicate { prob } | FaultKind::Corrupt { prob } => {
                    let _ = write!(s, " prob={prob}");
                }
                FaultKind::Reorder { window } => {
                    let _ = write!(s, " window={}", window.as_picos());
                }
                FaultKind::LinkDown | FaultKind::Stall => {}
            }
            s.push('\n');
        }
        s
    }

    /// Parses the text form produced by [`FaultPlan::to_text`]:
    ///
    /// ```text
    /// chaos-plan v1 seed=<u64>
    /// loss    link=<any|host#> from=<ps> until=<ps> rate=<f64>
    /// down    link=<any|host#> from=<ps> until=<ps>
    /// reorder link=<any|host#> from=<ps> until=<ps> window=<ps>
    /// dup     link=<any|host#> from=<ps> until=<ps> prob=<f64>
    /// corrupt link=<any|host#> from=<ps> until=<ps> prob=<f64>
    /// stall   link=<any|host#> from=<ps> until=<ps>
    /// ```
    ///
    /// Blank lines and `#` comment lines are ignored.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanParseError`] naming the offending line.
    pub fn parse(text: &str) -> Result<Self, PlanParseError> {
        let err = |line: usize, message: &str| PlanParseError {
            line,
            message: message.to_string(),
        };
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
        let (first_no, header) = lines
            .next()
            .ok_or_else(|| err(1, "empty plan (missing 'chaos-plan v1' header)"))?;
        let seed = header
            .strip_prefix("chaos-plan v1 seed=")
            .and_then(|v| v.trim().parse::<u64>().ok())
            .ok_or_else(|| err(first_no, "expected header 'chaos-plan v1 seed=<u64>'"))?;
        let mut events = Vec::new();
        for (no, line) in lines {
            let mut fields = line.split_whitespace();
            let tag = fields.next().unwrap_or_default();
            let mut link = None;
            let mut from = None;
            let mut until = None;
            let mut rate = None;
            let mut window = None;
            for field in fields {
                let (key, value) = field
                    .split_once('=')
                    .ok_or_else(|| err(no, "fields must be key=value"))?;
                match key {
                    "link" if value == "any" => link = Some(LinkSelector::Any),
                    "link" => {
                        let host = value
                            .parse::<u32>()
                            .map_err(|_| err(no, "link must be 'any' or a host number"))?;
                        link = Some(LinkSelector::Host(HostId(host)));
                    }
                    "from" | "until" => {
                        let ps = value
                            .parse::<u64>()
                            .map_err(|_| err(no, "times are picoseconds (u64)"))?;
                        let t = Some(SimTime::from_picos(ps));
                        if key == "from" {
                            from = t;
                        } else {
                            until = t;
                        }
                    }
                    "rate" | "prob" => {
                        let p = value
                            .parse::<f64>()
                            .map_err(|_| err(no, "probabilities are f64"))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(err(no, "probability outside [0, 1]"));
                        }
                        rate = Some(p);
                    }
                    "window" => {
                        let ps = value
                            .parse::<u64>()
                            .map_err(|_| err(no, "window is picoseconds (u64)"))?;
                        window = Some(SimDuration::from_picos(ps));
                    }
                    other => return Err(err(no, &format!("unknown field '{other}'"))),
                }
            }
            let kind = match tag {
                "loss" => FaultKind::LossBurst {
                    rate: rate.ok_or_else(|| err(no, "loss needs rate="))?,
                },
                "down" => FaultKind::LinkDown,
                "reorder" => FaultKind::Reorder {
                    window: window.ok_or_else(|| err(no, "reorder needs window="))?,
                },
                "dup" => FaultKind::Duplicate {
                    prob: rate.ok_or_else(|| err(no, "dup needs prob="))?,
                },
                "corrupt" => FaultKind::Corrupt {
                    prob: rate.ok_or_else(|| err(no, "corrupt needs prob="))?,
                },
                "stall" => FaultKind::Stall,
                other => return Err(err(no, &format!("unknown event kind '{other}'"))),
            };
            let from = from.ok_or_else(|| err(no, "missing from="))?;
            let until = until.ok_or_else(|| err(no, "missing until="))?;
            if until <= from {
                return Err(err(no, "until must be after from"));
            }
            events.push(FaultEvent {
                link: link.ok_or_else(|| err(no, "missing link="))?,
                from,
                until,
                kind,
            });
        }
        Ok(FaultPlan { seed, events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        let params = PlanParams {
            hosts: 3,
            ..PlanParams::default()
        };
        assert_eq!(
            FaultPlan::generate(42, &params),
            FaultPlan::generate(42, &params)
        );
        assert_ne!(
            FaultPlan::generate(42, &params).events,
            FaultPlan::generate(43, &params).events
        );
    }

    #[test]
    fn generated_events_lie_within_horizon() {
        let params = PlanParams {
            hosts: 4,
            horizon: SimDuration::from_micros(200),
            events: 12,
            intensity: 1.0,
        };
        let plan = FaultPlan::generate(7, &params);
        assert_eq!(plan.events.len(), 12);
        for ev in &plan.events {
            assert!(ev.from < ev.until);
            assert!(ev.from.as_picos() <= params.horizon.as_picos());
        }
    }

    #[test]
    fn text_round_trip() {
        for seed in [0, 1, 9, 1234] {
            let plan = FaultPlan::generate(
                seed,
                &PlanParams {
                    hosts: 3,
                    events: 10,
                    intensity: 0.9,
                    ..PlanParams::default()
                },
            );
            let text = plan.to_text();
            let back = FaultPlan::parse(&text).expect("round trip");
            assert_eq!(plan, back, "plan text:\n{text}");
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("chaos-plan v2 seed=1").is_err());
        assert!(FaultPlan::parse("chaos-plan v1 seed=1\nwarp link=any from=0 until=9").is_err());
        assert!(FaultPlan::parse("chaos-plan v1 seed=1\nloss link=any from=0 until=9").is_err());
        assert!(
            FaultPlan::parse("chaos-plan v1 seed=1\nloss link=any from=9 until=9 rate=0.5")
                .is_err()
        );
        assert!(
            FaultPlan::parse("chaos-plan v1 seed=1\nloss link=any from=0 until=9 rate=1.5")
                .is_err()
        );
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let plan = FaultPlan::parse(
            "# a commented plan\n\nchaos-plan v1 seed=5\n\ndown link=1 from=10 until=20\n",
        )
        .expect("parse");
        assert_eq!(plan.seed, 5);
        assert_eq!(
            plan.events,
            vec![FaultEvent {
                link: LinkSelector::Host(HostId(1)),
                from: SimTime::from_picos(10),
                until: SimTime::from_picos(20),
                kind: FaultKind::LinkDown,
            }]
        );
    }

    #[test]
    fn selector_matching() {
        assert!(LinkSelector::Any.matches(HostId(0), HostId(1)));
        assert!(LinkSelector::Host(HostId(0)).matches(HostId(0), HostId(1)));
        assert!(LinkSelector::Host(HostId(1)).matches(HostId(0), HostId(1)));
        assert!(!LinkSelector::Host(HostId(2)).matches(HostId(0), HostId(1)));
    }
}
