//! Event vocabulary: targets, actors, argument values, event kinds.

use std::fmt;

/// The crate (instrumentation layer) an event originates from.
///
/// Doubles as the unit of filtering: `--trace-filter sim-core,chaos`
/// keeps only those targets' events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Target {
    /// The discrete-event engine (`sim-core`): scheduler depth counters.
    SimCore = 0,
    /// The RNIC datapath model (`rnic-model`): pipeline and translation
    /// stages, QP state transitions, NAK/retransmit instants.
    RnicModel = 1,
    /// The verbs fabric (`rdma-verbs`): wire hops, WR completions.
    RdmaVerbs = 2,
    /// The fault injector (`chaos`): installed plans, injected faults.
    Chaos = 3,
    /// Measurement and attack layers (`core`): ULI samples, covert bits.
    Core = 4,
    /// Detection layers (`defense`): sweep diagnostics.
    Defense = 5,
    /// The experiment harness itself: cell lifecycle, log facade.
    Harness = 6,
}

impl Target {
    /// Every target, in stable order.
    pub const ALL: [Target; 7] = [
        Target::SimCore,
        Target::RnicModel,
        Target::RdmaVerbs,
        Target::Chaos,
        Target::Core,
        Target::Defense,
        Target::Harness,
    ];

    /// The target's canonical name (also the Chrome trace `cat` field).
    pub fn name(self) -> &'static str {
        match self {
            Target::SimCore => "sim-core",
            Target::RnicModel => "rnic-model",
            Target::RdmaVerbs => "rdma-verbs",
            Target::Chaos => "chaos",
            Target::Core => "core",
            Target::Defense => "defense",
            Target::Harness => "harness",
        }
    }

    /// Parses a canonical name back into a target.
    pub fn from_name(name: &str) -> Option<Target> {
        Target::ALL.into_iter().find(|t| t.name() == name)
    }

    fn bit(self) -> u8 {
        1 << (self as u8)
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of [`Target`]s — the trace filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetSet(u8);

impl TargetSet {
    /// Every target enabled.
    pub const ALL: TargetSet = TargetSet(0xFF);
    /// No target enabled.
    pub const EMPTY: TargetSet = TargetSet(0);

    /// Adds a target to the set.
    pub fn with(self, target: Target) -> TargetSet {
        TargetSet(self.0 | target.bit())
    }

    /// Whether the set contains `target`.
    #[inline]
    pub fn contains(self, target: Target) -> bool {
        self.0 & target.bit() != 0
    }

    /// True when no target is enabled.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Parses a comma-separated target list (`"sim-core,chaos"`).
    /// Rejects unknown names so typos fail loudly instead of producing
    /// an empty trace.
    pub fn parse(spec: &str) -> Result<TargetSet, String> {
        let mut set = TargetSet::EMPTY;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let target = Target::from_name(part).ok_or_else(|| {
                format!(
                    "unknown trace target '{part}' (expected one of: {})",
                    Target::ALL.map(Target::name).join(", ")
                )
            })?;
            set = set.with(target);
        }
        Ok(set)
    }
}

impl Default for TargetSet {
    fn default() -> Self {
        TargetSet::ALL
    }
}

/// A stable identity for the emitting entity: a host and a lane within
/// it (lane 0 is the device itself, lane `n` is QP number `n`). Maps to
/// the Perfetto process/thread tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId {
    /// Host index, or [`ActorId::GLOBAL_HOST`] for run-wide events.
    pub host: u32,
    /// Lane within the host: 0 = device, `n` = QP `n`.
    pub lane: u32,
}

impl ActorId {
    /// Sentinel host for events not tied to any simulated host (the
    /// scheduler, the harness, the log facade).
    pub const GLOBAL_HOST: u32 = u32::MAX;

    /// The run-wide actor.
    pub const GLOBAL: ActorId = ActorId {
        host: Self::GLOBAL_HOST,
        lane: 0,
    };

    /// The device-level actor of `host`.
    pub const fn device(host: u32) -> ActorId {
        ActorId { host, lane: 0 }
    }

    /// The actor for QP `qp` on `host`.
    pub const fn qp(host: u32, qp: u32) -> ActorId {
        ActorId { host, lane: qp }
    }
}

/// A typed event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A static string (opcode names, states, …).
    Str(&'static str),
    /// An owned string (log messages).
    Text(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}
impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Text(v)
    }
}

/// The shape of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration: something started at `ts_ps` and took `dur_ps`.
    Span {
        /// Span length in picoseconds.
        dur_ps: u64,
    },
    /// A point-in-time marker.
    Instant,
    /// A sampled counter value (queue depth, …), rendered as a counter
    /// track in Perfetto.
    Counter {
        /// The sampled value. Stored as bits so events stay `Eq`.
        value_bits: u64,
    },
}

impl EventKind {
    /// Builds a counter kind from a float sample.
    pub fn counter(value: f64) -> EventKind {
        EventKind::Counter {
            value_bits: value.to_bits(),
        }
    }

    /// The counter sample, if this is a counter event.
    pub fn counter_value(self) -> Option<f64> {
        match self {
            EventKind::Counter { value_bits } => Some(f64::from_bits(value_bits)),
            _ => None,
        }
    }
}

/// One structured telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Originating layer.
    pub target: Target,
    /// Event name (`"wire"`, `"qp_error"`, `"queue_depth"`, …).
    pub name: &'static str,
    /// Stable emitting entity.
    pub actor: ActorId,
    /// Sim-time timestamp in picoseconds.
    pub ts_ps: u64,
    /// Span / instant / counter.
    pub kind: EventKind,
    /// Typed key-value payload.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Log facade severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Recorded when a session is installed, dropped otherwise.
    Info,
    /// Always written to stderr; also recorded when a session is
    /// installed.
    Warn,
}

impl Level {
    /// The level's lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_names_roundtrip() {
        for t in Target::ALL {
            assert_eq!(Target::from_name(t.name()), Some(t));
        }
        assert_eq!(Target::from_name("nope"), None);
    }

    #[test]
    fn target_set_parse() {
        let set = TargetSet::parse("sim-core, chaos").expect("parse");
        assert!(set.contains(Target::SimCore));
        assert!(set.contains(Target::Chaos));
        assert!(!set.contains(Target::RnicModel));
        assert!(TargetSet::parse("sim-core,bogus").is_err());
        assert!(TargetSet::parse("").expect("empty").is_empty());
        for t in Target::ALL {
            assert!(TargetSet::ALL.contains(t));
            assert!(!TargetSet::EMPTY.contains(t));
        }
    }

    #[test]
    fn counter_kind_roundtrips_value() {
        let k = EventKind::counter(12.5);
        assert_eq!(k.counter_value(), Some(12.5));
        assert_eq!(EventKind::Instant.counter_value(), None);
    }
}
