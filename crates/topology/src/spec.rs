//! The declarative topology grammar.
//!
//! A spec is a fabric *family* plus its parameters, written as
//! `family:key=value,key=value`. Three families exist:
//!
//! * `p2p[:hosts=N]` — an ideal one-hop crossbar: one 700 ns link per
//!   host pair, with no queue, no pause gate and so no link rate; only
//!   the NIC ports serialize (default 2 hosts). Every
//!   `Simulation::new` runs on one.
//! * `leaf-spine:hosts=H,leaves=L,spines=S[,gbps=G]` — a two-tier Clos:
//!   `H/L` hosts per leaf, every leaf wired to every spine. The leaf
//!   oversubscription ratio is `(H/L)/S`.
//! * `fat-tree:k=K[,gbps=G]` — the canonical k-ary fat tree: `K` pods,
//!   `K²/4` core switches, `K³/4` hosts.
//!
//! [`TopologySpec::canonical`] renders the spec back in a normal form —
//! the form the harness stores in cache keys, so two spellings of the
//! same fabric share cells.

use core::fmt;

/// Default link rate when a spec omits `gbps`.
pub const DEFAULT_GBPS: u64 = 100;

/// A parse or validation failure for a topology spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid topology spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// A parsed, validated topology description.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TopologySpec {
    /// The ideal one-hop crossbar.
    PointToPoint {
        /// Number of hosts.
        hosts: u32,
    },
    /// Two-tier leaf-spine Clos.
    LeafSpine {
        /// Total hosts (must divide evenly across leaves).
        hosts: u32,
        /// Leaf (ToR) switches.
        leaves: u32,
        /// Spine switches (each leaf uplinks to every spine).
        spines: u32,
        /// Link rate in Gbit/s (hosts and uplinks alike).
        gbps: u64,
    },
    /// k-ary fat tree (k pods, k³/4 hosts).
    FatTree {
        /// The arity `k` (even, ≥ 2).
        k: u32,
        /// Link rate in Gbit/s.
        gbps: u64,
    },
}

impl TopologySpec {
    /// Parses a spec string. See the module docs for the grammar.
    ///
    /// # Errors
    ///
    /// [`SpecError`] on unknown families, unknown keys, malformed
    /// values, or parameter combinations that do not describe a fabric
    /// (zero hosts, hosts not divisible by leaves, odd fat-tree arity).
    pub fn parse(s: &str) -> Result<TopologySpec, SpecError> {
        let s = s.trim();
        let (family, rest) = match s.split_once(':') {
            Some((f, r)) => (f.trim(), r),
            None => (s, ""),
        };
        let mut kv: Vec<(&str, u64)> = Vec::new();
        for part in rest.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| SpecError(format!("expected key=value, got '{part}'")))?;
            let v: u64 = v
                .trim()
                .parse()
                .map_err(|_| SpecError(format!("'{}' needs an integer, got '{}'", k.trim(), v)))?;
            kv.push((k.trim(), v));
        }
        let get = |name: &str| kv.iter().find(|(k, _)| *k == name).map(|&(_, v)| v);
        let known = |allowed: &[&str]| -> Result<(), SpecError> {
            for (k, _) in &kv {
                if !allowed.contains(k) {
                    return Err(SpecError(format!(
                        "unknown key '{k}' for '{family}' (expected one of: {})",
                        allowed.join(", ")
                    )));
                }
            }
            Ok(())
        };
        let gbps = get("gbps").unwrap_or(DEFAULT_GBPS);
        if gbps == 0 {
            return Err(SpecError("gbps must be positive".into()));
        }
        let spec = match family {
            "p2p" => {
                known(&["hosts"])?;
                let hosts = get("hosts").unwrap_or(2);
                if hosts < 2 {
                    return Err(SpecError("p2p needs at least 2 hosts".into()));
                }
                TopologySpec::PointToPoint {
                    hosts: hosts as u32,
                }
            }
            "leaf-spine" => {
                known(&["hosts", "leaves", "spines", "gbps"])?;
                let hosts =
                    get("hosts").ok_or_else(|| SpecError("leaf-spine needs hosts=".into()))?;
                let leaves =
                    get("leaves").ok_or_else(|| SpecError("leaf-spine needs leaves=".into()))?;
                let spines =
                    get("spines").ok_or_else(|| SpecError("leaf-spine needs spines=".into()))?;
                if hosts == 0 || leaves == 0 || spines == 0 {
                    return Err(SpecError(
                        "hosts, leaves and spines must be positive".into(),
                    ));
                }
                if hosts % leaves != 0 {
                    return Err(SpecError(format!(
                        "{hosts} hosts do not divide evenly across {leaves} leaves"
                    )));
                }
                if hosts / leaves < 1 {
                    return Err(SpecError("each leaf needs at least one host".into()));
                }
                TopologySpec::LeafSpine {
                    hosts: hosts as u32,
                    leaves: leaves as u32,
                    spines: spines as u32,
                    gbps,
                }
            }
            "fat-tree" => {
                known(&["k", "gbps"])?;
                let k = get("k").ok_or_else(|| SpecError("fat-tree needs k=".into()))?;
                if k < 2 || k % 2 != 0 {
                    return Err(SpecError(format!(
                        "fat-tree arity must be even and ≥ 2, got {k}"
                    )));
                }
                TopologySpec::FatTree { k: k as u32, gbps }
            }
            other => {
                return Err(SpecError(format!(
                    "unknown family '{other}' (expected p2p, leaf-spine or fat-tree)"
                )))
            }
        };
        Ok(spec)
    }

    /// The canonical spelling of the spec — what belongs in cache keys.
    pub fn canonical(&self) -> String {
        self.to_string()
    }

    /// Number of hosts the fabric exposes.
    pub fn hosts(&self) -> u32 {
        match *self {
            TopologySpec::PointToPoint { hosts } => hosts,
            TopologySpec::LeafSpine { hosts, .. } => hosts,
            TopologySpec::FatTree { k, .. } => k * k * k / 4,
        }
    }

    /// Link rate in bits per second. The `p2p` crossbar's links are ideal,
    /// so its rate is the nominal [`DEFAULT_GBPS`] that tenants pace
    /// against; the NIC ports are what actually serialize.
    pub fn rate_bps(&self) -> u64 {
        let gbps = match *self {
            TopologySpec::PointToPoint { .. } => DEFAULT_GBPS,
            TopologySpec::LeafSpine { gbps, .. } => gbps,
            TopologySpec::FatTree { gbps, .. } => gbps,
        };
        gbps * 1_000_000_000
    }

    /// The leaf oversubscription ratio (`1.0` for non-blocking fabrics):
    /// downlink capacity over uplink capacity at the host-facing tier.
    pub fn oversubscription(&self) -> f64 {
        match *self {
            TopologySpec::PointToPoint { .. } => 1.0,
            TopologySpec::LeafSpine {
                hosts,
                leaves,
                spines,
                ..
            } => f64::from(hosts / leaves) / f64::from(spines),
            TopologySpec::FatTree { .. } => 1.0,
        }
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologySpec::PointToPoint { hosts } => write!(f, "p2p:hosts={hosts}"),
            TopologySpec::LeafSpine {
                hosts,
                leaves,
                spines,
                gbps,
            } => write!(
                f,
                "leaf-spine:hosts={hosts},leaves={leaves},spines={spines},gbps={gbps}"
            ),
            TopologySpec::FatTree { k, gbps } => write!(f, "fat-tree:k={k},gbps={gbps}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_canonical() {
        for s in [
            "p2p:hosts=2",
            "leaf-spine:hosts=256,leaves=8,spines=4,gbps=100",
            "fat-tree:k=4,gbps=100",
        ] {
            let spec = TopologySpec::parse(s).expect("parse");
            assert_eq!(spec.canonical(), s);
            assert_eq!(TopologySpec::parse(&spec.canonical()), Ok(spec));
        }
    }

    #[test]
    fn defaults_and_whitespace() {
        assert_eq!(
            TopologySpec::parse("p2p"),
            Ok(TopologySpec::PointToPoint { hosts: 2 })
        );
        assert_eq!(
            TopologySpec::parse(" leaf-spine: hosts=16 , leaves=4, spines=2 "),
            Ok(TopologySpec::LeafSpine {
                hosts: 16,
                leaves: 4,
                spines: 2,
                gbps: DEFAULT_GBPS
            })
        );
    }

    #[test]
    fn invalid_specs_rejected() {
        for bad in [
            "mesh:hosts=4",
            "leaf-spine:hosts=10,leaves=3,spines=2",
            "leaf-spine:hosts=8,leaves=2",
            "fat-tree:k=3",
            "fat-tree:k=0",
            "p2p:hosts=1",
            "p2p:hosts=x",
            "leaf-spine:hosts=8,leaves=2,spines=2,radix=9",
            "p2p:hosts",
            "p2p:hosts=2,gbps=100",
        ] {
            assert!(TopologySpec::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn derived_quantities() {
        let ls = TopologySpec::parse("leaf-spine:hosts=256,leaves=8,spines=4").expect("parse");
        assert_eq!(ls.hosts(), 256);
        assert_eq!(ls.rate_bps(), 100_000_000_000);
        // 32 hosts per leaf over 4 uplinks: 8:1 oversubscribed.
        assert!((ls.oversubscription() - 8.0).abs() < 1e-12);
        let ft = TopologySpec::parse("fat-tree:k=4").expect("parse");
        assert_eq!(ft.hosts(), 16);
        assert!((ft.oversubscription() - 1.0).abs() < 1e-12);
    }
}
