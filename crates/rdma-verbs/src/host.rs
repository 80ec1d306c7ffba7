//! Host testbed presets (the paper's Table II).

use rnic_model::DeviceKind;

/// Specification of one test host, mirroring Table II of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSpec {
    /// Host label (H1–H3).
    pub name: &'static str,
    /// Processor model.
    pub processor: &'static str,
    /// RNIC generations installed.
    pub rnics: Vec<DeviceKind>,
    /// Operating system.
    pub os: &'static str,
    /// Installed RAM in GiB.
    pub ram_gib: u32,
}

impl HostSpec {
    /// H1: AMD EPYC 9554, CX-6, Ubuntu 20.04, 755 GB.
    pub fn h1() -> Self {
        HostSpec {
            name: "H1",
            processor: "AMD EPYC 9554",
            rnics: vec![DeviceKind::ConnectX6],
            os: "Ubuntu 20.04",
            ram_gib: 755,
        }
    }

    /// H2: Intel Xeon Silver 4314, CX-4/5, Ubuntu 18.04, 256 GB.
    pub fn h2() -> Self {
        HostSpec {
            name: "H2",
            processor: "Intel Xeon S4314",
            rnics: vec![DeviceKind::ConnectX4, DeviceKind::ConnectX5],
            os: "Ubuntu 18.04",
            ram_gib: 256,
        }
    }

    /// H3: Intel Xeon Platinum 8480+, CX-4 to CX-6, Ubuntu 22.04, 1 TB.
    pub fn h3() -> Self {
        HostSpec {
            name: "H3",
            processor: "Intel Xeon P8480+",
            rnics: vec![
                DeviceKind::ConnectX4,
                DeviceKind::ConnectX5,
                DeviceKind::ConnectX6,
            ],
            os: "Ubuntu 22.04",
            ram_gib: 1024,
        }
    }

    /// The full Table-II testbed.
    pub fn testbed() -> Vec<HostSpec> {
        vec![Self::h1(), Self::h2(), Self::h3()]
    }

    /// True if this host carries the given RNIC generation.
    pub fn supports(&self, kind: DeviceKind) -> bool {
        self.rnics.contains(&kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_matches_table_ii() {
        let hosts = HostSpec::testbed();
        assert_eq!(hosts.len(), 3);
        assert!(hosts[0].supports(DeviceKind::ConnectX6));
        assert!(hosts[1].supports(DeviceKind::ConnectX4));
        assert!(hosts[1].supports(DeviceKind::ConnectX5));
        assert!(!hosts[1].supports(DeviceKind::ConnectX6));
        assert!(hosts[2].supports(DeviceKind::ConnectX6));
        assert_eq!(hosts[2].ram_gib, 1024);
    }

    #[test]
    fn every_generation_is_testable_somewhere() {
        let hosts = HostSpec::testbed();
        for kind in DeviceKind::ALL {
            assert!(
                hosts.iter().any(|h| h.supports(kind)),
                "{kind} missing from testbed"
            );
        }
    }
}
