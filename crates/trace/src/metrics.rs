//! The monitored-metric catalog (Table 1 of the paper).
//!
//! The paper's monitoring agent "collects a wide variety of metrics every
//! minute for each operating system instance"; Table 1 lists them. The
//! consolidation planner only *optimises* CPU and memory, but the other
//! metrics flow through the warehouse as constraints (network/disk
//! throughput identify hosts with sufficient link bandwidth).

use std::fmt;

/// One of the metrics collected by the monitoring agent (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Metric {
    /// `% Total Processor Time` — total processor time.
    TotalProcessorTime,
    /// `% Priv` — percent time spent in system (privileged) mode.
    PrivilegedTime,
    /// `% User` — percent time spent in user mode.
    UserTime,
    /// `Proc Queue Length` — processor queue length.
    ProcessorQueueLength,
    /// `Pages Per Sec` — pages in per second.
    PagesPerSec,
    /// `Memory Committed` — memory committed in bytes (reported in MB).
    MemoryCommittedMb,
    /// `Memory Average` — % of committed memory used.
    MemoryCommittedPct,
    /// `DASD % Free` — % time the direct-access storage device is free.
    DasdFreePct,
    /// `# Log Vol Red` — logical volume reads.
    LogicalVolumeReads,
    /// `TCP/IP Conn` — number of TCP/IP packets transferred.
    TcpPackets,
    /// `TCP/IP Conn v6` — number of IPv6 packets transferred.
    TcpPacketsV6,
}

impl Metric {
    /// All metrics of Table 1, in the paper's order.
    pub const ALL: [Metric; 11] = [
        Metric::TotalProcessorTime,
        Metric::PrivilegedTime,
        Metric::UserTime,
        Metric::ProcessorQueueLength,
        Metric::PagesPerSec,
        Metric::MemoryCommittedMb,
        Metric::MemoryCommittedPct,
        Metric::DasdFreePct,
        Metric::LogicalVolumeReads,
        Metric::TcpPackets,
        Metric::TcpPacketsV6,
    ];

    /// The metric's name as printed in Table 1.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Metric::TotalProcessorTime => "% Total Processor Time",
            Metric::PrivilegedTime => "% Priv",
            Metric::UserTime => "% User",
            Metric::ProcessorQueueLength => "Proc Queue Length",
            Metric::PagesPerSec => "Pages Per Sec",
            Metric::MemoryCommittedMb => "Memory Committed",
            Metric::MemoryCommittedPct => "Memory Average",
            Metric::DasdFreePct => "DASD % Free",
            Metric::LogicalVolumeReads => "# Log Vol Red",
            Metric::TcpPackets => "TCP/IP Conn",
            Metric::TcpPacketsV6 => "TCP/IP Conn v6",
        }
    }

    /// The metric's description as printed in Table 1.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            Metric::TotalProcessorTime => "Total Processor Time",
            Metric::PrivilegedTime => "Percent time spent in System mode",
            Metric::UserTime => "Percent time spent in User mode",
            Metric::ProcessorQueueLength => "Processor Queue Length",
            Metric::PagesPerSec => "Pages In Per Second",
            Metric::MemoryCommittedMb => "Memory Committed in Bytes (MB)",
            Metric::MemoryCommittedPct => "% of Memory Committed Used",
            Metric::DasdFreePct => "% time DAS Device is free",
            Metric::LogicalVolumeReads => "Logical Volume Reads",
            Metric::TcpPackets => "Number of TCP/IP Packets transferred",
            Metric::TcpPacketsV6 => "Number of IPv6 Packets transferred",
        }
    }

    /// The unit in which samples of this metric are expressed.
    #[must_use]
    pub fn unit(self) -> MetricUnit {
        match self {
            Metric::TotalProcessorTime
            | Metric::PrivilegedTime
            | Metric::UserTime
            | Metric::MemoryCommittedPct
            | Metric::DasdFreePct => MetricUnit::Percent,
            Metric::ProcessorQueueLength => MetricUnit::Count,
            Metric::PagesPerSec | Metric::TcpPackets | Metric::TcpPacketsV6 => {
                MetricUnit::PerSecond
            }
            Metric::MemoryCommittedMb => MetricUnit::Megabytes,
            Metric::LogicalVolumeReads => MetricUnit::Count,
        }
    }

    /// Whether the consolidation planner optimises this metric (CPU and
    /// memory) as opposed to using it only as a constraint.
    #[must_use]
    pub fn is_planning_resource(self) -> bool {
        matches!(self, Metric::TotalProcessorTime | Metric::MemoryCommittedMb)
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Unit of a monitored metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricUnit {
    /// A percentage in `0..=100`.
    Percent,
    /// A dimensionless count.
    Count,
    /// Events per second.
    PerSecond,
    /// Megabytes.
    Megabytes,
}

impl fmt::Display for MetricUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MetricUnit::Percent => "%",
            MetricUnit::Count => "count",
            MetricUnit::PerSecond => "1/s",
            MetricUnit::Megabytes => "MB",
        };
        f.write_str(s)
    }
}

/// A single monitored observation: a minute timestamp and a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Minutes since the monitoring epoch.
    pub minute: u64,
    /// Observed value, in the metric's [`MetricUnit`].
    pub value: f64,
}

impl Sample {
    /// Creates a sample.
    #[must_use]
    pub fn new(minute: u64, value: f64) -> Self {
        Self { minute, value }
    }

    /// The hour (since epoch) this sample falls into.
    #[must_use]
    pub fn hour(self) -> u64 {
        self.minute / 60
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_eleven_metrics() {
        assert_eq!(Metric::ALL.len(), 11);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::ALL.len());
    }

    #[test]
    fn planning_resources_are_cpu_and_memory() {
        let planning: Vec<Metric> = Metric::ALL
            .iter()
            .copied()
            .filter(|m| m.is_planning_resource())
            .collect();
        assert_eq!(
            planning,
            vec![Metric::TotalProcessorTime, Metric::MemoryCommittedMb]
        );
    }

    #[test]
    fn units_match_semantics() {
        assert_eq!(Metric::TotalProcessorTime.unit(), MetricUnit::Percent);
        assert_eq!(Metric::MemoryCommittedMb.unit(), MetricUnit::Megabytes);
        assert_eq!(Metric::PagesPerSec.unit(), MetricUnit::PerSecond);
    }

    #[test]
    fn sample_hour_truncates() {
        assert_eq!(Sample::new(59, 1.0).hour(), 0);
        assert_eq!(Sample::new(60, 1.0).hour(), 1);
        assert_eq!(Sample::new(125, 1.0).hour(), 2);
    }

    #[test]
    fn display_matches_table() {
        assert_eq!(Metric::MemoryCommittedMb.to_string(), "Memory Committed");
        assert_eq!(MetricUnit::Megabytes.to_string(), "MB");
    }
}
