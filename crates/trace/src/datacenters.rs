//! The four calibrated data-center workloads (Table 2).
//!
//! The paper studies four production data centers:
//!
//! | Name | Industry          | # servers | mean CPU util |
//! |------|-------------------|-----------|---------------|
//! | A    | Banking           | 816       | 5%            |
//! | B    | Airlines          | 445       | 1%            |
//! | C    | Natural Resources | 1390      | 12%           |
//! | D    | Beverage          | 722       | 6%            |
//!
//! The raw traces are proprietary, so [`GeneratorConfig::generate`]
//! synthesises statistically equivalent ones. The per-data-center parameter
//! distributions below are calibrated against every distribution the paper
//! publishes: the CPU peak-to-average and CoV CDFs (Figs 2–3), the memory
//! equivalents (Figs 4–5), the CPU/memory resource-ratio CDFs (Fig 6) and
//! the Table 2 server counts and utilisations. Integration tests in the
//! workspace (`tests/figure_shapes.rs`) assert those targets.

use crate::series::TimeSeries;
use crate::stats;
use crate::synth::BoundedPareto;
use crate::warehouse::SourceId;
use crate::workload::{
    BatchProfile, CpuProfile, MemoryProfile, WebProfile, WorkloadClass, HOURS_PER_DAY,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// One of the four studied data centers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataCenterId {
    /// Workload A — production data center of a Fortune 100 bank.
    Banking,
    /// Workload B — data center of one of the largest airlines.
    Airlines,
    /// Workload C — primary data center of a Fortune 500 mining company.
    NaturalResources,
    /// Workload D — one of the largest beverage companies.
    Beverage,
}

impl DataCenterId {
    /// All four data centers in the paper's order (A–D).
    pub const ALL: [DataCenterId; 4] = [
        DataCenterId::Banking,
        DataCenterId::Airlines,
        DataCenterId::NaturalResources,
        DataCenterId::Beverage,
    ];

    /// The paper's single-letter name (A–D).
    #[must_use]
    pub fn letter(self) -> char {
        match self {
            DataCenterId::Banking => 'A',
            DataCenterId::Airlines => 'B',
            DataCenterId::NaturalResources => 'C',
            DataCenterId::Beverage => 'D',
        }
    }

    /// The data center named by its single letter (A–D), the inverse
    /// of [`letter`](Self::letter).
    #[must_use]
    pub fn from_letter(letter: char) -> Option<Self> {
        Self::ALL.into_iter().find(|d| d.letter() == letter)
    }

    /// Industry label from Table 2.
    #[must_use]
    pub fn industry(self) -> &'static str {
        match self {
            DataCenterId::Banking => "Banking",
            DataCenterId::Airlines => "Airlines",
            DataCenterId::NaturalResources => "Natural Resources",
            DataCenterId::Beverage => "Beverage",
        }
    }

    /// Number of source servers (Table 2).
    #[must_use]
    pub fn server_count(self) -> usize {
        match self {
            DataCenterId::Banking => 816,
            DataCenterId::Airlines => 445,
            DataCenterId::NaturalResources => 1390,
            DataCenterId::Beverage => 722,
        }
    }

    /// Mean CPU utilisation in percent (Table 2).
    #[must_use]
    pub fn table2_cpu_util_pct(self) -> f64 {
        match self {
            DataCenterId::Banking => 5.0,
            DataCenterId::Airlines => 1.0,
            DataCenterId::NaturalResources => 12.0,
            DataCenterId::Beverage => 6.0,
        }
    }

    /// Fraction of servers hosting web-based workloads. §3.2: "Workload A
    /// has the highest fraction of web-based workload servers, followed by
    /// D, B and C."
    #[must_use]
    pub fn web_fraction(self) -> f64 {
        match self {
            DataCenterId::Banking => 0.75,
            DataCenterId::Airlines => 0.40,
            DataCenterId::NaturalResources => 0.20,
            DataCenterId::Beverage => 0.60,
        }
    }
}

impl fmt::Display for DataCenterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.industry())
    }
}

/// A monitored source server: hardware capacity plus 30+ days of hourly
/// CPU and memory demand.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceServer {
    /// Warehouse identifier.
    pub id: SourceId,
    /// Human-readable name, e.g. `bank-0042`.
    pub name: String,
    /// Web or batch (§3.2 labelling).
    pub class: WorkloadClass,
    /// CPU capacity in RPE2 units (IDEAS Relative Performance Estimate 2).
    pub cpu_capacity_rpe2: f64,
    /// Installed memory in MB.
    pub mem_capacity_mb: f64,
    /// Peak network throughput this server drives, in Mbit/s. The
    /// planners use it as an admission constraint: §3.1, "using network
    /// and disk throughput as constraints to identify hosts with
    /// sufficient link bandwidth".
    pub net_peak_mbps: f64,
    /// Hourly CPU utilisation as a fraction of this server's capacity.
    pub cpu_used_frac: TimeSeries,
    /// Hourly committed memory in MB.
    pub mem_used_mb: TimeSeries,
}

impl SourceServer {
    /// Hourly CPU demand in absolute RPE2 units.
    #[must_use]
    pub fn cpu_demand_rpe2(&self) -> TimeSeries {
        self.cpu_used_frac.scale(self.cpu_capacity_rpe2)
    }

    /// Mean CPU utilisation over the whole trace, in percent.
    #[must_use]
    pub fn mean_cpu_util_pct(&self) -> f64 {
        self.cpu_used_frac.mean().unwrap_or(0.0) * 100.0
    }
}

/// A generated data-center workload.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedWorkload {
    /// Which data center this models.
    pub dc: DataCenterId,
    /// Trace length in days.
    pub days: usize,
    /// The source servers with their traces.
    pub servers: Vec<SourceServer>,
}

impl GeneratedWorkload {
    /// Trace length in hours.
    #[must_use]
    pub fn hours(&self) -> usize {
        self.days * HOURS_PER_DAY
    }

    /// Hourly aggregate CPU demand across all servers, in RPE2.
    #[must_use]
    pub fn aggregate_cpu_rpe2(&self) -> TimeSeries {
        self.servers
            .iter()
            .map(SourceServer::cpu_demand_rpe2)
            .reduce(|a, b| a.add(&b))
            .unwrap_or_else(|| TimeSeries::empty(crate::series::StepSecs::HOUR))
    }

    /// Hourly aggregate memory demand across all servers, in MB.
    #[must_use]
    pub fn aggregate_mem_mb(&self) -> TimeSeries {
        self.servers
            .iter()
            .map(|s| s.mem_used_mb.clone())
            .reduce(|a, b| a.add(&b))
            .unwrap_or_else(|| TimeSeries::empty(crate::series::StepSecs::HOUR))
    }

    /// Mean CPU utilisation across servers, in percent (the Table 2 figure).
    #[must_use]
    pub fn mean_cpu_util_pct(&self) -> f64 {
        stats::mean(
            &self
                .servers
                .iter()
                .map(SourceServer::mean_cpu_util_pct)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    }

    /// Number of servers of each class `(web, batch)`.
    #[must_use]
    pub fn class_counts(&self) -> (usize, usize) {
        let web = self
            .servers
            .iter()
            .filter(|s| s.class == WorkloadClass::Web)
            .count();
        (web, self.servers.len() - web)
    }
}

/// Configuration of the synthetic workload generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    dc: DataCenterId,
    scale: f64,
    days: usize,
}

impl GeneratorConfig {
    /// Default trace length: 30 days of planning history plus the 14-day
    /// evaluation window of Table 3.
    pub const DEFAULT_DAYS: usize = 44;

    /// Full-scale configuration for a data center.
    #[must_use]
    pub fn new(dc: DataCenterId) -> Self {
        Self {
            dc,
            scale: 1.0,
            days: Self::DEFAULT_DAYS,
        }
    }

    /// Scales the server count (e.g. `0.1` for quick tests). Clamped so at
    /// least one server is generated.
    #[must_use]
    pub fn scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive, got {scale}");
        self.scale = scale;
        self
    }

    /// Sets the trace length in days.
    #[must_use]
    pub fn days(mut self, days: usize) -> Self {
        assert!(days > 0, "trace must cover at least one day");
        self.days = days;
        self
    }

    /// The configured data center.
    #[must_use]
    pub fn data_center(&self) -> DataCenterId {
        self.dc
    }

    /// Number of servers this configuration will generate.
    #[must_use]
    pub fn server_count(&self) -> usize {
        ((self.dc.server_count() as f64 * self.scale).round() as usize).max(1)
    }

    /// Generates the workload. Deterministic in `(config, seed)`.
    #[must_use]
    pub fn generate(&self, seed: u64) -> GeneratedWorkload {
        let salt = match self.dc {
            DataCenterId::Banking => 0xA,
            DataCenterId::Airlines => 0xB,
            DataCenterId::NaturalResources => 0xC,
            DataCenterId::Beverage => 0xD,
        };
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt);
        let n = self.server_count();
        let hours = self.days * HOURS_PER_DAY;
        let prefix = match self.dc {
            DataCenterId::Banking => "bank",
            DataCenterId::Airlines => "air",
            DataCenterId::NaturalResources => "mine",
            DataCenterId::Beverage => "bev",
        };
        let events = event_trains(self.dc, &mut rng, hours);
        let servers = (0..n)
            .map(|i| {
                let sampled = sample_server(self.dc, &mut rng);
                let group = rng.random_range(0..events.len());
                let cpu = sampled.cpu.generate(&mut rng, hours, &events[group]);
                let mem = sampled.mem.generate(&mut rng, &cpu);
                // Web servers push traffic proportional to their CPU peak
                // (tens to a few hundred Mbit/s); batch jobs read from SAN
                // and drive far less front-end network.
                let peak_cpu = cpu.max().unwrap_or(0.0);
                let net_peak_mbps = match sampled.cpu.class() {
                    WorkloadClass::Web => 40.0 + 500.0 * peak_cpu,
                    WorkloadClass::Batch => 10.0 + 80.0 * peak_cpu,
                };
                SourceServer {
                    id: SourceId(i as u32),
                    name: format!("{prefix}-{i:04}"),
                    class: sampled.cpu.class(),
                    cpu_capacity_rpe2: sampled.rpe2,
                    mem_capacity_mb: sampled.mem_capacity_mb,
                    net_peak_mbps,
                    cpu_used_frac: cpu,
                    mem_used_mb: mem,
                }
            })
            .collect();
        GeneratedWorkload {
            dc: self.dc,
            days: self.days,
            servers,
        }
    }
}

/// Everything sampled per server before trace generation.
struct SampledServer {
    cpu: CpuProfile,
    mem: MemoryProfile,
    rpe2: f64,
    mem_capacity_mb: f64,
}

fn uni(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    rng.random_range(lo..hi)
}

/// Builds the per-application-group correlated event trains.
///
/// Load surges — a market move for a bank, a fare sale for an airline, a
/// campaign for a beverage brand — hit every server of the affected
/// *application* in the same hours. Different applications surge at
/// different times, which is precisely the structure the stochastic
/// planner's peak clustering exploits ("correlation between workloads is
/// stable over time", Observation 5 citing \[27\]): servers of one group
/// must be provisioned for their simultaneous peaks, while servers of
/// different groups can share headroom. Individual servers additionally
/// spike idiosyncratically, but uncorrelated spikes average out across
/// hundreds of machines.
fn event_trains(dc: DataCenterId, rng: &mut StdRng, hours: usize) -> Vec<Vec<f64>> {
    struct EventParams {
        groups: usize,
        /// Range of characteristic hours-of-day events recur at.
        char_hours: std::ops::Range<usize>,
        /// Probability an event fires on a given day.
        daily_prob: f64,
        /// Range of stable per-group magnitudes.
        base_mag: (f64, f64),
        /// Day-to-day magnitude variation: the multiplier is
        /// `1 + var_span * u^var_shape` for uniform `u`, so most days sit
        /// near the base magnitude and rare days overshoot — the days that
        /// overwhelm the dynamic planner's predictions (Fig 9).
        var_span: f64,
        /// Concentration of the variation (higher = rarer big days).
        var_shape: f64,
        /// Range of event durations in hours.
        width: std::ops::Range<usize>,
    }
    let p = match dc {
        // Many trading/online-banking apps surging around market hours,
        // nearly every weekday, hard.
        DataCenterId::Banking => EventParams {
            groups: 10,
            char_hours: 11..15,
            daily_prob: 0.95,
            base_mag: (1.8, 3.4),
            var_span: 0.35,
            var_shape: 6.0,
            width: 4..7,
        },
        // Reservation load is planned capacity; rare, mild surges.
        DataCenterId::Airlines => EventParams {
            groups: 6,
            char_hours: 0..24,
            daily_prob: 0.25,
            base_mag: (1.3, 2.2),
            var_span: 0.4,
            var_shape: 4.0,
            width: 2..5,
        },
        // Mostly internal users; few external surges.
        DataCenterId::NaturalResources => EventParams {
            groups: 8,
            char_hours: 0..24,
            daily_prob: 0.2,
            base_mag: (1.3, 2.5),
            var_span: 0.4,
            var_shape: 4.0,
            width: 2..5,
        },
        // Campaign-driven spikes almost as heavy as Banking's.
        DataCenterId::Beverage => EventParams {
            groups: 8,
            char_hours: 8..21,
            daily_prob: 0.75,
            base_mag: (2.0, 5.0),
            var_span: 0.55,
            var_shape: 5.0,
            width: 2..6,
        },
    };
    let days = hours.div_ceil(HOURS_PER_DAY);
    (0..p.groups)
        .map(|_| {
            let char_hour = rng.random_range(p.char_hours.clone());
            let base = uni(rng, p.base_mag.0, p.base_mag.1);
            let mut train = vec![1.0_f64; hours];
            for day in 0..days {
                if rng.random::<f64>() >= p.daily_prob {
                    continue;
                }
                let jitter: i64 = rng.random_range(0..=1);
                let start = (day * HOURS_PER_DAY) as i64 + char_hour as i64 + jitter;
                let width = rng.random_range(p.width.clone());
                let var = 1.0 + p.var_span * rng.random::<f64>().powf(p.var_shape);
                let mag = 1.0 + (base - 1.0) * var;
                for (offset, t) in (start..start + width as i64).enumerate() {
                    if t < 0 || t as usize >= hours {
                        continue;
                    }
                    // Plateau with a soft ramp-down in the final hour.
                    let shape = if offset + 1 == width { 0.6 } else { 1.0 };
                    let level = 1.0 + (mag - 1.0) * shape;
                    train[t as usize] = train[t as usize].max(level);
                }
            }
            train
        })
        .collect()
}

/// Draws the hardware and workload profile of one server according to the
/// data center's calibrated parameter distributions.
fn sample_server(dc: DataCenterId, rng: &mut StdRng) -> SampledServer {
    let is_web = rng.random::<f64>() < dc.web_fraction();
    match dc {
        DataCenterId::Banking => sample_banking(rng, is_web),
        DataCenterId::Airlines => sample_airlines(rng, is_web),
        DataCenterId::NaturalResources => sample_natural_resources(rng, is_web),
        DataCenterId::Beverage => sample_beverage(rng, is_web),
    }
}

/// Banking (A): 75% web, very bursty CPU (P/A > 5 for half the servers,
/// CoV ≥ 1 for >50%), CPU-intensive in aggregate (resource ratio above the
/// HS23 blade's 160 for ~70% of intervals), ~20% of servers with memory
/// CoV > 1.
fn sample_banking(rng: &mut StdRng, is_web: bool) -> SampledServer {
    let rpe2 = uni(rng, 5500.0, 9500.0);
    let mem_capacity_mb = uni(rng, 4096.0, 16384.0);
    if is_web {
        // Burstiness tier: most web servers in a bank are highly spiky.
        let burst = rng.random::<f64>();
        let base = uni(rng, 0.004, 0.010);
        let amp = uni(rng, 0.035, 0.11);
        let cpu = CpuProfile::Web(WebProfile {
            base_frac: base,
            diurnal_amp: amp,
            weekend_factor: uni(rng, 0.2, 0.5),
            spike_rate: if burst > 0.55 {
                uni(rng, 0.004, 0.010)
            } else {
                0.001 + 0.004 * burst
            },
            spike_magnitude: if burst > 0.55 {
                // Fig 2(a) at 1 h windows: ~30% of servers sit at
                // P/A ≥ 10, so the top burst tier needs spikes that
                // reach an order of magnitude above the mean level.
                // The floor carries that tail; the ceiling stays
                // moderate so peak-sized (semi-static) provisioning
                // is not inflated past the Fig 13 crossings.
                BoundedPareto::new(uni(rng, 1.0, 1.4), 8.0, 16.0)
            } else {
                BoundedPareto::new(uni(rng, 1.2, 1.8), 1.5, 3.0)
            },
            spike_width_hours: uni(rng, 1.0, 3.0),
            // Market-wide events hit every exposed server at once, so a
            // stronger gain raises the *aggregate* hourly peak the
            // dynamic planner must ride without moving per-server peaks
            // (which size the semi-static plan) — that coupling is what
            // keeps the Fig 13 crossing at U = 0.70.
            event_gain: uni(rng, 0.6, 1.6),
            noise_std: uni(rng, 0.04, 0.10),
        });
        let b = mem_capacity_mb * uni(rng, 0.08, 0.18);
        let mem = MemoryProfile {
            base_mb: b,
            cpu_coupled_mb: b * uni(rng, 0.08, 0.35),
            coupling_exponent: 0.6,
            noise_std_mb: b * 0.015,
        };
        SampledServer {
            cpu,
            mem,
            rpe2,
            mem_capacity_mb,
        }
    } else {
        let cpu = CpuProfile::Batch(BatchProfile {
            idle_frac: uni(rng, 0.008, 0.03),
            job_start_hour: rng.random_range(0..7),
            job_hours: rng.random_range(2..5),
            job_frac: uni(rng, 0.10, 0.40),
            skip_probability: 0.05,
            month_end_boost: uni(rng, 1.0, 1.8),
            daily_growth: 0.0,
            noise_std: uni(rng, 0.05, 0.15),
        });
        // Batch jobs allocate a large working set while they run and
        // release it afterwards — these servers are the memory-CoV>1
        // population of Fig 5(a).
        let base_mb = uni(rng, 256.0, 512.0);
        let mem = MemoryProfile {
            base_mb,
            cpu_coupled_mb: base_mb * uni(rng, 10.0, 16.0),
            coupling_exponent: 1.0,
            noise_std_mb: base_mb * 0.01,
        };
        SampledServer {
            cpu,
            mem,
            rpe2,
            mem_capacity_mb,
        }
    }
}

/// Airlines (B): lowest utilisation (1%), modest burstiness (~30% of
/// servers heavy-tailed in CPU, none in memory), strongly memory-bound —
/// large reservation-system working sets keep the resource ratio below 50
/// at all times (Fig 6(b)).
fn sample_airlines(rng: &mut StdRng, is_web: bool) -> SampledServer {
    let rpe2 = uni(rng, 2000.0, 5000.0);
    let mem_capacity_mb = uni(rng, 16384.0, 65536.0);
    let cpu = if is_web {
        // Fig 3(b): ~30% of *all* servers are heavy-tailed (CoV ≥ 1),
        // and web servers are the only plausibly spiky population —
        // so most of the 40% web share must spike hard enough to
        // clear CoV 1 on its own.
        let spiky = rng.random::<f64>() < 0.70;
        CpuProfile::Web(WebProfile {
            base_frac: uni(rng, 0.003, 0.008),
            diurnal_amp: uni(rng, 0.004, 0.012),
            weekend_factor: uni(rng, 0.6, 0.9),
            spike_rate: if spiky {
                uni(rng, 0.03, 0.08)
            } else {
                uni(rng, 0.0, 0.004)
            },
            spike_magnitude: BoundedPareto::new(uni(rng, 1.0, 1.5), 4.0, 14.0),
            spike_width_hours: uni(rng, 1.0, 2.0),
            event_gain: uni(rng, 0.2, 0.6),
            noise_std: uni(rng, 0.05, 0.15),
        })
    } else {
        CpuProfile::Batch(BatchProfile {
            idle_frac: uni(rng, 0.004, 0.009),
            job_start_hour: rng.random_range(0..24),
            job_hours: rng.random_range(1..4),
            job_frac: uni(rng, 0.015, 0.04),
            skip_probability: 0.1,
            month_end_boost: uni(rng, 1.0, 1.3),
            daily_growth: 0.0,
            noise_std: uni(rng, 0.04, 0.1),
        })
    };
    let base_mb = mem_capacity_mb * uni(rng, 0.45, 0.75);
    let mem = MemoryProfile {
        base_mb,
        cpu_coupled_mb: base_mb * uni(rng, 0.02, 0.10),
        coupling_exponent: 0.7,
        noise_std_mb: base_mb * 0.008,
    };
    SampledServer {
        cpu,
        mem,
        rpe2,
        mem_capacity_mb,
    }
}

/// Natural Resources (C): highest server count and utilisation (12%),
/// batch-heavy custom applications with moderate, scheduled variability
/// (~15% heavy-tailed), memory-constrained for >90% of intervals.
fn sample_natural_resources(rng: &mut StdRng, is_web: bool) -> SampledServer {
    let rpe2 = uni(rng, 3000.0, 7000.0);
    let mem_capacity_mb = uni(rng, 8192.0, 32768.0);
    let cpu = if is_web {
        CpuProfile::Web(WebProfile {
            base_frac: uni(rng, 0.02, 0.06),
            diurnal_amp: uni(rng, 0.05, 0.15),
            weekend_factor: uni(rng, 0.4, 0.8),
            spike_rate: uni(rng, 0.005, 0.03),
            spike_magnitude: BoundedPareto::new(uni(rng, 1.2, 2.0), 2.0, 12.0),
            spike_width_hours: uni(rng, 1.0, 2.5),
            event_gain: uni(rng, 0.1, 0.5),
            noise_std: uni(rng, 0.08, 0.18),
        })
    } else {
        CpuProfile::Batch(BatchProfile {
            idle_frac: uni(rng, 0.04, 0.10),
            // Staggered start hours keep the aggregate flat enough that
            // the data center stays memory-constrained (Fig 6(c)).
            job_start_hour: rng.random_range(0..24),
            job_hours: rng.random_range(4..9),
            job_frac: uni(rng, 0.18, 0.45),
            skip_probability: 0.05,
            month_end_boost: uni(rng, 1.0, 2.0),
            daily_growth: uni(rng, 0.0, 0.004),
            noise_std: uni(rng, 0.05, 0.15),
        })
    };
    let base_mb = mem_capacity_mb * uni(rng, 0.30, 0.55);
    let mem = MemoryProfile {
        base_mb,
        cpu_coupled_mb: base_mb * uni(rng, 0.05, 0.25),
        coupling_exponent: 0.7,
        noise_std_mb: base_mb * 0.01,
    };
    SampledServer {
        cpu,
        mem,
        rpe2,
        mem_capacity_mb,
    }
}

/// Beverage (D): burstiness comparable to Banking (Figs 2(d), 3(d)) but
/// with larger memory commits, leaving it memory-constrained for >90% of
/// intervals while still more CPU-intensive than Airlines/Natural
/// Resources.
fn sample_beverage(rng: &mut StdRng, is_web: bool) -> SampledServer {
    let rpe2 = uni(rng, 3000.0, 7000.0);
    let mem_capacity_mb = uni(rng, 8192.0, 24576.0);
    if is_web {
        let burst = rng.random::<f64>();
        let cpu = CpuProfile::Web(WebProfile {
            base_frac: uni(rng, 0.005, 0.02),
            diurnal_amp: uni(rng, 0.02, 0.07),
            weekend_factor: uni(rng, 0.4, 0.8),
            spike_rate: 0.003 + 0.012 * burst,
            spike_magnitude: BoundedPareto::new(uni(rng, 1.1, 1.8), 2.0, 6.0),
            spike_width_hours: uni(rng, 1.0, 3.0),
            event_gain: uni(rng, 0.3, 0.9),
            noise_std: uni(rng, 0.1, 0.2),
        });
        let coupled_heavy = rng.random::<f64>() < 0.10;
        let (base_mb, coupled_mb) = if coupled_heavy {
            let b = uni(rng, 300.0, 600.0);
            (b, b * uni(rng, 1.8, 3.5))
        } else {
            let b = mem_capacity_mb * uni(rng, 0.13, 0.27);
            (b, b * uni(rng, 0.05, 0.3))
        };
        let mem = MemoryProfile {
            base_mb,
            cpu_coupled_mb: coupled_mb,
            coupling_exponent: 0.6,
            noise_std_mb: base_mb * 0.012,
        };
        SampledServer {
            cpu,
            mem,
            rpe2,
            mem_capacity_mb,
        }
    } else {
        let cpu = CpuProfile::Batch(BatchProfile {
            idle_frac: uni(rng, 0.01, 0.05),
            job_start_hour: rng.random_range(0..8),
            job_hours: rng.random_range(2..7),
            job_frac: uni(rng, 0.15, 0.5),
            skip_probability: 0.05,
            month_end_boost: uni(rng, 1.0, 2.2),
            daily_growth: 0.0,
            noise_std: uni(rng, 0.05, 0.15),
        });
        let base_mb = mem_capacity_mb * uni(rng, 0.14, 0.28);
        let mem = MemoryProfile {
            base_mb,
            cpu_coupled_mb: base_mb * uni(rng, 0.1, 0.35),
            coupling_exponent: 0.7,
            noise_std_mb: base_mb * 0.01,
        };
        SampledServer {
            cpu,
            mem,
            rpe2,
            mem_capacity_mb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(dc: DataCenterId) -> GeneratedWorkload {
        GeneratorConfig::new(dc).scale(0.08).days(14).generate(7)
    }

    #[test]
    fn table2_metadata() {
        assert_eq!(DataCenterId::Banking.server_count(), 816);
        assert_eq!(DataCenterId::Airlines.server_count(), 445);
        assert_eq!(DataCenterId::NaturalResources.server_count(), 1390);
        assert_eq!(DataCenterId::Beverage.server_count(), 722);
        assert_eq!(DataCenterId::Banking.letter(), 'A');
        assert_eq!(DataCenterId::Beverage.letter(), 'D');
        assert_eq!(DataCenterId::ALL.len(), 4);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small(DataCenterId::Banking);
        let b = small(DataCenterId::Banking);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GeneratorConfig::new(DataCenterId::Banking)
            .scale(0.02)
            .days(3);
        assert_ne!(cfg.generate(1), cfg.generate(2));
    }

    #[test]
    fn scale_controls_server_count() {
        let cfg = GeneratorConfig::new(DataCenterId::Airlines).scale(0.1);
        assert_eq!(cfg.server_count(), 45);
        let tiny = GeneratorConfig::new(DataCenterId::Airlines).scale(0.0001);
        assert_eq!(tiny.server_count(), 1);
    }

    #[test]
    fn traces_have_requested_length() {
        let w = small(DataCenterId::Beverage);
        assert_eq!(w.hours(), 14 * 24);
        for s in &w.servers {
            assert_eq!(s.cpu_used_frac.len(), w.hours());
            assert_eq!(s.mem_used_mb.len(), w.hours());
        }
    }

    #[test]
    fn utilisation_fractions_are_valid() {
        for dc in DataCenterId::ALL {
            let w = small(dc);
            for s in &w.servers {
                assert!(
                    s.cpu_used_frac.iter().all(|v| (0.0..=1.0).contains(&v)),
                    "{dc}: cpu fraction out of range"
                );
                assert!(
                    s.mem_used_mb.iter().all(|v| v >= 1.0),
                    "{dc}: memory below 1 MB"
                );
            }
        }
    }

    #[test]
    fn mean_utilisation_tracks_table2() {
        // Full server counts but short traces keep this fast while giving
        // enough servers for the mean to stabilise.
        for dc in DataCenterId::ALL {
            let w = GeneratorConfig::new(dc).scale(0.25).days(10).generate(11);
            let measured = w.mean_cpu_util_pct();
            let expected = dc.table2_cpu_util_pct();
            assert!(
                (measured - expected).abs() / expected < 0.5,
                "{dc}: measured {measured:.2}% vs Table 2 {expected}%"
            );
        }
    }

    #[test]
    fn web_fraction_is_respected() {
        let w = GeneratorConfig::new(DataCenterId::Banking)
            .scale(0.5)
            .days(2)
            .generate(3);
        let (web, batch) = w.class_counts();
        let frac = web as f64 / (web + batch) as f64;
        assert!((frac - 0.75).abs() < 0.08, "web fraction {frac}");
    }

    #[test]
    fn banking_is_burstier_than_airlines() {
        let banking = small(DataCenterId::Banking);
        let airlines = small(DataCenterId::Airlines);
        let median_cov = |w: &GeneratedWorkload| {
            let covs: Vec<f64> = w
                .servers
                .iter()
                .filter_map(|s| stats::coefficient_of_variability(s.cpu_used_frac.values()))
                .collect();
            stats::percentile(&covs, 50.0).unwrap()
        };
        assert!(median_cov(&banking) > median_cov(&airlines));
    }

    #[test]
    fn memory_less_bursty_than_cpu_everywhere() {
        for dc in DataCenterId::ALL {
            let w = small(dc);
            let mut cpu_pa = Vec::new();
            let mut mem_pa = Vec::new();
            for s in &w.servers {
                cpu_pa.extend(stats::peak_to_average(s.cpu_used_frac.values()));
                mem_pa.extend(stats::peak_to_average(s.mem_used_mb.values()));
            }
            let cpu_med = stats::percentile(&cpu_pa, 50.0).unwrap();
            let mem_med = stats::percentile(&mem_pa, 50.0).unwrap();
            assert!(
                mem_med < cpu_med,
                "{dc}: memory median P/A {mem_med} not below CPU {cpu_med}"
            );
        }
    }

    #[test]
    fn airlines_is_memory_bound() {
        let w = small(DataCenterId::Airlines);
        let cpu = w.aggregate_cpu_rpe2();
        let mem = w.aggregate_mem_mb();
        for (c, m) in cpu.iter().zip(mem.iter()) {
            let ratio = c / (m / 1024.0);
            assert!(ratio < 50.0, "Airlines resource ratio {ratio} not < 50");
        }
    }

    #[test]
    fn aggregates_have_trace_length() {
        let w = small(DataCenterId::NaturalResources);
        assert_eq!(w.aggregate_cpu_rpe2().len(), w.hours());
        assert_eq!(w.aggregate_mem_mb().len(), w.hours());
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_is_rejected() {
        let _ = GeneratorConfig::new(DataCenterId::Banking).scale(0.0);
    }
}
