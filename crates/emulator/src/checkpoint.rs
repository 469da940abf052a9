//! Crash-safe replay checkpoints.
//!
//! A [`ReplayCheckpoint`] captures the complete mutable state of a
//! [`Replay`](crate::engine::Replay) at an hour boundary — accumulators,
//! per-hour series, fault bookkeeping (in-effect placement, crashed
//! hosts, down VMs), last-good sample holds, and the next hour to replay
//! — so an interrupted study can resume and produce a report
//! *bit-identical* to an uninterrupted run. The keyed fault streams of
//! [`faults`](crate::faults) carry no RNG state, so recording the seed
//! (via the resume fingerprint) is all the "RNG stream position" a
//! checkpoint needs.
//!
//! The wire format is a versioned, line-oriented text encoding. Every
//! `f64` is written as the hexadecimal of its IEEE-754 bit pattern, so a
//! decode→encode round trip is byte-exact and resumed arithmetic starts
//! from the *same bits* the interrupted run held. Decoding is strict:
//! any malformed token yields a [`CheckpointError::Corrupt`] carrying the
//! byte offset of the offending line, and nothing is handed to the
//! engine.

use std::error::Error;
use std::fmt;
use vmcw_cluster::datacenter::HostId;
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;

use crate::engine::HourSummary;
use crate::faults::{FaultConfig, FaultLedger};
use crate::validate::InvariantViolation;

/// Version of the checkpoint wire format. v2 lists only the last-good
/// samples a resume cannot rebuild from the trace (see
/// [`ReplayCheckpoint::last_good`]); v1 checkpoints are refused.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Version of the report wire format ([`encode_report`]). Separate from
/// [`CHECKPOINT_VERSION`]: the report bytes feed the `digest` column of
/// a study's `cells.csv`, so they change only with the report itself.
pub const REPORT_VERSION: u32 = 1;

/// Errors raised when decoding, validating, or resuming from a
/// checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The payload is malformed; `offset` is the byte offset of the
    /// offending line within the payload (or journal record).
    Corrupt {
        /// Byte offset of the line that failed to parse.
        offset: usize,
        /// What was wrong.
        detail: String,
    },
    /// The checkpoint was written by an incompatible format version.
    Version {
        /// The version found in the payload.
        found: u32,
    },
    /// The checkpoint does not belong to the plan/config being resumed
    /// (wrong fingerprint, host count, hour range, ...).
    Mismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A replay invariant was violated at a checkpoint boundary.
    Invariant(InvariantViolation),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Corrupt { offset, detail } => {
                write!(f, "corrupt checkpoint at byte offset {offset}: {detail}")
            }
            CheckpointError::Version { found } => write!(
                f,
                "wire format v{found} is not supported (checkpoints are \
                 v{CHECKPOINT_VERSION}, reports v{REPORT_VERSION}; a journal from another \
                 version cannot be resumed)"
            ),
            CheckpointError::Mismatch { detail } => {
                write!(f, "checkpoint does not match this run: {detail}")
            }
            CheckpointError::Invariant(v) => v.fmt(f),
        }
    }
}

impl Error for CheckpointError {}

impl From<InvariantViolation> for CheckpointError {
    fn from(v: InvariantViolation) -> Self {
        CheckpointError::Invariant(v)
    }
}

/// Frozen per-host accumulator state (mirrors the engine's internal
/// accumulator; converted back losslessly on resume).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostAccState {
    /// Hours the host was powered on so far.
    pub active_hours: usize,
    /// Sum of hourly CPU utilisations over active hours.
    pub cpu_util_sum: f64,
    /// Sum of hourly memory utilisations over active hours.
    pub mem_util_sum: f64,
    /// Peak CPU utilisation so far.
    pub peak_cpu: f64,
    /// Peak memory utilisation so far.
    pub peak_mem: f64,
    /// Hours with contention so far.
    pub contention_hours: usize,
    /// Hours beyond the reliability thresholds so far.
    pub unreliable_hours: usize,
}

/// Frozen fault-replay bookkeeping (present only for faulted replays).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStateCheckpoint {
    /// The in-effect placement, as per-host VM lists in the engine's
    /// exact storage order (order matters: it fixes the f64 summation
    /// order, hence bit-identity).
    pub current: Vec<(HostId, Vec<VmId>)>,
    /// Per-host down flag as of the captured hour.
    pub was_down: Vec<bool>,
    /// VMs resident on a crashed host, awaiting evacuation or repair.
    pub down_vms: Vec<VmId>,
}

/// Complete replay state at an hour boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayCheckpoint {
    /// Fingerprint of (plan, emulator config, fault config); resume
    /// refuses a checkpoint whose fingerprint differs.
    pub fingerprint: u64,
    /// The next hour to replay (hours `0..hour` are already folded in).
    pub hour: usize,
    /// Total evaluation hours of the run.
    pub total_hours: usize,
    /// Fault tally so far.
    pub ledger: FaultLedger,
    /// Energy accumulated so far, Wh.
    pub energy_wh: f64,
    /// Per-host accumulators (one per provisioned host).
    pub accs: Vec<HostAccState>,
    /// Per-hour summaries for hours `0..hour`.
    pub per_hour: Vec<HourSummary>,
    /// CPU contention samples collected so far.
    pub cpu_contention_samples: Vec<f64>,
    /// Last good sample and staleness per VM (dropout survival state),
    /// in ascending id order — only the entries a resume cannot rebuild.
    ///
    /// In a faulted replay at hour `h > 0` every traced VM has a
    /// *default* entry, `(trace.demand_at(eval.start + h - 1), 0)`:
    /// what stepping it through hour `h - 1` leaves behind. Entries equal
    /// to their default, bit for bit, are left out; [`Self::absent`]
    /// names the traced VMs with no entry at all. Anything else is
    /// listed: stale holds, the older sample of a VM whose host was down
    /// at `h - 1`, every entry of an untraced id, and every entry at
    /// hour 0 or of a plain replay (which has no defaults).
    pub last_good: Vec<(VmId, Resources, usize)>,
    /// Traced VMs without a last-good entry although they have a
    /// default, in ascending id order (see [`Self::last_good`]).
    pub absent: Vec<VmId>,
    /// Fault bookkeeping, if the replay runs under fault injection.
    pub fault: Option<FaultStateCheckpoint>,
}

// --- wire helpers ---------------------------------------------------------

/// Encodes an `f64` as the hex of its IEEE-754 bits — the wire form that
/// makes decode→encode byte-exact.
#[must_use]
pub fn enc_f64(x: f64) -> String {
    let mut out = String::with_capacity(16);
    push_f64(&mut out, x);
    out
}

/// Appends [`enc_f64`]`(x)` to `out` without an intermediate string.
fn push_f64(out: &mut String, x: f64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bits = x.to_bits();
    let mut digits = [0u8; 16];
    for (i, d) in digits.iter_mut().enumerate() {
        *d = HEX[((bits >> (60 - 4 * i)) & 0xf) as usize];
    }
    out.push_str(std::str::from_utf8(&digits).expect("hex digits are ASCII"));
}

/// Appends `" <hex>"` for each of `xs`.
fn push_f64s(out: &mut String, xs: &[f64]) {
    for &x in xs {
        out.push(' ');
        push_f64(out, x);
    }
}

/// FNV-1a 64-bit hash, used for resume fingerprints and report digests.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Streaming [`fnv1a`]: hashing text as it is formatted gives the same
/// value as hashing the finished string, without building it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of no bytes.
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The hash of every byte fed so far.
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Line cursor over a payload, tracking the byte offset of the current
/// line so decode errors can name where the corruption sits.
pub struct Lines<'a> {
    rest: &'a str,
    offset: usize,
}

impl<'a> Lines<'a> {
    /// Starts reading `payload` from its first line.
    #[must_use]
    pub fn new(payload: &'a str) -> Self {
        Self {
            rest: payload,
            offset: 0,
        }
    }

    /// Byte offset of the next unread line.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// A [`CheckpointError::Corrupt`] at the current offset.
    pub fn corrupt(&self, detail: impl Into<String>) -> CheckpointError {
        CheckpointError::Corrupt {
            offset: self.offset,
            detail: detail.into(),
        }
    }

    /// The next line.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] at end of payload.
    pub fn next_line(&mut self) -> Result<&'a str, CheckpointError> {
        if self.rest.is_empty() {
            return Err(self.corrupt("unexpected end of payload"));
        }
        let (line, consumed) = match self.rest.find('\n') {
            Some(i) => (&self.rest[..i], i + 1),
            None => (self.rest, self.rest.len()),
        };
        self.offset += consumed;
        self.rest = &self.rest[consumed..];
        Ok(line)
    }

    /// Reads a line and asserts its first token, returning the remaining
    /// tokens.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] if the line is missing or starts with
    /// a different keyword.
    pub fn expect(&mut self, keyword: &str) -> Result<Toks<'a>, CheckpointError> {
        let at = self.offset;
        let line = self.next_line()?;
        let mut toks = Toks::new(line, at);
        let head = toks.str()?;
        if head != keyword {
            return Err(CheckpointError::Corrupt {
                offset: at,
                detail: format!("expected `{keyword}`, found `{head}`"),
            });
        }
        Ok(toks)
    }
}

/// Whitespace token cursor over one line of the wire format. Every
/// accessor fails with [`CheckpointError::Corrupt`] carrying the line's
/// byte offset.
pub struct Toks<'a> {
    it: std::str::SplitAsciiWhitespace<'a>,
    line_offset: usize,
}

#[allow(missing_docs, clippy::missing_errors_doc)]
impl<'a> Toks<'a> {
    /// Tokenises `line`, reporting errors at `line_offset`.
    #[must_use]
    pub fn new(line: &'a str, line_offset: usize) -> Self {
        Self {
            it: line.split_ascii_whitespace(),
            line_offset,
        }
    }

    fn corrupt(&self, detail: impl Into<String>) -> CheckpointError {
        CheckpointError::Corrupt {
            offset: self.line_offset,
            detail: detail.into(),
        }
    }

    pub fn str(&mut self) -> Result<&'a str, CheckpointError> {
        self.it.next().ok_or_else(|| self.corrupt("missing token"))
    }

    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        let t = self.str()?;
        t.parse()
            .map_err(|_| self.corrupt(format!("bad integer `{t}`")))
    }

    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        let t = self.str()?;
        t.parse()
            .map_err(|_| self.corrupt(format!("bad integer `{t}`")))
    }

    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let t = self.str()?;
        t.parse()
            .map_err(|_| self.corrupt(format!("bad integer `{t}`")))
    }

    pub fn u64_hex(&mut self) -> Result<u64, CheckpointError> {
        let t = self.str()?;
        u64::from_str_radix(t, 16).map_err(|_| self.corrupt(format!("bad hex `{t}`")))
    }

    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64_hex()?))
    }
}

// --- checkpoint encoding --------------------------------------------------

impl ReplayCheckpoint {
    /// Serialises to the versioned wire format.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends [`encode`](Self::encode)'s bytes to `o`, so a caller can
    /// put a record head and the checkpoint in one buffer.
    pub fn encode_into(&self, o: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(o, "ckpt v{CHECKPOINT_VERSION}");
        let _ = writeln!(o, "fp {:016x}", self.fingerprint);
        let _ = writeln!(o, "hour {} of {}", self.hour, self.total_hours);
        o.push_str("energy ");
        push_f64(o, self.energy_wh);
        let _ = writeln!(o, "\nledger {}", encode_ledger(&self.ledger));
        let _ = writeln!(o, "accs {}", self.accs.len());
        for a in &self.accs {
            let _ = write!(o, "a {}", a.active_hours);
            push_f64s(o, &[a.cpu_util_sum, a.mem_util_sum, a.peak_cpu, a.peak_mem]);
            let _ = writeln!(o, " {} {}", a.contention_hours, a.unreliable_hours);
        }
        let _ = writeln!(o, "hours {}", self.per_hour.len());
        for h in &self.per_hour {
            let _ = write!(o, "h {} {}", h.hour, h.active_hosts);
            push_f64s(o, &[h.watts]);
            let _ = write!(o, " {}", h.contended_hosts);
            push_f64s(o, &[h.cpu_contention, h.mem_contention]);
            o.push('\n');
        }
        let _ = write!(o, "samples {}", self.cpu_contention_samples.len());
        push_f64s(o, &self.cpu_contention_samples);
        o.push('\n');
        let _ = writeln!(o, "lastgood {}", self.last_good.len());
        for (vm, r, stale) in &self.last_good {
            let _ = write!(o, "g {}", vm.0);
            push_f64s(o, &[r.cpu_rpe2, r.mem_mb]);
            let _ = writeln!(o, " {stale}");
        }
        let _ = write!(o, "absent {}", self.absent.len());
        for vm in &self.absent {
            let _ = write!(o, " {}", vm.0);
        }
        o.push('\n');
        match &self.fault {
            None => o.push_str("faults 0\n"),
            Some(fs) => {
                o.push_str("faults 1\n");
                let _ = writeln!(o, "current {}", fs.current.len());
                for (host, vms) in &fs.current {
                    let _ = write!(o, "c {} {}", host.0, vms.len());
                    for vm in vms {
                        let _ = write!(o, " {}", vm.0);
                    }
                    o.push('\n');
                }
                o.push_str("wasdown ");
                o.extend(fs.was_down.iter().map(|&d| if d { '1' } else { '0' }));
                let _ = write!(o, "\ndownvms {}", fs.down_vms.len());
                for vm in &fs.down_vms {
                    let _ = write!(o, " {}", vm.0);
                }
                o.push('\n');
            }
        }
        o.push_str("end\n");
    }

    /// Decodes the wire format.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] (with the byte offset of the bad
    /// line) for malformed payloads, [`CheckpointError::Version`] for
    /// unsupported versions.
    pub fn decode(payload: &str) -> Result<Self, CheckpointError> {
        let mut lines = Lines::new(payload);
        let mut head = lines.expect("ckpt")?;
        let v = head.str()?;
        let found: u32 = v
            .strip_prefix('v')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| lines.corrupt(format!("bad version token `{v}`")))?;
        if found != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version { found });
        }
        let fingerprint = lines.expect("fp")?.u64_hex()?;
        let mut t = lines.expect("hour")?;
        let hour = t.usize()?;
        let of = t.str()?;
        if of != "of" {
            return Err(lines.corrupt("malformed hour line"));
        }
        let total_hours = t.usize()?;
        let energy_wh = lines.expect("energy")?.f64()?;
        let mut t = lines.expect("ledger")?;
        let ledger = decode_ledger(&mut t)?;
        let n_accs = lines.expect("accs")?.usize()?;
        let mut accs = Vec::with_capacity(n_accs);
        for _ in 0..n_accs {
            let mut t = lines.expect("a")?;
            accs.push(HostAccState {
                active_hours: t.usize()?,
                cpu_util_sum: t.f64()?,
                mem_util_sum: t.f64()?,
                peak_cpu: t.f64()?,
                peak_mem: t.f64()?,
                contention_hours: t.usize()?,
                unreliable_hours: t.usize()?,
            });
        }
        let n_hours = lines.expect("hours")?.usize()?;
        let mut per_hour = Vec::with_capacity(n_hours);
        for _ in 0..n_hours {
            let mut t = lines.expect("h")?;
            per_hour.push(HourSummary {
                hour: t.usize()?,
                active_hosts: t.usize()?,
                watts: t.f64()?,
                contended_hosts: t.usize()?,
                cpu_contention: t.f64()?,
                mem_contention: t.f64()?,
            });
        }
        let mut t = lines.expect("samples")?;
        let n_samples = t.usize()?;
        let mut cpu_contention_samples = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            cpu_contention_samples.push(t.f64()?);
        }
        let n_good = lines.expect("lastgood")?.usize()?;
        let mut last_good = Vec::with_capacity(n_good);
        for _ in 0..n_good {
            let mut t = lines.expect("g")?;
            last_good.push((
                VmId(t.u32()?),
                Resources::new(t.f64()?, t.f64()?),
                t.usize()?,
            ));
        }
        let mut t = lines.expect("absent")?;
        let n_absent = t.usize()?;
        let mut absent = Vec::with_capacity(n_absent);
        for _ in 0..n_absent {
            absent.push(VmId(t.u32()?));
        }
        let fault = match lines.expect("faults")?.usize()? {
            0 => None,
            1 => {
                let n_hosts = lines.expect("current")?.usize()?;
                let mut current = Vec::with_capacity(n_hosts);
                for _ in 0..n_hosts {
                    let mut t = lines.expect("c")?;
                    let host = HostId(t.u32()?);
                    let k = t.usize()?;
                    let mut vms = Vec::with_capacity(k);
                    for _ in 0..k {
                        vms.push(VmId(t.u32()?));
                    }
                    current.push((host, vms));
                }
                let down_line = lines.expect("wasdown")?;
                let mut was_down = Vec::new();
                {
                    let mut toks = down_line;
                    // A single token of '0'/'1' characters; empty fleet
                    // encodes as a missing token.
                    if let Ok(bits) = toks.str() {
                        for c in bits.chars() {
                            match c {
                                '0' => was_down.push(false),
                                '1' => was_down.push(true),
                                _ => return Err(lines.corrupt("bad wasdown bit")),
                            }
                        }
                    }
                }
                let mut t = lines.expect("downvms")?;
                let k = t.usize()?;
                let mut down_vms = Vec::with_capacity(k);
                for _ in 0..k {
                    down_vms.push(VmId(t.u32()?));
                }
                Some(FaultStateCheckpoint {
                    current,
                    was_down,
                    down_vms,
                })
            }
            other => return Err(lines.corrupt(format!("bad faults flag {other}"))),
        };
        lines.expect("end")?;
        Ok(Self {
            fingerprint,
            hour,
            total_hours,
            ledger,
            energy_wh,
            accs,
            per_hour,
            cpu_contention_samples,
            last_good,
            absent,
            fault,
        })
    }
}

fn encode_ledger(l: &FaultLedger) -> String {
    format!(
        "{} {} {} {} {} {} {}",
        l.host_crashes,
        l.evacuations,
        l.downtime_vm_hours,
        l.failed_migrations,
        l.retried_migrations,
        l.abandoned_migrations,
        l.stale_sample_hours
    )
}

fn decode_ledger(t: &mut Toks<'_>) -> Result<FaultLedger, CheckpointError> {
    Ok(FaultLedger {
        host_crashes: t.usize()?,
        evacuations: t.usize()?,
        downtime_vm_hours: t.usize()?,
        failed_migrations: t.usize()?,
        retried_migrations: t.usize()?,
        abandoned_migrations: t.usize()?,
        stale_sample_hours: t.usize()?,
    })
}

// --- report / cost encoding ----------------------------------------------

/// Canonical byte encoding of an [`EmulationReport`]
/// (`EmulationReport::decode(encode(r)) == r`, bit-for-bit on every
/// float). Studies journal completed cells in this form and the resume
/// golden tests compare these bytes directly.
///
/// [`EmulationReport`]: crate::engine::EmulationReport
#[must_use]
pub fn encode_report(r: &crate::engine::EmulationReport) -> String {
    use std::fmt::Write as _;
    let mut o = String::new();
    let _ = writeln!(o, "report v{REPORT_VERSION}");
    let _ = writeln!(o, "planner {}", r.planner.label());
    let _ = writeln!(o, "hours {} provisioned {}", r.hours, r.provisioned_hosts);
    let _ = writeln!(o, "energy {}", enc_f64(r.energy_kwh));
    let _ = writeln!(o, "migrations {} failed {}", r.migrations, r.failed_migrations);
    let _ = writeln!(o, "ledger {}", encode_ledger(&r.faults));
    let _ = writeln!(o, "perhost {}", r.per_host.len());
    for h in &r.per_host {
        let _ = writeln!(
            o,
            "s {} {} {} {} {} {} {} {}",
            h.host.0,
            h.active_hours,
            enc_f64(h.avg_cpu_util),
            enc_f64(h.peak_cpu_util),
            enc_f64(h.avg_mem_util),
            enc_f64(h.peak_mem_util),
            h.contention_hours,
            h.unreliable_hours
        );
    }
    let _ = writeln!(o, "perhour {}", r.per_hour.len());
    for h in &r.per_hour {
        let _ = writeln!(
            o,
            "h {} {} {} {} {} {}",
            h.hour,
            h.active_hosts,
            enc_f64(h.watts),
            h.contended_hosts,
            enc_f64(h.cpu_contention),
            enc_f64(h.mem_contention)
        );
    }
    let _ = write!(o, "samples {}", r.cpu_contention_samples.len());
    for s in &r.cpu_contention_samples {
        let _ = write!(o, " {}", enc_f64(*s));
    }
    o.push('\n');
    o.push_str("end\n");
    o
}

/// Decodes [`encode_report`] output.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] / [`CheckpointError::Version`] as for
/// checkpoints.
pub fn decode_report(payload: &str) -> Result<crate::engine::EmulationReport, CheckpointError> {
    use crate::engine::{EmulationReport, HostSummary};
    let mut lines = Lines::new(payload);
    let mut head = lines.expect("report")?;
    let v = head.str()?;
    let found: u32 = v
        .strip_prefix('v')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| lines.corrupt(format!("bad version token `{v}`")))?;
    if found != REPORT_VERSION {
        return Err(CheckpointError::Version { found });
    }
    let label = lines.expect("planner")?.str()?.to_owned();
    let planner = vmcw_consolidation::planner::PlannerKind::parse(&label)
        .ok_or_else(|| lines.corrupt(format!("unknown planner `{label}`")))?;
    let mut t = lines.expect("hours")?;
    let hours = t.usize()?;
    let _ = t.str()?; // "provisioned"
    let provisioned_hosts = t.usize()?;
    let energy_kwh = lines.expect("energy")?.f64()?;
    let mut t = lines.expect("migrations")?;
    let migrations = t.usize()?;
    let _ = t.str()?; // "failed"
    let failed_migrations = t.usize()?;
    let mut t = lines.expect("ledger")?;
    let faults = decode_ledger(&mut t)?;
    let n = lines.expect("perhost")?.usize()?;
    let mut per_host = Vec::with_capacity(n);
    for _ in 0..n {
        let mut t = lines.expect("s")?;
        per_host.push(HostSummary {
            host: HostId(t.u32()?),
            active_hours: t.usize()?,
            avg_cpu_util: t.f64()?,
            peak_cpu_util: t.f64()?,
            avg_mem_util: t.f64()?,
            peak_mem_util: t.f64()?,
            contention_hours: t.usize()?,
            unreliable_hours: t.usize()?,
        });
    }
    let n = lines.expect("perhour")?.usize()?;
    let mut per_hour = Vec::with_capacity(n);
    for _ in 0..n {
        let mut t = lines.expect("h")?;
        per_hour.push(HourSummary {
            hour: t.usize()?,
            active_hosts: t.usize()?,
            watts: t.f64()?,
            contended_hosts: t.usize()?,
            cpu_contention: t.f64()?,
            mem_contention: t.f64()?,
        });
    }
    let mut t = lines.expect("samples")?;
    let n = t.usize()?;
    let mut cpu_contention_samples = Vec::with_capacity(n);
    for _ in 0..n {
        cpu_contention_samples.push(t.f64()?);
    }
    lines.expect("end")?;
    Ok(EmulationReport {
        planner,
        hours,
        provisioned_hosts,
        per_host,
        per_hour,
        energy_kwh,
        cpu_contention_samples,
        migrations,
        failed_migrations,
        faults,
    })
}

/// Single-line encoding of a [`CostSummary`](crate::report::CostSummary)
/// (bit-exact, as [`enc_f64`]).
#[must_use]
pub fn encode_cost(c: &crate::report::CostSummary) -> String {
    format!(
        "cost {} {} {} {}",
        c.provisioned_hosts,
        enc_f64(c.space_cost),
        enc_f64(c.energy_kwh),
        enc_f64(c.power_cost)
    )
}

/// Decodes [`encode_cost`] output.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] on malformed payloads.
pub fn decode_cost(line: &str) -> Result<crate::report::CostSummary, CheckpointError> {
    let mut t = Toks::new(line, 0);
    let head = t.str()?;
    if head != "cost" {
        return Err(CheckpointError::Corrupt {
            offset: 0,
            detail: format!("expected `cost`, found `{head}`"),
        });
    }
    Ok(crate::report::CostSummary {
        provisioned_hosts: t.usize()?,
        space_cost: t.f64()?,
        energy_kwh: t.f64()?,
        power_cost: t.f64()?,
    })
}

/// Single-line encoding of a [`FaultConfig`] (used in study journals and
/// resume fingerprints).
#[must_use]
pub fn encode_fault_config(f: &FaultConfig) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {} {} {} {} {}",
        f.seed,
        enc_f64(f.host_mtbf_hours),
        enc_f64(f.host_mttr_hours),
        enc_f64(f.migration_failure_prob),
        u8::from(f.enforce_reliability_thresholds),
        enc_f64(f.trace_dropout_prob),
        f.max_stale_hours,
        enc_f64(f.evacuation_bounds.0),
        enc_f64(f.evacuation_bounds.1),
        f.retry.max_attempts,
        enc_f64(f.retry.base_backoff_secs),
        enc_f64(f.retry.backoff_factor),
        enc_f64(f.retry.timeout_budget_secs),
    )
}

/// Decodes [`encode_fault_config`] output from a token cursor.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] on malformed tokens or an invalid
/// resulting configuration.
pub fn decode_fault_config(t: &mut Toks<'_>) -> Result<FaultConfig, CheckpointError> {
    let mut f = FaultConfig::disabled();
    f.seed = t.u64()?;
    f.host_mtbf_hours = t.f64()?;
    f.host_mttr_hours = t.f64()?;
    f.migration_failure_prob = t.f64()?;
    f.enforce_reliability_thresholds = t.usize()? != 0;
    f.trace_dropout_prob = t.f64()?;
    f.max_stale_hours = t.usize()?;
    f.evacuation_bounds = (t.f64()?, t.f64()?);
    f.retry.max_attempts = t.u32()?;
    f.retry.base_backoff_secs = t.f64()?;
    f.retry.backoff_factor = t.f64()?;
    f.retry.timeout_budget_secs = t.f64()?;
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_fnv1a_matches_the_one_shot_hash() {
        use std::fmt::Write as _;
        let text = "Dynamic|102|72|3ff0000000000000|faults none|w2|0 3;1 4;|";
        let mut h = Fnv1a::new();
        for piece in text.split_inclusive(';') {
            h.write_str(piece).unwrap();
        }
        assert_eq!(h.finish(), fnv1a(text.as_bytes()));
        assert_eq!(Fnv1a::new().finish(), fnv1a(b""));
    }

    fn sample_checkpoint() -> ReplayCheckpoint {
        ReplayCheckpoint {
            fingerprint: 0xdead_beef_1234_5678,
            hour: 3,
            total_hours: 72,
            ledger: FaultLedger {
                host_crashes: 1,
                stale_sample_hours: 4,
                ..FaultLedger::default()
            },
            energy_wh: 1234.5678,
            accs: vec![
                HostAccState {
                    active_hours: 3,
                    cpu_util_sum: 1.25,
                    mem_util_sum: 0.5,
                    peak_cpu: 0.9,
                    peak_mem: 0.4,
                    contention_hours: 0,
                    unreliable_hours: 1,
                },
                HostAccState {
                    active_hours: 0,
                    cpu_util_sum: 0.0,
                    mem_util_sum: 0.0,
                    peak_cpu: 0.0,
                    peak_mem: 0.0,
                    contention_hours: 0,
                    unreliable_hours: 0,
                },
            ],
            per_hour: vec![HourSummary {
                hour: 0,
                active_hosts: 2,
                watts: 700.25,
                contended_hosts: 0,
                cpu_contention: 0.0,
                mem_contention: 0.0,
            }],
            cpu_contention_samples: vec![0.125, f64::MIN_POSITIVE],
            last_good: vec![(VmId(7), Resources::new(12.5, 800.0), 2)],
            absent: vec![VmId(2), VmId(9)],
            fault: Some(FaultStateCheckpoint {
                current: vec![(HostId(0), vec![VmId(7), VmId(2)]), (HostId(1), vec![VmId(1)])],
                was_down: vec![false, true],
                down_vms: vec![VmId(1)],
            }),
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let c = sample_checkpoint();
        let wire = c.encode();
        let d = ReplayCheckpoint::decode(&wire).unwrap();
        assert_eq!(c, d);
        // Re-encoding yields the identical bytes.
        assert_eq!(wire, d.encode());
    }

    #[test]
    fn plain_checkpoint_without_faults_round_trips() {
        let mut c = sample_checkpoint();
        c.fault = None;
        c.last_good.clear();
        c.absent.clear();
        let d = ReplayCheckpoint::decode(&c.encode()).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn truncated_checkpoint_reports_offset() {
        let wire = sample_checkpoint().encode();
        let cut = &wire[..wire.len() / 2];
        let err = ReplayCheckpoint::decode(cut).unwrap_err();
        match err {
            CheckpointError::Corrupt { offset, .. } => assert!(offset <= cut.len()),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_token_reports_offset_of_its_line() {
        let wire = sample_checkpoint().encode();
        let bad = wire.replace("energy", "enemy");
        let err = ReplayCheckpoint::decode(&bad).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("byte offset"));
    }

    #[test]
    fn future_version_is_rejected() {
        let wire = sample_checkpoint().encode().replace("ckpt v2", "ckpt v9");
        assert_eq!(
            ReplayCheckpoint::decode(&wire).unwrap_err(),
            CheckpointError::Version { found: 9 }
        );
    }

    #[test]
    fn v1_checkpoint_is_refused_cleanly() {
        // A v1 body: the version line, and every last-good entry listed
        // with no `absent` line.
        let v2 = sample_checkpoint().encode();
        let v1 = v2
            .replace("ckpt v2", "ckpt v1")
            .replace("absent 2 2 9\n", "");
        assert_ne!(v1, v2);
        let err = ReplayCheckpoint::decode(&v1).unwrap_err();
        assert_eq!(err, CheckpointError::Version { found: 1 });
        assert!(err.to_string().contains("v1 is not supported"), "{err}");
    }

    #[test]
    fn wire_lines_keep_their_layout() {
        let wire = sample_checkpoint().encode();
        let lines: Vec<&str> = wire.lines().collect();
        assert_eq!(lines[0], "ckpt v2");
        assert_eq!(lines[3], format!("energy {}", enc_f64(1234.5678)));
        assert!(wire.contains(&format!(
            "\na 3 {} {} {} {} 0 1\n",
            enc_f64(1.25),
            enc_f64(0.5),
            enc_f64(0.9),
            enc_f64(0.4)
        )));
        assert!(wire.contains(&format!(
            "\nh 0 2 {} 0 {} {}\n",
            enc_f64(700.25),
            enc_f64(0.0),
            enc_f64(0.0)
        )));
        assert!(wire.contains(&format!(
            "\nlastgood 1\ng 7 {} {} 2\nabsent 2 2 9\nfaults 1\n",
            enc_f64(12.5),
            enc_f64(800.0)
        )));
        assert!(wire.ends_with("wasdown 01\ndownvms 1 1\nend\n"), "{wire}");
        assert_eq!(enc_f64(1.0), format!("{:016x}", 1.0f64.to_bits()));
        assert_eq!(enc_f64(-0.0), "8000000000000000");
    }

    #[test]
    fn report_stays_at_v1() {
        // The report bytes feed every `cells.csv` digest: their version
        // line must not follow the checkpoint version.
        let report = crate::engine::EmulationReport {
            planner: vmcw_consolidation::planner::PlannerKind::Dynamic,
            hours: 0,
            provisioned_hosts: 0,
            per_host: Vec::new(),
            per_hour: Vec::new(),
            energy_kwh: 0.0,
            cpu_contention_samples: Vec::new(),
            migrations: 0,
            failed_migrations: 0,
            faults: FaultLedger::default(),
        };
        let wire = encode_report(&report);
        assert_eq!(wire.lines().next(), Some("report v1"));
        assert_eq!(decode_report(&wire).unwrap(), report);
    }

    #[test]
    fn nan_and_negative_zero_survive_round_trip() {
        let mut c = sample_checkpoint();
        c.cpu_contention_samples = vec![-0.0, f64::NAN, f64::INFINITY];
        let d = ReplayCheckpoint::decode(&c.encode()).unwrap();
        assert_eq!(
            c.cpu_contention_samples[0].to_bits(),
            d.cpu_contention_samples[0].to_bits()
        );
        assert_eq!(
            c.cpu_contention_samples[1].to_bits(),
            d.cpu_contention_samples[1].to_bits()
        );
        assert_eq!(
            c.cpu_contention_samples[2].to_bits(),
            d.cpu_contention_samples[2].to_bits()
        );
    }

    #[test]
    fn fault_config_round_trips() {
        let f = FaultConfig::baseline(99);
        let wire = encode_fault_config(&f);
        let mut toks = Toks::new(&wire, 0);
        let d = decode_fault_config(&mut toks).unwrap();
        assert_eq!(f, d);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
