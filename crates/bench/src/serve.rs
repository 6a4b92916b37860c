//! The open-system service benchmark: saturation ceilings and latency
//! tails per scheme (`pmacc-serve-v1`).
//!
//! The figure grid replays workloads *closed-loop*: each core issues its
//! next transaction the moment the previous one retires, so the numbers
//! are slowdowns at 100% load. A production persistent-memory server
//! lives in the *open-system* regime instead — requests arrive on their
//! own schedule, queues build, and what matters is how much offered load
//! a scheme sustains before its persist path saturates, and what the
//! latency tail looks like on the way there.
//!
//! A serve campaign measures exactly that:
//!
//! 1. **Calibration** — every scheme runs the workload closed-loop once;
//!    its completion rate is the scheme's service capacity `mu`
//!    (requests per kilocycle per core).
//! 2. **Rate ramp** — each scheme is then driven as a server at a ladder
//!    of offered rates (fractions of its own `mu`, spanning light load
//!    to past saturation) under a configurable arrival process
//!    ([`ArrivalKind`]): Poisson, bursty on/off, or a diurnal rate mix.
//!    Requests map to operation-level units over the workload structures
//!    ([`pmacc_workloads::build_service`]); the simulator's admission
//!    gate applies backpressure when the transaction cache or the NVM
//!    write queue saturates and sheds requests that overstay the
//!    admission deadline ([`pmacc::ServeConfig`]).
//! 3. **Report** — per-request sojourn/wait/service times land in
//!    [`pmacc_telemetry::Log2Histogram`]s; the report quotes p50/p99/
//!    p99.9 latency per rate point, a tail attribution split between
//!    persist-path stalls and NVM queue pressure, and the per-scheme
//!    throughput ceiling (the highest offered rate still served without
//!    shedding at ≥ 95% of the offered load).
//!
//! Like every other harness artifact, the JSON report is deterministic:
//! byte-identical at any `--jobs` value, and reproducible from the seed.
//! Exponential interarrivals are drawn with von Neumann's comparison
//! method (no transcendental functions), so arrival schedules are exact
//! integer cycles derived only from the RNG stream.

use std::fmt;
use std::str::FromStr;

use pmacc::{RunConfig, ServeConfig, System};
use pmacc_telemetry::{Json, Log2Histogram, ToJson};
use pmacc_types::rng::{stream_seed, Rng};
use pmacc_types::{Cycle, MachineConfig, SchemeKind};
use pmacc_workloads::{build_service, WorkloadKind, WorkloadParams};

use crate::pool::{run_jobs, Job, Options};

/// Schema tag of the JSON report.
pub const SERVE_SCHEMA: &str = "pmacc-serve-v1";

/// Stream tag separating arrival-schedule randomness from workload
/// randomness (`"serv"`).
const SERVE_STREAM: u64 = 0x7365_7276;

/// Admission deadline in cycles: a request still waiting this long after
/// its arrival is shed.
const DEADLINE: Cycle = 20_000;

/// The admission control every rate point runs under: [`ServeConfig`]'s
/// default backpressure watermarks plus the campaign's [`DEADLINE`].
fn admission(arrivals: Vec<Vec<Cycle>>) -> ServeConfig {
    ServeConfig {
        max_wait: DEADLINE,
        ..ServeConfig::new(arrivals)
    }
}

/// A rate point qualifies for the throughput ceiling when it serves at
/// least this fraction of the offered load without shedding.
const CEILING_GOODPUT: f64 = 0.95;

/// The arrival process driving the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Memoryless arrivals at a constant mean rate.
    Poisson,
    /// On/off bursts: alternating phases of double-rate Poisson traffic
    /// and silence, same mean rate overall.
    Bursty,
    /// A repeating 8-phase rate curve (trough to peak and back), like a
    /// day of traffic compressed into the run.
    Diurnal,
}

impl ArrivalKind {
    /// All arrival kinds, in display order.
    #[must_use]
    pub fn all() -> [ArrivalKind; 3] {
        [ArrivalKind::Poisson, ArrivalKind::Bursty, ArrivalKind::Diurnal]
    }
}

impl fmt::Display for ArrivalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Bursty => "bursty",
            ArrivalKind::Diurnal => "diurnal",
        })
    }
}

impl FromStr for ArrivalKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "poisson" => Ok(ArrivalKind::Poisson),
            "bursty" | "onoff" | "on-off" => Ok(ArrivalKind::Bursty),
            "diurnal" => Ok(ArrivalKind::Diurnal),
            other => Err(format!("unknown arrival process `{other}`")),
        }
    }
}

/// Configuration of one serve campaign.
#[derive(Debug, Clone)]
pub struct ServeCampaignConfig {
    /// Base seed (workload build and arrival schedules derive their own
    /// streams from it).
    pub seed: u64,
    /// Schemes to ramp.
    pub schemes: Vec<SchemeKind>,
    /// The served data structure.
    pub workload: WorkloadKind,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Server cores.
    pub cores: usize,
    /// Workload parameters; `num_ops` is the request count per core.
    pub params: WorkloadParams,
    /// The rate ladder, as fractions of each scheme's own closed-loop
    /// service capacity (ascending; values above 1.0 drive the server
    /// past saturation).
    pub load_fractions: Vec<f64>,
}

impl ServeCampaignConfig {
    /// The quick-scale campaign the CI gate runs: a 2-core hashtable
    /// (KV) server, every scheme, a 4-point rate ladder into overload.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        ServeCampaignConfig {
            seed,
            schemes: SchemeKind::all().to_vec(),
            workload: WorkloadKind::Hashtable,
            arrival: ArrivalKind::Poisson,
            cores: 2,
            params: WorkloadParams {
                num_ops: 256,
                setup_items: 2_000,
                key_space: 8_000,
                insert_ratio: 50,
                seed,
                sharing: 0,
            },
            load_fractions: vec![0.4, 0.7, 0.9, 1.3],
        }
    }

    fn machine(&self, scheme: SchemeKind) -> MachineConfig {
        let mut m = MachineConfig::dac17_scaled().with_scheme(scheme);
        m.cores = self.cores;
        m
    }

    fn run_cfg() -> RunConfig {
        RunConfig {
            warmup_commits: 0,
            sample_period: 0,
            ..RunConfig::default()
        }
    }
}

/// Samples a unit-mean exponential variate with von Neumann's
/// comparison method: only uniform draws and comparisons, so the result
/// is bit-reproducible anywhere IEEE-754 holds (no `ln`).
fn exp_variate(rng: &mut Rng) -> f64 {
    let mut whole = 0.0f64;
    loop {
        let first = rng.gen_unit_f64();
        let mut prev = first;
        let mut run = 1u32;
        loop {
            let u = rng.gen_unit_f64();
            if u >= prev {
                break;
            }
            prev = u;
            run += 1;
        }
        if run % 2 == 1 {
            return whole + first;
        }
        whole += 1.0;
    }
}

/// Generates `n` non-decreasing arrival cycles at `rate_per_kcycle`
/// mean offered rate under the given process, deterministically from
/// `seed`.
///
/// # Panics
///
/// Panics if the rate is not positive and finite.
#[must_use]
pub fn gen_arrivals(kind: ArrivalKind, rate_per_kcycle: f64, n: usize, seed: u64) -> Vec<Cycle> {
    assert!(
        rate_per_kcycle.is_finite() && rate_per_kcycle > 0.0,
        "offered rate must be positive"
    );
    let mut rng = Rng::seed_from_u64(seed);
    let mean = 1000.0 / rate_per_kcycle;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(n);
    match kind {
        ArrivalKind::Poisson => {
            for _ in 0..n {
                t += mean * exp_variate(&mut rng);
                out.push(t as Cycle);
            }
        }
        ArrivalKind::Bursty => {
            // Even phases are ON (double rate), odd phases are silent;
            // the mean offered rate over a full on/off period matches
            // `rate_per_kcycle`.
            let phase = 32.0 * mean;
            for _ in 0..n {
                t += (mean / 2.0) * exp_variate(&mut rng);
                let p = (t / phase) as u64;
                if p % 2 == 1 {
                    // Carry the overshoot into the next ON phase.
                    t += phase;
                }
                out.push(t as Cycle);
            }
        }
        ArrivalKind::Diurnal => {
            // An 8-phase rate curve, trough to peak and back; weights
            // are normalized so the mean offered rate is preserved.
            const W: [f64; 8] = [0.25, 0.5, 1.0, 1.75, 2.0, 1.75, 1.0, 0.75];
            let wsum: f64 = 9.0;
            let phase = 64.0 * mean;
            for _ in 0..n {
                let p = ((t / phase) as usize) % W.len();
                let scale = W[p] * (W.len() as f64) / wsum;
                t += (mean / scale) * exp_variate(&mut rng);
                out.push(t as Cycle);
            }
        }
    }
    out
}

/// One measured point of a scheme's rate ramp.
#[derive(Debug, Clone)]
pub struct RatePoint {
    /// Offered load (requests per kilocycle per core).
    pub offered: f64,
    /// Served load (completions per kilocycle per core over the
    /// makespan).
    pub achieved: f64,
    /// Requests served to completion, all cores.
    pub completed: u64,
    /// Requests shed by the admission deadline.
    pub shed: u64,
    /// Admission attempts deferred by queue-pressure backpressure.
    pub backpressure_events: u64,
    /// Cycles requests spent held back by backpressure.
    pub backpressure_cycles: u64,
    /// End-to-end run length in cycles.
    pub makespan: Cycle,
    /// Sojourn time (arrival to retirement) per completed request.
    pub latency: Log2Histogram,
    /// Queueing delay (arrival to admission).
    pub wait: Log2Histogram,
    /// Service time (admission to retirement).
    pub service: Log2Histogram,
    /// Per-request persist-path stall cycles (TC drain / commit flush).
    pub tc_stall: Log2Histogram,
    /// Per-request NVM/memory queue stall cycles.
    pub nvm_stall: Log2Histogram,
}

impl RatePoint {
    /// Whether this point still qualifies as below the throughput
    /// ceiling: no shed requests and goodput at ≥ 95% of offered.
    #[must_use]
    pub fn sustained(&self) -> bool {
        self.shed == 0 && self.achieved >= CEILING_GOODPUT * self.offered
    }

    fn to_json(&self) -> Json {
        let share = |part: &Log2Histogram| {
            let total = self.tc_stall.sum() + self.nvm_stall.sum();
            if total == 0 {
                0.0
            } else {
                part.sum() as f64 / total as f64
            }
        };
        Json::obj([
            ("offered", self.offered.to_json()),
            ("achieved", self.achieved.to_json()),
            ("completed", self.completed.to_json()),
            ("shed", self.shed.to_json()),
            ("backpressure_events", self.backpressure_events.to_json()),
            ("backpressure_cycles", self.backpressure_cycles.to_json()),
            ("makespan", self.makespan.to_json()),
            ("p50", self.latency.percentile(0.50).to_json()),
            ("p99", self.latency.percentile(0.99).to_json()),
            ("p999", self.latency.percentile(0.999).to_json()),
            ("latency", self.latency.to_json()),
            ("wait_p99", self.wait.percentile(0.99).to_json()),
            ("service_p50", self.service.percentile(0.50).to_json()),
            (
                "tail",
                Json::obj([
                    ("tc_stall_p99", self.tc_stall.percentile(0.99).to_json()),
                    ("nvm_stall_p99", self.nvm_stall.percentile(0.99).to_json()),
                    ("tc_share", share(&self.tc_stall).to_json()),
                    ("nvm_share", share(&self.nvm_stall).to_json()),
                ]),
            ),
        ])
    }
}

/// One scheme's full rate ramp.
#[derive(Debug, Clone)]
pub struct SchemeCurve {
    /// The scheme.
    pub scheme: SchemeKind,
    /// Closed-loop service capacity (requests per kilocycle per core).
    pub closed_loop_rate: f64,
    /// Measured rate points, ascending by offered rate.
    pub points: Vec<RatePoint>,
}

impl SchemeCurve {
    /// The throughput ceiling: the highest offered rate the scheme
    /// sustained ([`RatePoint::sustained`]), or 0.0 if even the lightest
    /// point saturated.
    #[must_use]
    pub fn ceiling(&self) -> f64 {
        self.points
            .iter()
            .filter(|p| p.sustained())
            .map(|p| p.offered)
            .fold(0.0, f64::max)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("scheme", self.scheme.to_string().to_json()),
            ("closed_loop_rate", self.closed_loop_rate.to_json()),
            ("ceiling", self.ceiling().to_json()),
            (
                "rates",
                Json::Arr(self.points.iter().map(RatePoint::to_json).collect()),
            ),
        ])
    }
}

/// A finished serve campaign.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The configuration it ran with.
    pub cfg: ServeCampaignConfig,
    /// Mean trace ops per request unit (service-demand proxy).
    pub mean_ops_per_request: f64,
    /// Per-scheme ramps, in configuration order.
    pub curves: Vec<SchemeCurve>,
}

impl ServeReport {
    /// Renders the deterministic JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let admission = admission(Vec::new());
        Json::obj([
            ("schema", SERVE_SCHEMA.to_json()),
            ("seed", self.cfg.seed.to_json()),
            ("workload", self.cfg.workload.to_string().to_json()),
            ("arrival", self.cfg.arrival.to_string().to_json()),
            ("cores", (self.cfg.cores as u64).to_json()),
            (
                "requests_per_core",
                (self.cfg.params.num_ops as u64).to_json(),
            ),
            ("mean_ops_per_request", self.mean_ops_per_request.to_json()),
            ("deadline", admission.max_wait.to_json()),
            ("tc_high", admission.tc_high.to_json()),
            ("nvm_write_high", admission.nvm_write_high.to_json()),
            (
                "load_fractions",
                Json::Arr(self.cfg.load_fractions.iter().map(|f| f.to_json()).collect()),
            ),
            (
                "schemes",
                Json::Arr(self.curves.iter().map(SchemeCurve::to_json).collect()),
            ),
        ])
    }

    /// Total completed requests across every scheme and rate point.
    #[must_use]
    pub fn total_completed(&self) -> u64 {
        self.curves
            .iter()
            .flat_map(|c| c.points.iter())
            .map(|p| p.completed)
            .sum()
    }

    /// Total shed requests across every scheme and rate point.
    #[must_use]
    pub fn total_shed(&self) -> u64 {
        self.curves
            .iter()
            .flat_map(|c| c.points.iter())
            .map(|p| p.shed)
            .sum()
    }
}

fn merged(stats: &[&pmacc::ServeCoreStats], pick: impl Fn(&pmacc::ServeCoreStats) -> &Log2Histogram) -> Log2Histogram {
    let mut out = Log2Histogram::new();
    for s in stats {
        out.merge(pick(s));
    }
    out
}

/// Runs one scheme closed-loop and returns its service capacity in
/// requests per kilocycle per core.
fn calibrate(cfg: &ServeCampaignConfig, scheme: SchemeKind) -> Result<f64, String> {
    let mut sys = System::for_workload(
        cfg.machine(scheme),
        cfg.workload,
        &cfg.params,
        &ServeCampaignConfig::run_cfg(),
    )
    .map_err(|e| e.to_string())?;
    let report = sys.run().map_err(|e| e.to_string())?;
    if report.cycles == 0 {
        return Err(format!("{scheme}: zero-cycle closed-loop run"));
    }
    let per_core = report.total_committed() as f64 / cfg.cores as f64;
    Ok(per_core * 1000.0 / report.cycles as f64)
}

/// Runs one scheme as a server at `offered` requests per kilocycle per
/// core.
fn ramp_point(
    cfg: &ServeCampaignConfig,
    scheme: SchemeKind,
    offered: f64,
) -> Result<RatePoint, String> {
    let mut sys = System::for_workload(
        cfg.machine(scheme),
        cfg.workload,
        &cfg.params,
        &ServeCampaignConfig::run_cfg(),
    )
    .map_err(|e| e.to_string())?;
    let base = stream_seed(cfg.seed, SERVE_STREAM);
    let arrivals: Vec<Vec<Cycle>> = (0..cfg.cores)
        .map(|c| {
            gen_arrivals(
                cfg.arrival,
                offered,
                cfg.params.num_ops,
                stream_seed(base, c as u64),
            )
        })
        .collect();
    sys.enable_serve(admission(arrivals)).map_err(|e| e.to_string())?;
    let report = sys.run().map_err(|e| e.to_string())?;
    let stats = sys.serve_stats().expect("serve mode is on");
    let completed: u64 = stats.iter().map(|s| s.completed).sum();
    let makespan = report.cycles.max(1);
    let achieved = completed as f64 / cfg.cores as f64 * 1000.0 / makespan as f64;
    Ok(RatePoint {
        offered,
        achieved,
        completed,
        shed: stats.iter().map(|s| s.shed).sum(),
        backpressure_events: stats.iter().map(|s| s.backpressure_events).sum(),
        backpressure_cycles: stats.iter().map(|s| s.backpressure_cycles).sum(),
        makespan,
        latency: merged(&stats, |s| &s.latency),
        wait: merged(&stats, |s| &s.wait),
        service: merged(&stats, |s| &s.service),
        tc_stall: merged(&stats, |s| &s.tc_stall),
        nvm_stall: merged(&stats, |s| &s.nvm_stall),
    })
}

/// Runs a full serve campaign: calibration fan-out, then the rate ramp
/// fan-out, both over the worker pool. Results (and the JSON document)
/// are byte-identical at any worker count.
///
/// # Errors
///
/// Returns the first simulation or configuration error, or a worker
/// panic message.
pub fn run_serve(cfg: &ServeCampaignConfig, opts: &Options) -> Result<ServeReport, String> {
    if cfg.schemes.is_empty() || cfg.load_fractions.is_empty() {
        return Err("serve: empty scheme list or rate ladder".into());
    }
    let demand = build_service(cfg.workload, &cfg.params);
    let mean_ops = demand.mean_ops_per_request();

    // Phase 1: closed-loop calibration, one job per scheme.
    let cal_jobs: Vec<Job<Result<f64, String>>> = cfg
        .schemes
        .iter()
        .map(|&scheme| {
            let cfg = cfg.clone();
            Job::new(format!("serve:cal:{scheme}"), move || {
                calibrate(&cfg, scheme)
            })
        })
        .collect();
    let mus = run_jobs(cal_jobs, opts.jobs, opts.progress).map_err(|p| p.to_string())?;
    let mus: Vec<f64> = mus.into_iter().collect::<Result<_, _>>()?;

    // Phase 2: the rate ramp, one job per (scheme, fraction).
    let mut ramp_jobs: Vec<Job<Result<RatePoint, String>>> = Vec::new();
    for (si, &scheme) in cfg.schemes.iter().enumerate() {
        for &frac in &cfg.load_fractions {
            let offered = frac * mus[si];
            let cfg = cfg.clone();
            ramp_jobs.push(Job::new(
                format!("serve:{scheme}:x{frac}"),
                move || ramp_point(&cfg, scheme, offered),
            ));
        }
    }
    let points = run_jobs(ramp_jobs, opts.jobs, opts.progress).map_err(|p| p.to_string())?;
    let points: Vec<RatePoint> = points.into_iter().collect::<Result<_, _>>()?;

    let per = cfg.load_fractions.len();
    let curves = cfg
        .schemes
        .iter()
        .enumerate()
        .map(|(si, &scheme)| SchemeCurve {
            scheme,
            closed_loop_rate: mus[si],
            points: points[si * per..(si + 1) * per].to_vec(),
        })
        .collect();
    Ok(ServeReport {
        cfg: cfg.clone(),
        mean_ops_per_request: mean_ops,
        curves,
    })
}

/// Validation summary of a parsed report ([`parse_report`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Schemes in the report.
    pub schemes: usize,
    /// Rate points across all schemes.
    pub rate_points: usize,
    /// Total completed requests.
    pub total_completed: u64,
    /// Total shed requests.
    pub total_shed: u64,
}

/// Validates a `pmacc-serve-v1` document and returns its summary.
///
/// # Errors
///
/// Returns a description of the first structural violation: wrong
/// schema tag, missing fields, or a non-monotone latency quantile row.
pub fn parse_report(doc: &Json) -> Result<ServeSummary, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema tag")?;
    if schema != SERVE_SCHEMA {
        return Err(format!("schema `{schema}`, expected `{SERVE_SCHEMA}`"));
    }
    for key in ["seed", "workload", "arrival", "cores", "requests_per_core", "schemes"] {
        if doc.get(key).is_none() {
            return Err(format!("missing `{key}`"));
        }
    }
    let schemes = doc
        .get("schemes")
        .and_then(Json::as_arr)
        .ok_or("`schemes` is not an array")?;
    let mut rate_points = 0usize;
    let mut total_completed = 0u64;
    let mut total_shed = 0u64;
    for entry in schemes {
        let name = entry
            .get("scheme")
            .and_then(Json::as_str)
            .ok_or("scheme entry missing `scheme`")?;
        entry
            .get("ceiling")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{name}: missing `ceiling`"))?;
        let rates = entry
            .get("rates")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{name}: missing `rates`"))?;
        if rates.is_empty() {
            return Err(format!("{name}: empty rate ramp"));
        }
        for row in rates {
            let num = |key: &str| {
                row.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}: rate row missing `{key}`"))
            };
            let (p50, p99, p999) = (num("p50")?, num("p99")?, num("p999")?);
            if !(p50 <= p99 && p99 <= p999) {
                return Err(format!("{name}: non-monotone quantiles {p50}/{p99}/{p999}"));
            }
            if row.get("tail").and_then(|t| t.get("tc_share")).is_none() {
                return Err(format!("{name}: rate row missing tail attribution"));
            }
            total_completed += num("completed")? as u64;
            total_shed += num("shed")? as u64;
            rate_points += 1;
        }
    }
    Ok(ServeSummary {
        schemes: schemes.len(),
        rate_points,
        total_completed,
        total_shed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_sampler_has_unit_mean() {
        let mut rng = Rng::seed_from_u64(9);
        let n = 20_000;
        let mean = (0..n).map(|_| exp_variate(&mut rng)).sum::<f64>() / f64::from(n);
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn arrivals_are_deterministic_monotone_and_on_rate() {
        for kind in ArrivalKind::all() {
            let a = gen_arrivals(kind, 0.5, 2_000, 7);
            let b = gen_arrivals(kind, 0.5, 2_000, 7);
            assert_eq!(a, b, "{kind}: same seed, same schedule");
            assert_eq!(a.len(), 2_000);
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{kind}: non-decreasing");
            // Mean rate within 15% of offered (0.5/kcycle -> 2000 cycles
            // mean interarrival).
            let span = *a.last().unwrap() as f64;
            let rate = 2_000.0 * 1000.0 / span;
            assert!(
                (rate - 0.5).abs() < 0.075,
                "{kind}: offered 0.5/kcycle, scheduled {rate}"
            );
            // Different seeds give different schedules.
            assert_ne!(a, gen_arrivals(kind, 0.5, 2_000, 8), "{kind}");
        }
    }

    #[test]
    fn bursty_arrivals_leave_silent_phases() {
        let a = gen_arrivals(ArrivalKind::Bursty, 0.5, 4_000, 3);
        let mean = 2_000.0;
        let phase = 32.0 * mean;
        let mut on = 0u64;
        let mut off = 0u64;
        for &t in &a {
            if ((t as f64 / phase) as u64) % 2 == 0 {
                on += 1;
            } else {
                off += 1;
            }
        }
        assert!(
            off * 20 < on,
            "arrivals must cluster in ON phases: {on} on vs {off} off"
        );
    }

    #[test]
    fn rate_point_sustained_criterion() {
        let mk = |offered: f64, achieved: f64, shed: u64| RatePoint {
            offered,
            achieved,
            completed: 100,
            shed,
            backpressure_events: 0,
            backpressure_cycles: 0,
            makespan: 1,
            latency: Log2Histogram::new(),
            wait: Log2Histogram::new(),
            service: Log2Histogram::new(),
            tc_stall: Log2Histogram::new(),
            nvm_stall: Log2Histogram::new(),
        };
        assert!(mk(1.0, 0.99, 0).sustained());
        assert!(!mk(1.0, 0.90, 0).sustained(), "goodput below 95%");
        assert!(!mk(1.0, 0.99, 1).sustained(), "shedding disqualifies");
        let curve = SchemeCurve {
            scheme: SchemeKind::TxCache,
            closed_loop_rate: 1.2,
            points: vec![mk(0.5, 0.5, 0), mk(1.0, 0.99, 0), mk(1.2, 0.9, 5)],
        };
        assert_eq!(curve.ceiling(), 1.0);
    }
}
