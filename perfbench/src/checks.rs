//! Output checks. Each one compares the program's output with a value
//! the benchmark computes itself (from the configuration, the observed
//! windows or its own sums), or with a property the method must have;
//! none compares with a stored copy of earlier output.

use geoplace_dcsim::config::ScenarioConfig;
use geoplace_dcsim::decision::PlacementDecision;
use geoplace_dcsim::events::EventKind;
use geoplace_dcsim::metrics::{HourlyRecord, SimulationReport};
use geoplace_dcsim::snapshot::SystemSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Failed checks of one run, in the order they were found.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a failure unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let message = what();
            eprintln!("check failed: {message}");
            self.failures.push(message);
        }
    }

    /// Whether every check so far passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Each active VM of the snapshot is placed exactly once.
    pub fn decision(&mut self, snapshot: &SystemSnapshot<'_>, decision: &PlacementDecision) {
        let mut seen = vec![0u32; snapshot.vm_count()];
        let mut stray = 0usize;
        for dc in 0..decision.n_dcs() {
            let dc = geoplace_types::DcId(dc as u16);
            for server in decision.dc_assignments(dc) {
                for &vm in &server.vms {
                    match snapshot.arena.index_of(vm) {
                        Some(i) => seen[i as usize] += 1,
                        None => stray += 1,
                    }
                }
            }
        }
        let misplaced = seen.iter().filter(|&&c| c != 1).count();
        self.require(stray == 0 && misplaced == 0, || {
            format!(
                "slot {}: decision places {misplaced} active VMs other than exactly once \
                 and {stray} VMs that are not active",
                snapshot.slot.0
            )
        });
    }

    /// Recomputes peak coincidence `max_t(a_t + b_t) / (peak_a + peak_b)`
    /// from the observed windows for a seeded sample: random pairs of a
    /// dense matrix, every retained edge of random rows of a sparse one.
    pub fn peak_coincidence(&mut self, snapshot: &SystemSnapshot<'_>, seed: u64) {
        let corr = snapshot.cpu_corr;
        let windows = snapshot.windows;
        let n = windows.len();
        if n < 2 || corr.is_degenerate() {
            return;
        }
        self.require(corr.ids() == windows.ids(), || {
            format!(
                "slot {}: correlation rows differ from window rows",
                snapshot.slot.0
            )
        });
        let mut rng =
            StdRng::seed_from_u64(seed ^ u64::from(snapshot.slot.0).wrapping_mul(0x9E37_79B9));
        let mut mismatches = 0usize;
        let mut compared = 0usize;
        if corr.is_sparse() {
            for _ in 0..SAMPLE_ROWS {
                let i = rng.gen_range(0..n);
                for &(j, weight) in corr.neighbors(i) {
                    compared += 1;
                    let expected = recompute(windows.row_at(i), windows.row_at(j as usize));
                    mismatches += usize::from(weight.to_bits() != expected.to_bits());
                }
            }
        } else {
            for _ in 0..SAMPLE_PAIRS {
                let i = rng.gen_range(0..n);
                let j = (i + 1 + rng.gen_range(0..n - 1)) % n;
                compared += 1;
                let expected = recompute(windows.row_at(i), windows.row_at(j));
                mismatches += usize::from(corr.at(i, j).to_bits() != expected.to_bits());
            }
        }
        self.require(mismatches == 0, || {
            format!(
                "slot {}: {mismatches} of {compared} sampled correlations differ from \
                 the recomputed peak coincidence",
                snapshot.slot.0
            )
        });
    }

    /// One hourly record: finite, non-negative, IT energy within total
    /// energy, powered servers within the slot's usable servers.
    pub fn record(&mut self, record: &HourlyRecord, config: &ScenarioConfig, who: &str) {
        let values = [
            record.cost_eur,
            record.it_energy_j,
            record.total_energy_j,
            record.grid_energy_j,
            record.pv_used_j,
            record.pv_curtailed_j,
            record.battery_discharge_j,
            record.migration_volume_gb,
            record.response_worst_s,
            record.response_mean_s,
        ];
        self.require(values.iter().all(|v| v.is_finite() && *v >= 0.0), || {
            format!(
                "{who} slot {}: non-finite or negative value in {record:?}",
                record.slot
            )
        });
        self.require(
            record.it_energy_j <= record.total_energy_j * (1.0 + 1e-12),
            || {
                format!(
                    "{who} slot {}: IT energy {} exceeds total energy {}",
                    record.slot, record.it_energy_j, record.total_energy_j
                )
            },
        );
        self.servers(record.slot, u64::from(record.active_servers), config, who);
    }

    /// Powered servers within the slot's usable servers.
    pub fn servers(&mut self, slot: u32, active: u64, config: &ScenarioConfig, who: &str) {
        let usable = usable_servers(config, slot);
        self.require(active <= usable, || {
            format!("{who} slot {slot}: {active} powered servers exceed the {usable} usable")
        });
    }

    /// A finished run: one record per horizon slot, in order, and totals
    /// equal to the benchmark's own sums of the records.
    pub fn report(&mut self, report: &SimulationReport, horizon: u32, who: &str) {
        let slots: Vec<u32> = report.hourly.iter().map(|h| h.slot).collect();
        self.require(slots == (0..horizon).collect::<Vec<u32>>(), || {
            format!("{who}: report has slots {slots:?}, expected 0..{horizon}")
        });
        let totals = report.totals();
        let cost: f64 = report.hourly.iter().map(|h| h.cost_eur).sum();
        let energy: f64 = report.hourly.iter().map(|h| h.total_energy_j).sum::<f64>() / 1e9;
        let migrations: u64 = report.hourly.iter().map(|h| u64::from(h.migrations)).sum();
        self.require(
            close(totals.cost_eur, cost)
                && close(totals.energy_gj, energy)
                && totals.migrations == migrations,
            || {
                format!(
                    "{who}: totals (cost {}, energy {}, migrations {}) differ from the \
                     record sums ({cost}, {energy}, {migrations})",
                    totals.cost_eur, totals.energy_gj, totals.migrations
                )
            },
        );
        let (lo, hi) = report
            .response_samples
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| {
                (lo.min(s), hi.max(s))
            });
        self.require(
            totals.p95_response_s.is_finite()
                && (report.response_samples.is_empty()
                    || (lo..=hi).contains(&totals.p95_response_s)),
            || {
                format!(
                    "{who}: p95 response {} outside the samples",
                    totals.p95_response_s
                )
            },
        );
    }
}

/// Pairs sampled per dense slot.
const SAMPLE_PAIRS: usize = 64;
/// Rows whose retained edges are all checked per sparse slot.
const SAMPLE_ROWS: usize = 8;

/// Whether two sums of the same values agree up to summation order.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Peak coincidence of two windows, written out from its definition.
fn recompute(a: &[f32], b: &[f32]) -> f32 {
    let peak = |w: &[f32]| w.iter().copied().fold(0.0f32, f32::max);
    let denominator = peak(a) + peak(b);
    if denominator <= f32::EPSILON {
        return 1.0;
    }
    let combined = a.iter().zip(b).map(|(x, y)| x + y).fold(0.0f32, f32::max);
    (combined / denominator).clamp(f32::EPSILON, 1.0)
}

/// Upper bound on the servers a slot may power, from the DC configs and
/// the event windows: an outaged DC keeps one server; a derated one keeps
/// the floor of its strongest active derate (never below one).
pub fn usable_servers(config: &ScenarioConfig, slot: u32) -> u64 {
    let events = config.timeline.events();
    let mut total = 0u64;
    for (d, dc) in config.dcs.iter().enumerate() {
        let within = |start: u32, end: u32| start <= slot && slot < end;
        let out = outaged(config, d, slot);
        let mut factor = 1.0f64;
        for e in events {
            match e.kind {
                EventKind::CapacityDerate { factor: f }
                    if e.dc.is_none_or(|t| usize::from(t) == d)
                        && within(e.start_slot, e.end_slot) =>
                {
                    factor = factor.min(f);
                }
                EventKind::CascadeDerate {
                    factor: f,
                    lag_slots,
                } => {
                    if let Some(origin) = e.dc.map(usize::from).filter(|&o| o <= d) {
                        let shift = (d - origin) as u64 * u64::from(lag_slots);
                        let start = u64::from(e.start_slot) + shift;
                        let end = u64::from(e.end_slot) + shift;
                        if start <= u64::from(slot) && u64::from(slot) < end {
                            factor = factor.min(f);
                        }
                    }
                }
                _ => {}
            }
        }
        let servers = u64::from(dc.servers);
        total += if out {
            1
        } else if factor < 1.0 {
            ((servers as f64 * factor).floor() as u64).clamp(1, servers)
        } else {
            servers
        };
    }
    total
}

/// Whether DC `dc` is down in `slot` according to the event windows.
pub fn outaged(config: &ScenarioConfig, dc: usize, slot: u32) -> bool {
    config.timeline.events().iter().any(|e| {
        matches!(e.kind, EventKind::DcOutage)
            && e.dc.map(usize::from) == Some(dc)
            && e.start_slot <= slot
            && slot < e.end_slot
    })
}
