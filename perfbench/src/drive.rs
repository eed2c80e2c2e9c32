//! One policy stepped through a world with the library's public API:
//! `Scenario::build` → `SlotStepper` → `advance_world` / `observe` /
//! `decide` / `apply`, plus checkpoint and restore into a freshly built
//! world.
//!
//! Untraced, a step times only the whole slot. Traced, it times every
//! public call on its own and repeats the slot's pipeline stages from
//! outside (window synthesis, correlation screen, traffic graph, the
//! Proposed stages, the baselines' decides), checking that each repeat
//! equals what the stepper or policy produced.

use crate::checks::Checks;
use crate::ledger::{ms_since, now, timed, Ledger};
use crate::shadow::ProposedShadow;
use geoplace_baselines::{EnerAwarePolicy, NetAwarePolicy, PriAwarePolicy};
use geoplace_bench::scenario::policy_for;
use geoplace_bench::{proposed_config_for, PolicyKind};
use geoplace_dcsim::checkpoint::{checkpoint_with_policy, restore_with_policy};
use geoplace_dcsim::config::ScenarioConfig;
use geoplace_dcsim::engine::Scenario;
use geoplace_dcsim::metrics::SimulationReport;
use geoplace_dcsim::policy::GlobalPolicy;
use geoplace_dcsim::snapshot::SystemSnapshot;
use geoplace_dcsim::stepper::SlotStepper;
use geoplace_types::snap::Checkpoint;
use geoplace_types::time::TICKS_PER_SLOT;
use geoplace_types::Exec;
use geoplace_workload::cpucorr::{CorrelationMetric, CpuCorrelationMatrix};
use geoplace_workload::source::SyntheticSource;
use geoplace_workload::window::UtilizationWindows;

/// What one checkpoint + restore cost.
pub struct Roundtrip {
    /// `checkpoint_with_policy` + `encode`, ms.
    pub save_ms: f64,
    /// `decode` + world rebuild + `restore_with_policy`, ms.
    pub restore_ms: f64,
    /// Encoded size.
    pub bytes: usize,
}

/// A stepped world with its policy.
pub struct PolicyRun {
    config: ScenarioConfig,
    kind: PolicyKind,
    stepper: SlotStepper,
    policy: Box<dyn GlobalPolicy>,
    /// Per-slot state hashes, in slot order.
    pub hashes: Vec<u64>,
    shadow: Option<ProposedShadow>,
    /// The three baselines, decided from outside over this run's
    /// snapshots (traced runs of workloads that do not step them).
    side_baselines: Vec<(&'static str, Box<dyn GlobalPolicy>)>,
}

/// Steady slots on which the side baselines are decided.
const SIDE_BASELINE_SLOTS: u32 = 2;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The per-layer metric of a policy's `decide`.
fn decide_metric(kind: PolicyKind) -> &'static str {
    match kind {
        PolicyKind::Proposed => "core.decide_ms",
        PolicyKind::EnerAware => "baselines.ener_aware_ms",
        PolicyKind::PriAware => "baselines.pri_aware_ms",
        PolicyKind::NetAware => "baselines.net_aware_ms",
    }
}

impl PolicyRun {
    /// Builds the world and the policy. A traced Proposed run also
    /// keeps a stage shadow, and with `side_baselines` decides the three
    /// baselines over its own snapshots.
    pub fn build(
        config: &ScenarioConfig,
        kind: PolicyKind,
        ledger: &mut Ledger,
        side_baselines: bool,
    ) -> Result<PolicyRun, String> {
        let (scenario, build_ms) = timed(|| Scenario::build(config));
        ledger.time("dcsim.build_ms", build_ms);
        let traced_proposed = ledger.enabled() && kind == PolicyKind::Proposed;
        let side: Vec<(&'static str, Box<dyn GlobalPolicy>)> = if traced_proposed && side_baselines
        {
            vec![
                ("baselines.ener_aware_ms", Box::new(EnerAwarePolicy::new())),
                ("baselines.pri_aware_ms", Box::new(PriAwarePolicy::new())),
                ("baselines.net_aware_ms", Box::new(NetAwarePolicy::new())),
            ]
        } else {
            Vec::new()
        };
        Ok(PolicyRun {
            config: config.clone(),
            kind,
            stepper: SlotStepper::new(scenario.map_err(err)?),
            policy: policy_for(config, kind),
            hashes: Vec::new(),
            shadow: traced_proposed.then(|| ProposedShadow::new(proposed_config_for(config))),
            side_baselines: side,
        })
    }

    /// Whether the horizon is complete.
    pub fn done(&self) -> bool {
        self.stepper.is_done()
    }

    /// Slots completed so far.
    pub fn completed(&self) -> u32 {
        self.stepper.completed_slots()
    }

    /// The report so far, with the policy name. A traced Proposed run
    /// also records its migration acceptance over the whole horizon.
    pub fn report(&self, ledger: &mut Ledger) -> SimulationReport {
        let report = self.stepper.report_with_policy(self.policy.name());
        if self.kind == PolicyKind::Proposed {
            let totals = report.totals();
            let requests = totals.migrations + totals.migration_overruns;
            let ratio = if requests == 0 {
                1.0
            } else {
                totals.migrations as f64 / requests as f64
            };
            ledger.put("dcsim.migration_accept_ratio", ratio);
            ledger.put("dcsim.migration_requests_total", requests as f64);
        }
        report
    }

    /// Steps one slot (`advance_world` → `observe` → `decide` →
    /// `apply`) and returns its wall time in ms; `queries` in-process
    /// state reads (the state hash and the DC view a `get_state`
    /// returns) run between advance and decide, timed apart into
    /// `query_us`.
    pub fn step(
        &mut self,
        queries: usize,
        query_us: &mut Vec<f64>,
        ledger: &mut Ledger,
        checks: &mut Checks,
    ) -> Result<f64, String> {
        let slot = self.stepper.current_slot();
        let t0 = now();
        let delta = self
            .stepper
            .advance_world(&mut SyntheticSource)
            .map_err(err)?;
        let advance_ms = ms_since(t0);
        for _ in 0..queries {
            let stepper = &self.stepper;
            let (view, us) = timed(|| {
                let servers: u64 = stepper
                    .dc_infos()
                    .iter()
                    .map(|d| u64::from(d.servers))
                    .sum();
                (stepper.state_hash(), servers)
            });
            std::hint::black_box(view);
            query_us.push(us * 1e3);
        }
        let t1 = now();
        let snapshot = self.stepper.observe();
        let observe_ms = ms_since(t1);
        let t2 = now();
        let decision = self.policy.decide(&snapshot);
        let decide_ms = ms_since(t2);
        let mut slot_ms = advance_ms + observe_ms + decide_ms;

        checks.decision(&snapshot, &decision);
        checks.peak_coincidence(&snapshot, self.config.seed);
        // The engine layers are traced on the Proposed world only, so no
        // per-layer median mixes the worlds of different policies.
        // Slot 0 is cold set-up, not a steady slot: it is not traced.
        let traced = ledger.enabled() && slot.0 > 0;
        let trace_engine = traced && self.kind == PolicyKind::Proposed;
        if traced {
            ledger.time(decide_metric(self.kind), decide_ms);
        }
        if trace_engine {
            ledger.time("dcsim.advance_ms", advance_ms);
            ledger.time("dcsim.observe_us", observe_ms);
            ledger.count("workload.arrivals", delta.arrived.len() as f64);
            ledger.count("workload.departures", delta.departed.len() as f64);
            ledger.count("workload.active_vms", snapshot.vm_count() as f64);
            trace_observation(&self.stepper, &snapshot, &self.config, ledger, checks);
            // At 10k VMs one Ener-aware decide takes seconds, so the side
            // baselines are timed on the first steady slots only.
            let side = if slot.0 <= SIDE_BASELINE_SLOTS {
                self.side_baselines.as_mut_slice()
            } else {
                &mut []
            };
            for (metric, policy) in side {
                let (side, ms) = timed(|| policy.decide(&snapshot));
                ledger.time(metric, ms);
                checks.decision(&snapshot, &side);
            }
        }
        if let Some(shadow) = &mut self.shadow {
            // The shadow replays every slot, slot 0 included, to carry
            // the same warm-start state as the policy; slot 0 is not
            // timed.
            let replay = if traced {
                shadow.replay(&snapshot, ledger)
            } else {
                shadow.replay(&snapshot, &mut Ledger::new(false))
            };
            checks.require(replay == decision, || {
                format!(
                    "slot {}: shadow replay differs from ProposedPolicy::decide",
                    slot.0
                )
            });
        }
        if trace_engine {
            let (_, ms) = timed(|| self.stepper.state_hash());
            ledger.time("dcsim.state_hash_ms", ms);
        }
        let t3 = now();
        let metrics = self.stepper.apply(decision).map_err(err)?;
        let apply_ms = ms_since(t3);
        slot_ms += apply_ms;
        if trace_engine {
            ledger.time("dcsim.apply_ms", apply_ms);
            let r = &metrics.record;
            ledger.count("dcsim.migrations", f64::from(r.migrations));
            ledger.count("dcsim.migration_overruns", f64::from(r.migration_overruns));
            ledger.count("dcsim.active_servers", f64::from(r.active_servers));
        }
        checks.record(&metrics.record, &self.config, self.policy.name());
        self.hashes.push(metrics.state_hash);
        Ok(slot_ms)
    }

    /// Checkpoints the run, restores it into a freshly built world and
    /// policy, and continues from the restored state.
    pub fn checkpoint_restore(
        &mut self,
        ledger: &mut Ledger,
        checks: &mut Checks,
    ) -> Result<Roundtrip, String> {
        let t0 = now();
        let (ck, checkpoint_ms) = timed(|| checkpoint_with_policy(&self.stepper, &*self.policy));
        let ck = ck.map_err(err)?;
        let (bytes, encode_ms) = timed(|| ck.encode());
        let save_ms = ms_since(t0);

        let t1 = now();
        let (decoded, decode_ms) = timed(|| Checkpoint::decode(&bytes));
        let decoded = decoded.map_err(err)?;
        let (scenario, build_ms) = timed(|| Scenario::build(&self.config));
        let mut stepper = SlotStepper::new(scenario.map_err(err)?);
        let mut policy = policy_for(&self.config, self.kind);
        let (restored, restore_call_ms) =
            timed(|| restore_with_policy(&mut stepper, &mut *policy, &decoded));
        restored.map_err(err)?;
        let restore_ms = ms_since(t1);

        ledger.time("dcsim.checkpoint_ms", checkpoint_ms);
        ledger.time("snap.encode_ms", encode_ms);
        ledger.time("snap.decode_ms", decode_ms);
        ledger.time("dcsim.build_ms", build_ms);
        ledger.time("dcsim.restore_ms", restore_call_ms);
        let live = self.stepper.state_hash();
        let resumed = stepper.state_hash();
        checks.require(ck.state_hash == live && resumed == live, || {
            format!(
                "slot {}: restored state hash {resumed:016x} differs from the checkpoint's \
                 {:016x} (live {live:016x})",
                ck.slot, ck.state_hash
            )
        });
        checks.require(decoded.encode() == bytes, || {
            format!(
                "slot {}: decode → encode changed the checkpoint bytes",
                ck.slot
            )
        });
        self.stepper = stepper;
        self.policy = policy;
        Ok(Roundtrip {
            save_ms,
            restore_ms,
            bytes: bytes.len(),
        })
    }
}

/// Repeats the slot's observation stages from outside and checks each
/// against what the stepper built: the windows (`VmFleet::windows_into`
/// over the previous slot), the CPU correlation
/// (`compute_auto_exec`) and the traffic graph (`traffic_graph_exec`).
fn trace_observation(
    stepper: &SlotStepper,
    snapshot: &SystemSnapshot<'_>,
    config: &ScenarioConfig,
    ledger: &mut Ledger,
    checks: &mut Checks,
) {
    let fleet = &stepper.scenario().fleet;
    let exec = Exec::new(config.parallelism);
    let slot = snapshot.slot;
    let Some(observed) = slot.prev() else {
        // Slot 0 observes the all-zero bootstrap window; nothing to
        // synthesize or screen.
        return;
    };
    let mut windows = UtilizationWindows::zeros(&[], TICKS_PER_SLOT);
    let ((), windows_ms) = timed(|| fleet.windows_into(observed, &mut windows));
    ledger.time("workload.windows_ms", windows_ms);
    ledger.count(
        "workload.windows_mb",
        (windows.len() * TICKS_PER_SLOT * 4) as f64 / 1e6,
    );
    checks.require(&windows == snapshot.windows, || {
        format!("slot {}: observed windows differ from windows_into", slot.0)
    });

    let (corr, corr_ms) = timed(|| {
        CpuCorrelationMatrix::compute_auto_exec(
            snapshot.windows,
            CorrelationMetric::PeakCoincidence,
            &config.sparsity,
            exec,
        )
    });
    ledger.time("workload.corr_ms", corr_ms);
    let edges = if corr.is_sparse() {
        corr.edge_count()
    } else {
        corr.len() * corr.len().saturating_sub(1)
    };
    ledger.count("workload.corr_edges", edges as f64);
    checks.require(&corr == snapshot.cpu_corr, || {
        format!(
            "slot {}: CPU correlation differs from compute_auto_exec",
            slot.0
        )
    });

    let (traffic, traffic_ms) = timed(|| {
        fleet
            .data_correlation()
            .traffic_graph_exec(snapshot.arena, exec)
    });
    ledger.time("workload.traffic_ms", traffic_ms);
    ledger.count("workload.traffic_edges", traffic.edge_count() as f64);
    checks.require(&traffic == snapshot.traffic, || {
        format!(
            "slot {}: traffic graph differs from traffic_graph_exec",
            slot.0
        )
    });
}
