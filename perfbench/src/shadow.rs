//! Shadow replay of `ProposedPolicy::decide` from its public stage
//! functions, so each stage can be timed from outside.
//!
//! The shadow owns the same warm-start state the policy carries across
//! slots (force-layout positions, previous centroids, migration-check
//! RNG), built from the same configuration and seed, and runs the same
//! stages on the same `SystemSnapshot`. Its decision must equal the
//! policy's every slot; the workload checks that.

use crate::ledger::{timed, Ledger};
use geoplace_core::{
    allocate, compute_caps, kmeans_exec, revise_migrations, ForceLayout, ForceLayoutConfig, Point,
    ProposedConfig, VmPlacementInput,
};
use geoplace_dcsim::decision::PlacementDecision;
use geoplace_dcsim::snapshot::SystemSnapshot;
use geoplace_types::units::Joules;
use geoplace_types::{DcId, Exec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The policy's RNG stream derivation (`ProposedPolicy::new`).
const RNG_SALT: u64 = 0x9E37;

/// The stage-by-stage replica of one `ProposedPolicy`.
pub struct ProposedShadow {
    config: ProposedConfig,
    layout: ForceLayout,
    prev_centroids: Option<Vec<Point>>,
    rng: StdRng,
    exec: Exec,
}

impl ProposedShadow {
    /// A shadow of a freshly constructed `ProposedPolicy::new(config)`.
    pub fn new(config: ProposedConfig) -> ProposedShadow {
        let layout_config = ForceLayoutConfig {
            alpha: config.alpha,
            max_iterations: config.max_force_iterations,
            grid_dim: config.layout_grid_dim,
            ..ForceLayoutConfig::default()
        };
        let exec = Exec::new(config.parallelism);
        ProposedShadow {
            layout: ForceLayout::new(layout_config, config.seed).with_exec(exec),
            prev_centroids: None,
            rng: StdRng::seed_from_u64(config.seed ^ RNG_SALT),
            exec,
            config,
        }
    }

    /// Runs the four stages over `snapshot`, timing each into `ledger`,
    /// and returns the assembled decision.
    pub fn replay(
        &mut self,
        snapshot: &SystemSnapshot<'_>,
        ledger: &mut Ledger,
    ) -> PlacementDecision {
        let ids = snapshot.vm_ids();
        let n = ids.len();
        let n_dcs = snapshot.dc_count();
        let mut decision = PlacementDecision::new(n_dcs);
        if n == 0 {
            return decision;
        }

        let layout = &mut self.layout;
        let (points, layout_ms) = timed(|| {
            layout
                .update(snapshot.arena, snapshot.cpu_corr, snapshot.traffic)
                .to_vec()
        });
        ledger.time("core.layout_ms", layout_ms);
        ledger.count(
            "core.layout_iterations",
            self.layout.last_iterations() as f64,
        );

        let (config, exec, prev) = (self.config, self.exec, self.prev_centroids.as_deref());
        let ((caps, loads, clustering), kmeans_ms) = timed(|| {
            let caps = compute_caps(snapshot.dcs, config.caps);
            let mut loads: Vec<Joules> = (0..n).map(|i| snapshot.vm_slot_energy(i)).collect();
            let reference: f64 = snapshot.dcs.iter().map(|d| d.last_total_energy.0).sum();
            let raw_total: f64 = loads.iter().map(|l| l.0).sum();
            if reference > 0.0 && raw_total > 0.0 {
                let scale = reference / raw_total;
                for load in &mut loads {
                    *load = *load * scale;
                }
            }
            let clustering = kmeans_exec(&points, &loads, &caps, prev, config.kmeans, exec);
            (caps, loads, clustering)
        });
        ledger.time("core.kmeans_ms", kmeans_ms);
        ledger.count("core.kmeans_iterations", clustering.iterations as f64);
        self.prev_centroids = Some(clustering.centroids.clone());

        let rng = &mut self.rng;
        let (revised, migrate_ms) = timed(|| {
            let inputs: Vec<VmPlacementInput> = (0..n)
                .map(|i| VmPlacementInput {
                    vm: ids[i],
                    prev: snapshot.prev_dc.get(&ids[i]).copied(),
                    target: DcId(clustering.assignment[i] as u16),
                    position: points[i],
                    load: loads[i],
                    size: snapshot.vm_memory[i],
                })
                .collect();
            revise_migrations(
                &inputs,
                &clustering.centroids,
                &caps,
                snapshot.latency,
                snapshot.migration_budget,
                rng,
            )
        });
        ledger.time("core.migrate_ms", migrate_ms);

        let local = self.config.local;
        let (per_dc, pack_ms) = timed(|| {
            exec.map_chunks_sized(n_dcs, 1, |range| {
                range
                    .map(|dc_index| {
                        let dc = DcId(dc_index as u16);
                        let members: Vec<usize> =
                            (0..n).filter(|&i| revised.dc_of[&ids[i]] == dc).collect();
                        let info = &snapshot.dcs[dc_index];
                        allocate(&members, snapshot, &info.power_model, info.servers, local)
                    })
                    .collect::<Vec<_>>()
            })
        });
        ledger.time("core.pack_ms", pack_ms);
        for (dc_index, assignments) in per_dc.into_iter().flatten().enumerate() {
            for assignment in assignments {
                decision.push(DcId(dc_index as u16), assignment);
            }
        }
        decision
    }
}
