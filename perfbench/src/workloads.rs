//! The three workloads. A run makes a fixed number of passes over a
//! fixed set of worlds — each world a set-up plus a fixed horizon of the
//! same operations — and every pass of a seed must leave the same
//! fingerprint.

use crate::checks::{close, outaged, Checks};
use crate::drive::PolicyRun;
use crate::ledger::{median, ms_since, now, peak_rss_mib, quantile, timed, Ledger};
use geoplace_bench::json::{object, Value};
use geoplace_bench::serve::Session;
use geoplace_bench::{CliArgs, PolicyKind, Scale};
use geoplace_dcsim::config::ScenarioConfig;
use geoplace_dcsim::metrics::SimulationReport;
use geoplace_types::snap::Checkpoint;
use geoplace_types::Parallelism;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// `stress_fleet`: horizon and checkpoint boundaries (completed slots).
const STRESS_SLOTS: u32 = 6;
const STRESS_CHECKPOINTS: [u32; 2] = [2, 4];
/// `repro_compare`: one simulated day of the four policies.
const REPRO_SLOTS: u32 = 24;
const REPRO_CHECKPOINTS: [u32; 5] = [4, 8, 12, 16, 20];
/// `outage_serve`: past the cascade front (slots 8–10 at DC 0–2).
const SERVE_SLOTS: u32 = 12;
const SERVE_CHECKPOINTS: [u32; 3] = [3, 6, 9];
/// State queries per steady slot, in every workload.
const QUERIES_PER_SLOT: usize = 4;

/// Everything a run reports.
pub struct Outcome {
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The seed-determined outputs of one round (identical every round).
    pub fingerprint: Value,
}

/// What one round measured and produced.
#[derive(Default)]
struct Round {
    setup_s: Vec<f64>,
    run_s: f64,
    slot_ms: Vec<f64>,
    query_us: Vec<f64>,
    save_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    snapshot_bytes: u64,
    sim: [f64; 3],
    digests: Vec<String>,
    hashes: Vec<Vec<u64>>,
    ops: u64,
}

impl Round {
    fn fingerprint(&self) -> Value {
        object(vec![
            (
                "digests",
                Value::Array(self.digests.iter().map(|d| d.as_str().into()).collect()),
            ),
            (
                "state_hashes",
                Value::Array(
                    self.hashes
                        .iter()
                        .map(|hs| {
                            Value::Array(hs.iter().map(|h| format!("{h:016x}").into()).collect())
                        })
                        .collect(),
                ),
            ),
            ("sim_cost_eur", self.sim[0].into()),
            ("sim_energy_gj", self.sim[1].into()),
            ("sim_p95_response_s", self.sim[2].into()),
            ("snapshot_bytes", self.snapshot_bytes.into()),
        ])
    }

    fn set_sim(&mut self, report: &SimulationReport) {
        let totals = report.totals();
        self.sim = [totals.cost_eur, totals.energy_gj, totals.p95_response_s];
    }
}

/// The run's parameters.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub ledger: Ledger,
    pub serve_bin: PathBuf,
    pub work_dir: PathBuf,
}

/// Worlds per pass: the run's seed and its offsets by [`WORLD_STRIDE`].
/// Several worlds average out how much one seed's fleet happens to
/// differ from another's.
const STRESS_WORLDS: u64 = 1;
/// `stress_fleet` sets up further worlds to slot 0 only, so that
/// `setup_s` is a median over several set-ups, as in the other workloads,
/// without the cost of more 10,000-VM horizons.
const STRESS_EXTRA_SETUPS: u64 = 3;
const REPRO_WORLDS: u64 = 4;
const SERVE_WORLDS: u64 = 6;
const WORLD_STRIDE: u64 = 1000;
/// Nominal seconds of one pass on a 2-vCPU VM, which set the number of
/// passes from `--seconds` (see [`passes`]).
const STRESS_PASS_S: f64 = 9.5;
const REPRO_PASS_S: f64 = 33.0;
const SERVE_PASS_S: f64 = 13.0;

/// The world seeds of a run.
fn world_seeds(seed: u64, worlds: u64) -> Vec<u64> {
    (0..worlds)
        .map(|i| seed.wrapping_add(i * WORLD_STRIDE))
        .collect()
}

/// Passes of a run: as many as fit in `seconds` at the workload's
/// nominal pass time, and at least two, so that every run repeats its
/// worlds and checks the repeat's fingerprint. The count depends on `--seconds`
/// alone, never on how fast the code runs, so every build of the program
/// is measured with the same best-of-passes estimator.
fn passes(seconds: f64, pass_s: f64) -> usize {
    ((seconds / pass_s).floor() as usize).max(2)
}

/// Runs `round` over every world seed, `passes` times, and folds the
/// rounds into the end-to-end metrics.
fn repeat(
    passes: usize,
    seeds: &[u64],
    checks: &mut Checks,
    rss: impl Fn() -> f64,
    mut round: impl FnMut(u64, &mut Ledger, &mut Checks) -> Result<Round, String>,
) -> Outcome {
    let mut rounds: Vec<Vec<Round>> = Vec::new();
    let mut failed = 0;
    let mut untraced = Ledger::new(false);
    let mut peak = None;
    'run: for _ in 0..passes {
        let mut pass = Vec::new();
        for &seed in seeds {
            match round(seed, &mut untraced, checks) {
                Ok(r) => pass.push(r),
                Err(e) => {
                    eprintln!("operation failed: {e}");
                    failed += 1;
                    break 'run;
                }
            }
        }
        rounds.push(pass);
        // The peak after the first pass: later passes only add allocator
        // fragmentation.
        peak.get_or_insert_with(&rss);
    }
    summarize(rounds, failed, checks, peak.unwrap_or_else(rss))
}

/// Folds repeated passes over the worlds: times are pooled over every
/// world and pass, seed-determined outputs are means over the worlds
/// of the first pass, and every later pass must repeat them exactly.
fn summarize(passes: Vec<Vec<Round>>, failed: u64, checks: &mut Checks, rss_mib: f64) -> Outcome {
    let first: &[Round] = passes.first().map_or(&[], Vec::as_slice);
    let fingerprint = Value::Array(first.iter().map(Round::fingerprint).collect());
    for (i, pass) in passes.iter().enumerate().skip(1) {
        let again = Value::Array(pass.iter().map(Round::fingerprint).collect());
        checks.require(again == fingerprint, || {
            format!("pass {i} left a different fingerprint than pass 0 of the same seed")
        });
    }
    // Each timed operation of a world repeats once per pass; its best
    // time is kept, which drops the passes a noisy neighbour slowed, and
    // the medians run over the worlds' operations.
    let best = |w: usize, f: &dyn Fn(&Round) -> f64| -> f64 {
        passes
            .iter()
            .filter_map(|pass| pass.get(w))
            .map(f)
            .fold(f64::INFINITY, f64::min)
    };
    let pool = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        (0..first.len())
            .flat_map(|w| (0..f(&first[w]).len()).map(move |i| (w, i)))
            .map(|(w, i)| best(w, &|r| f(r).get(i).copied().unwrap_or(f64::INFINITY)))
            .collect()
    };
    let per_round =
        |f: fn(&Round) -> f64| -> Vec<f64> { (0..first.len()).map(|w| best(w, &f)).collect() };
    let mean = |f: fn(&Round) -> f64| -> f64 {
        first.iter().map(f).sum::<f64>() / first.len().max(1) as f64
    };
    let metrics = vec![
        ("setup_s".into(), median(&pool(|r| &r.setup_s)), "s"),
        ("slot_ms_p50".into(), median(&pool(|r| &r.slot_ms)), "ms"),
        ("run_s".into(), median(&per_round(|r| r.run_s)), "s"),
        ("query_us_p50".into(), median(&pool(|r| &r.query_us)), "us"),
        ("save_ms_p50".into(), median(&pool(|r| &r.save_ms)), "ms"),
        (
            "restore_ms_p50".into(),
            median(&pool(|r| &r.restore_ms)),
            "ms",
        ),
        (
            "snapshot_bytes".into(),
            mean(|r| r.snapshot_bytes as f64).round(),
            "bytes",
        ),
        ("peak_rss_mb".into(), rss_mib, "MiB"),
        ("sim_cost_eur".into(), mean(|r| r.sim[0]), "EUR"),
        ("sim_energy_gj".into(), mean(|r| r.sim[1]), "GJ"),
        ("sim_p95_response_s".into(), mean(|r| r.sim[2]), "s"),
    ];
    Outcome {
        attempted: passes.iter().flatten().map(|r| r.ops).sum::<u64>() + failed,
        failed,
        metrics,
        fingerprint,
    }
}

fn self_rss() -> f64 {
    peak_rss_mib("self").unwrap_or(0.0)
}

/// The scenario of a workload at `seed`.
fn stress_config(seed: u64) -> ScenarioConfig {
    let mut config = Scale::Stress.config(seed);
    config.horizon_slots = STRESS_SLOTS;
    config
}

/// `repro_compare` runs its kernels on one worker: at about 400 VMs the
/// dense layout forks and joins two workers per iteration, and two-worker
/// slot times followed hypervisor steal (an 18.8 % spread over ten
/// seeds). The other workloads keep `Parallelism::Auto`.
fn repro_config(seed: u64) -> ScenarioConfig {
    let mut config = Scale::Repro.config(seed);
    config.horizon_slots = REPRO_SLOTS;
    config.parallelism = Parallelism::Serial;
    config
}

fn serve_args(seed: u64) -> Vec<String> {
    let seed = seed.to_string();
    let slots = SERVE_SLOTS.to_string();
    [
        "--paper",
        "--scenario",
        "dc_outage",
        "--seed",
        &seed,
        "--slots",
        &slots,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn serve_config(seed: u64) -> Result<ScenarioConfig, String> {
    let mut args = vec!["perfbench".to_string()];
    args.extend(serve_args(seed));
    let mut config = CliArgs::from_slice(&args)?.config();
    config.horizon_slots = SERVE_SLOTS;
    Ok(config)
}

/// Builds a Proposed world and applies its cold slot 0; returns the run
/// and the set-up time in seconds.
fn proposed_setup(
    config: &ScenarioConfig,
    side_baselines: bool,
    ledger: &mut Ledger,
    checks: &mut Checks,
) -> Result<(PolicyRun, f64), String> {
    let start = now();
    let mut run = PolicyRun::build(config, PolicyKind::Proposed, ledger, side_baselines)?;
    ledger.at(0);
    run.step(0, &mut Vec::new(), ledger, checks)?;
    Ok((run, start.elapsed().as_secs_f64()))
}

/// One Proposed world stepped to its horizon, checkpointed and restored
/// at `boundaries`.
fn proposed_round(
    config: &ScenarioConfig,
    boundaries: &[u32],
    side_baselines: bool,
    ledger: &mut Ledger,
    checks: &mut Checks,
) -> Result<Round, String> {
    let mut r = Round::default();
    let (mut run, setup_s) = proposed_setup(config, side_baselines, ledger, checks)?;
    r.setup_s.push(setup_s);
    let run_start = now();
    while !run.done() {
        ledger.at(run.completed());
        r.slot_ms
            .push(run.step(QUERIES_PER_SLOT, &mut r.query_us, ledger, checks)?);
        if boundaries.contains(&run.completed()) {
            let rt = run.checkpoint_restore(ledger, checks)?;
            r.save_ms.push(rt.save_ms);
            r.restore_ms.push(rt.restore_ms);
            r.snapshot_bytes = rt.bytes as u64;
        }
    }
    r.run_s = run_start.elapsed().as_secs_f64();
    let report = run.report(ledger);
    checks.report(&report, config.horizon_slots, "Proposed");
    r.set_sim(&report);
    r.digests.push(report.digest());
    r.hashes.push(run.hashes.clone());
    r.ops = u64::from(config.horizon_slots)
        + 2 * boundaries.len() as u64
        + (QUERIES_PER_SLOT as u64) * u64::from(config.horizon_slots - 1);
    Ok(r)
}

/// `stress_fleet`: Proposed over ≈10,000 VMs (sparse path).
pub fn stress_fleet(params: &mut Params, checks: &mut Checks) -> Result<Outcome, String> {
    if params.ledger.enabled() {
        let config = stress_config(params.seed);
        return traced_library(params, checks, &config, |ledger, checks| {
            proposed_round(&config, &STRESS_CHECKPOINTS, true, ledger, checks)
        });
    }
    let seeds = world_seeds(params.seed, STRESS_WORLDS);
    Ok(repeat(
        passes(params.seconds, STRESS_PASS_S),
        &seeds,
        checks,
        self_rss,
        |seed, ledger, checks| {
            let mut r = proposed_round(
                &stress_config(seed),
                &STRESS_CHECKPOINTS,
                false,
                ledger,
                checks,
            )?;
            for i in 1..=STRESS_EXTRA_SETUPS {
                let config = stress_config(seed.wrapping_add(i * WORLD_STRIDE));
                let (run, setup_s) = proposed_setup(&config, false, ledger, checks)?;
                r.setup_s.push(setup_s);
                r.hashes.push(run.hashes);
                r.ops += 1;
            }
            Ok(r)
        },
    ))
}

/// One day of the four policies in lockstep over identical worlds.
fn repro_round(
    config: &ScenarioConfig,
    ledger: &mut Ledger,
    checks: &mut Checks,
) -> Result<Round, String> {
    let mut r = Round::default();
    let start = now();
    let mut runs = Vec::new();
    for kind in PolicyKind::ALL {
        let mut run = PolicyRun::build(config, kind, ledger, false)?;
        ledger.at(0);
        run.step(0, &mut Vec::new(), ledger, checks)?;
        runs.push(run);
    }
    r.setup_s.push(start.elapsed().as_secs_f64());
    let run_start = now();
    while !runs[0].done() {
        let slot = runs[0].completed();
        ledger.at(slot);
        let mut slot_ms = 0.0;
        for (i, run) in runs.iter_mut().enumerate() {
            let queries = if i == 0 { QUERIES_PER_SLOT } else { 0 };
            slot_ms += run.step(queries, &mut r.query_us, ledger, checks)?;
        }
        r.slot_ms.push(slot_ms);
        if REPRO_CHECKPOINTS.contains(&runs[0].completed()) {
            let rt = runs[0].checkpoint_restore(ledger, checks)?;
            r.save_ms.push(rt.save_ms);
            r.restore_ms.push(rt.restore_ms);
            r.snapshot_bytes = rt.bytes as u64;
        }
    }
    r.run_s = run_start.elapsed().as_secs_f64();
    let reports: Vec<SimulationReport> = runs.iter().map(|d| d.report(ledger)).collect();
    for report in &reports {
        checks.report(report, config.horizon_slots, &report.policy);
        r.digests.push(report.digest());
    }
    r.hashes = runs.iter().map(|d| d.hashes.clone()).collect();
    // The paper's Figs. 1–2: Proposed has the lowest cost and energy.
    let proposed = reports[0].totals();
    for other in &reports[1..] {
        let totals = other.totals();
        checks.require(
            proposed.cost_eur < totals.cost_eur && proposed.energy_gj < totals.energy_gj,
            || {
                format!(
                    "Proposed (cost {:.2} EUR, energy {:.4} GJ) does not beat {} \
                     ({:.2} EUR, {:.4} GJ)",
                    proposed.cost_eur,
                    proposed.energy_gj,
                    other.policy,
                    totals.cost_eur,
                    totals.energy_gj
                )
            },
        );
    }
    r.set_sim(&reports[0]);
    let slots = u64::from(config.horizon_slots);
    r.ops = 4 * slots + 2 * REPRO_CHECKPOINTS.len() as u64 + QUERIES_PER_SLOT as u64 * (slots - 1);
    Ok(r)
}

/// `repro_compare`: the paper's four-policy comparison (dense path).
pub fn repro_compare(params: &mut Params, checks: &mut Checks) -> Result<Outcome, String> {
    if params.ledger.enabled() {
        let config = repro_config(params.seed);
        return traced_library(params, checks, &config, |ledger, checks| {
            repro_round(&config, ledger, checks)
        });
    }
    let seeds = world_seeds(params.seed, REPRO_WORLDS);
    Ok(repeat(
        passes(params.seconds, REPRO_PASS_S),
        &seeds,
        checks,
        self_rss,
        |seed, ledger, checks| repro_round(&repro_config(seed), ledger, checks),
    ))
}

/// The traced run of a library workload: one untraced round, one traced
/// round, and the serve script in process on the same world.
fn traced_library(
    params: &mut Params,
    checks: &mut Checks,
    config: &ScenarioConfig,
    mut round: impl FnMut(&mut Ledger, &mut Checks) -> Result<Round, String>,
) -> Result<Outcome, String> {
    let plain = round(&mut Ledger::new(false), checks)?;
    let traced = round(&mut params.ledger, checks)?;
    params.ledger.put("trace.untraced_run_s", plain.run_s);
    params.ledger.put("trace.traced_run_s", traced.run_s);
    params
        .ledger
        .put("trace.overhead_s", traced.run_s - plain.run_s);
    checks.require(plain.fingerprint() == traced.fingerprint(), || {
        "the traced round left a different fingerprint than the untraced one".into()
    });
    let mut script = ScriptOut::default();
    let start = now();
    let mut session = InProcess::new(config)?;
    run_script(
        &mut session,
        start,
        config,
        &script_path(params),
        true,
        &mut script,
        checks,
    )?;
    checks.require(script.hashes == traced.hashes[0], || {
        "serve session state hashes differ from the library run's".into()
    });
    record_serve_layers(&mut params.ledger, &script);
    Ok(traced_outcome(
        params,
        plain.ops + traced.ops + script.ops,
        plain.fingerprint(),
    ))
}

fn traced_outcome(params: &Params, attempted: u64, fingerprint: Value) -> Outcome {
    let metrics = params
        .ledger
        .metrics()
        .into_iter()
        .map(|(name, value)| (name.to_string(), value, unit_of(name)))
        .collect();
    Outcome {
        attempted,
        failed: 0,
        metrics,
        fingerprint,
    }
}

/// The unit a per-layer metric name implies.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_us") || name.ends_with("_us_p95") {
        "us"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_mb") {
        "MB"
    } else if name.ends_with("_ratio") {
        "ratio"
    } else {
        "count"
    }
}

// ---------------------------------------------------------------------------
// The serve protocol script.

/// A line-in, line-out transport to a serve session.
trait Transport {
    fn call(&mut self, line: &str) -> Result<String, String>;
}

/// A `geoplace-serve` child process over stdin/stdout.
struct ServeProcess {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ServeProcess {
    fn spawn(bin: &Path, args: &[String]) -> Result<ServeProcess, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().ok_or("child has no stdin")?;
        let stdout = BufReader::new(child.stdout.take().ok_or("child has no stdout")?);
        Ok(ServeProcess {
            child,
            stdin,
            stdout,
        })
    }

    /// Sends `shutdown` and waits for the process to end.
    fn finish(mut self) -> Result<String, String> {
        let line = self.call(r#"{"cmd":"shutdown"}"#)?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("geoplace-serve exited with {status}"));
        }
        Ok(line)
    }
}

impl Transport for ServeProcess {
    fn call(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.stdin, "{line}").map_err(|e| format!("write to serve: {e}"))?;
        self.stdin
            .flush()
            .map_err(|e| format!("write to serve: {e}"))?;
        let mut out = String::new();
        let n = self
            .stdout
            .read_line(&mut out)
            .map_err(|e| format!("read from serve: {e}"))?;
        if n == 0 {
            return Err("geoplace-serve closed its output".into());
        }
        Ok(out.trim_end().to_string())
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        // Reaps the child on every path; after `finish` it has exited
        // already and both calls are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The same session in this process (`Session::handle_line`).
struct InProcess {
    session: Session,
}

impl InProcess {
    fn new(config: &ScenarioConfig) -> Result<InProcess, String> {
        Ok(InProcess {
            session: Session::new(config, PolicyKind::Proposed, false)?,
        })
    }
}

impl Transport for InProcess {
    fn call(&mut self, line: &str) -> Result<String, String> {
        Ok(self.session.handle_line(line).line)
    }
}

/// Per-command timings and outputs of one scripted session.
#[derive(Default)]
struct ScriptOut {
    setup_s: f64,
    run_s: f64,
    slot_ms: Vec<f64>,
    advance_ms: Vec<f64>,
    decide_ms: Vec<f64>,
    get_state_us: Vec<f64>,
    metrics_us: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    parse_us: Vec<f64>,
    render_us: Vec<f64>,
    snapshot_bytes: u64,
    hashes: Vec<u64>,
    totals: Option<Value>,
    digest: String,
    ops: u64,
}

/// Sends one command, times the round trip, parses the response (timed)
/// and requires `"ok":true`.
fn send(
    t: &mut dyn Transport,
    line: &str,
    out: &mut ScriptOut,
    render: bool,
) -> Result<(Value, f64), String> {
    let start = now();
    let response = t.call(line)?;
    let ms = ms_since(start);
    out.ops += 1;
    let (value, parse_ms) = timed(|| Value::parse(&response));
    let value = value.map_err(|e| format!("{line}: unparsable response {response:?}: {e}"))?;
    out.parse_us.push(parse_ms * 1e3);
    if render {
        let (text, render_ms) = timed(|| value.render());
        std::hint::black_box(text);
        out.render_us.push(render_ms * 1e3);
    }
    if value.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{line} answered {response}"));
    }
    Ok((value, ms))
}

fn field_f64(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn script_path(params: &Params) -> PathBuf {
    params
        .work_dir
        .join(format!("ckpt-{}.gpck", std::process::id()))
}

/// The `outage_serve` command script: per slot `advance`, a fixed
/// number of `get_state` (steady slots), `decide` and `metrics`; every
/// few slots `checkpoint` and a `restore` of that same file.
fn run_script(
    t: &mut dyn Transport,
    start: Instant,
    config: &ScenarioConfig,
    ckpt: &Path,
    render: bool,
    out: &mut ScriptOut,
    checks: &mut Checks,
) -> Result<(), String> {
    let horizon = config.horizon_slots;
    let (mut cost, mut energy) = (0.0f64, 0.0f64);
    let mut run_start: Option<Instant> = None;
    for slot in 0..horizon {
        let (adv, ms) = send(t, r#"{"cmd":"advance"}"#, out, render)?;
        out.advance_ms.push(ms);
        checks.require(
            adv.get("slot").and_then(Value::as_u64) == Some(u64::from(slot)),
            || format!("advance answered {} for slot {slot}", adv.render()),
        );
        let mut slot_ms = ms;
        for _ in 0..if slot > 0 { QUERIES_PER_SLOT } else { 0 } {
            let (state, ms) = send(t, r#"{"cmd":"get_state"}"#, out, render)?;
            out.get_state_us.push(ms * 1e3);
            let dcs = state.get("dcs").and_then(Value::as_array).unwrap_or(&[]);
            checks.require(dcs.len() == config.dcs.len(), || {
                format!("slot {slot}: get_state lists {} DCs", dcs.len())
            });
            for (d, dc) in dcs.iter().enumerate() {
                let expected = outaged(config, d, slot);
                checks.require(
                    dc.get("outaged").and_then(Value::as_bool) == Some(expected),
                    || format!("slot {slot}: get_state reports DC {d} outaged ≠ {expected}"),
                );
            }
        }
        let (dec, ms) = send(t, r#"{"cmd":"decide"}"#, out, render)?;
        out.decide_ms.push(ms);
        slot_ms += ms;
        if slot == 0 {
            out.setup_s = start.elapsed().as_secs_f64();
            run_start = Some(now());
        } else {
            out.slot_ms.push(slot_ms);
        }
        let hash = dec.get("state_hash").and_then(Value::as_str).unwrap_or("");
        let hash = u64::from_str_radix(hash, 16).map_err(|_| format!("bad state hash {hash:?}"))?;
        out.hashes.push(hash);
        let fields = [
            "cost_eur",
            "total_energy_j",
            "grid_energy_j",
            "migration_volume_gb",
            "response_worst_s",
        ];
        checks.require(
            fields.iter().all(|f| {
                let v = field_f64(&dec, f);
                v.is_finite() && v >= 0.0
            }),
            || {
                format!(
                    "slot {slot}: non-finite or negative field in {}",
                    dec.render()
                )
            },
        );
        let active = dec
            .get("active_servers")
            .and_then(Value::as_u64)
            .unwrap_or(u64::MAX);
        checks.servers(slot, active, config, "serve");
        cost += field_f64(&dec, "cost_eur");
        energy += field_f64(&dec, "total_energy_j") / 1e9;

        let (metrics, ms) = send(t, r#"{"cmd":"metrics"}"#, out, render)?;
        out.metrics_us.push(ms * 1e3);
        checks.require(
            metrics.get("slots").and_then(Value::as_u64) == Some(u64::from(slot) + 1),
            || {
                format!(
                    "slot {slot}: metrics counts {:?} slots",
                    metrics.get("slots")
                )
            },
        );
        out.digest = metrics
            .get("digest")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        out.totals = metrics.get("totals").cloned();

        let completed = slot + 1;
        if SERVE_CHECKPOINTS.contains(&completed) {
            let path = ckpt.display().to_string();
            let cmd = object(vec![
                ("cmd", "checkpoint".into()),
                ("path", path.as_str().into()),
            ])
            .render();
            let (saved, ms) = send(t, &cmd, out, render)?;
            out.checkpoint_ms.push(ms);
            let bytes = std::fs::read(ckpt).map_err(|e| format!("read {path}: {e}"))?;
            checks.require(
                saved.get("bytes").and_then(Value::as_u64) == Some(bytes.len() as u64),
                || {
                    format!(
                        "checkpoint reports {:?} bytes, file has {}",
                        saved.get("bytes"),
                        bytes.len()
                    )
                },
            );
            let reencoded = Checkpoint::decode(&bytes).map(|c| c.encode());
            checks.require(reencoded.as_ref() == Ok(&bytes), || {
                format!("slot {slot}: decode → encode changed the checkpoint bytes")
            });
            out.snapshot_bytes = bytes.len() as u64;
            let cmd = object(vec![
                ("cmd", "restore".into()),
                ("path", path.as_str().into()),
            ])
            .render();
            let (restored, ms) = send(t, &cmd, out, render)?;
            out.restore_ms.push(ms);
            let saved_hash = saved.get("state_hash").and_then(Value::as_str);
            checks.require(
                saved_hash.is_some()
                    && restored.get("state_hash").and_then(Value::as_str) == saved_hash
                    && saved_hash == Some(format!("{hash:016x}").as_str()),
                || format!("slot {slot}: restore state hash differs from the checkpoint's"),
            );
        }
    }
    out.run_s = run_start.map_or(0.0, |s| s.elapsed().as_secs_f64());
    let totals = out.totals.clone().unwrap_or(Value::Null);
    checks.require(
        close(field_f64(&totals, "cost_eur"), cost)
            && close(field_f64(&totals, "energy_gj"), energy),
        || {
            format!(
                "metrics totals {} differ from the sums of the decide responses",
                totals.render()
            )
        },
    );
    let _ = std::fs::remove_file(ckpt);
    Ok(())
}

/// One `outage_serve` round against a fresh `geoplace-serve` process;
/// also returns the process's peak RSS.
fn serve_round(params: &Params, seed: u64, checks: &mut Checks) -> Result<(Round, f64), String> {
    let config = &serve_config(seed)?;
    // Set-up counts from the spawn: process start, world build and the
    // cold slot 0.
    let start = now();
    let mut child = ServeProcess::spawn(&params.serve_bin, &serve_args(seed))?;
    let mut out = ScriptOut::default();
    run_script(
        &mut child,
        start,
        config,
        &script_path(params),
        false,
        &mut out,
        checks,
    )?;
    let rss = peak_rss_mib(&child.child.id().to_string()).unwrap_or(0.0);
    let bye = Value::parse(&child.finish()?).unwrap_or(Value::Null);
    checks.require(
        bye.get("digest").and_then(Value::as_str) == Some(out.digest.as_str()),
        || {
            format!(
                "shutdown digest {:?} differs from the last metrics digest",
                bye.get("digest")
            )
        },
    );
    Ok((script_round(out, 1), rss))
}

/// Folds a scripted session into a round.
fn script_round(out: ScriptOut, extra_ops: u64) -> Round {
    let totals = out.totals.unwrap_or(Value::Null);
    Round {
        setup_s: vec![out.setup_s],
        run_s: out.run_s,
        slot_ms: out.slot_ms,
        query_us: out.get_state_us,
        save_ms: out.checkpoint_ms,
        restore_ms: out.restore_ms,
        snapshot_bytes: out.snapshot_bytes,
        sim: [
            field_f64(&totals, "cost_eur"),
            field_f64(&totals, "energy_gj"),
            field_f64(&totals, "p95_response_s"),
        ],
        digests: vec![out.digest],
        hashes: vec![out.hashes],
        ops: out.ops + extra_ops,
    }
}

/// `outage_serve`: the `geoplace-serve` binary over stdin/stdout.
pub fn outage_serve(params: &mut Params, checks: &mut Checks) -> Result<Outcome, String> {
    if params.ledger.enabled() {
        return traced_serve(params, checks);
    }
    let peaks = std::cell::RefCell::new(Vec::new());
    let p: &Params = params;
    let seeds = world_seeds(p.seed, SERVE_WORLDS);
    Ok(repeat(
        passes(p.seconds, SERVE_PASS_S),
        &seeds,
        checks,
        || median(&peaks.borrow()),
        |seed, _, checks| {
            let (round, rss) = serve_round(p, seed, checks)?;
            peaks.borrow_mut().push(rss);
            Ok(round)
        },
    ))
}

/// The traced run of `outage_serve`: one process round untraced, then
/// the same script in process (`Session::handle_line` per command) and a
/// library replica of the same world with every layer traced.
fn traced_serve(params: &mut Params, checks: &mut Checks) -> Result<Outcome, String> {
    let config = &serve_config(params.seed)?;
    let (plain, _) = serve_round(params, params.seed, checks)?;
    let traced_start = now();
    let start = now();
    let mut session = InProcess::new(config)?;
    let mut script = ScriptOut::default();
    run_script(
        &mut session,
        start,
        config,
        &script_path(params),
        true,
        &mut script,
        checks,
    )?;
    record_serve_layers(&mut params.ledger, &script);
    let script_ops = script.ops;
    let in_process = script_round(script, 0);
    let replica = proposed_round(config, &SERVE_CHECKPOINTS, true, &mut params.ledger, checks)?;
    let traced_s = traced_start.elapsed().as_secs_f64();
    checks.require(in_process.fingerprint() == plain.fingerprint(), || {
        "the in-process session left a different fingerprint than geoplace-serve".into()
    });
    checks.require(replica.hashes == plain.hashes, || {
        "the library replica's state hashes differ from geoplace-serve's".into()
    });
    params.ledger.put("trace.untraced_run_s", plain.run_s);
    params.ledger.put("trace.traced_run_s", traced_s);
    params
        .ledger
        .put("trace.overhead_s", traced_s - plain.run_s);
    Ok(traced_outcome(
        params,
        plain.ops + script_ops + replica.ops,
        plain.fingerprint(),
    ))
}

/// Per-command serve timings into the ledger (steady slots only for
/// `advance` and `decide`).
fn record_serve_layers(ledger: &mut Ledger, s: &ScriptOut) {
    let series: [(&'static str, &[f64], f64); 8] = [
        (
            "serve.advance_ms",
            s.advance_ms.get(1..).unwrap_or(&[]),
            1.0,
        ),
        ("serve.decide_ms", s.decide_ms.get(1..).unwrap_or(&[]), 1.0),
        ("serve.get_state_us", &s.get_state_us, 1e-3),
        ("serve.metrics_us", &s.metrics_us, 1e-3),
        ("serve.checkpoint_ms", &s.checkpoint_ms, 1.0),
        ("serve.restore_ms", &s.restore_ms, 1.0),
        ("serve.json_parse_us", &s.parse_us, 1e-3),
        ("serve.json_render_us", &s.render_us, 1e-3),
    ];
    for (metric, values, to_ms) in series {
        for &v in values {
            ledger.time(metric, v * to_ms);
        }
    }
    ledger.put("serve.get_state_us_p95", quantile(&s.get_state_us, 0.95));
}
