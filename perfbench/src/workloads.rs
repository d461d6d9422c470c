//! The three workloads and the phases they share.
//!
//! Every workload runs the same phases on its own state — ingest with a
//! publish per batch, checkpoint and warm restarts, a closed-loop lookup
//! run, fresh connections — so every end-to-end metric is measured in
//! every workload. What differs is where the work is: ingest-history
//! replays 40 days one at a time with nothing reading; lookup-steady
//! ingests in two batches during set-up, warm-restarts beside an open-loop
//! reader and spends the rest of its measured time on the socket;
//! lookup-during-ingest replays its last 20 days while the open-loop
//! reader keeps asking.
//!
//! The benchmark reaches the program only through the fleet-shaped entry
//! points: `ShardedEngine` (1 shard), `train_sharded_model`,
//! `LocationSnapshot::from_sharded`, `SnapshotCell::{publish, load}`,
//! `LocationSnapshot::query`, `snapshot::{write_fleet_checkpoint,
//! read_checkpoint, engine_to_bytes}`, `Server` and `HttpClient`.

use crate::check::{self, source_name, Answer, Published, Tally};
use crate::openloop::{OpenLoopSummary, Schedule, Timing};
use crate::stats;
use crate::trace::Tracer;
use crate::world::{concat, pipeline_config, Plan, World};
use dlinfma_core::{snapshot, DlInfMaConfig, RestoredEngine, ShardedEngine};
use dlinfma_obs::{FleetIngestReport, IngestReport};
use dlinfma_serve::{train_sharded_model, HttpClient, ServeConfig, Server};
use dlinfma_store::{LocationSnapshot, SnapshotCell};
use dlinfma_synth::{AddressId, TripBatch};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A named set of inputs and phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 40 days one at a time at 2 workers, nothing reading.
    IngestHistory,
    /// Batched set-up, then the socket does all the work.
    LookupSteady,
    /// 20 days replayed at 1 worker beside an open-loop reader.
    LookupDuringIngest,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::IngestHistory,
        Workload::LookupSteady,
        Workload::LookupDuringIngest,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestHistory => "ingest-history",
            Workload::LookupSteady => "lookup-steady",
            Workload::LookupDuringIngest => "lookup-during-ingest",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many times the ingest phases run from an empty fleet.
    fn repeats(self, plan: &Plan) -> usize {
        match self {
            Workload::IngestHistory => plan.history_repeats,
            Workload::LookupSteady => plan.steady_repeats,
            Workload::LookupDuringIngest => 1,
        }
    }

    /// Engine workers, pinned per workload.
    fn workers(self) -> usize {
        match self {
            Workload::LookupDuringIngest => 1,
            _ => 2,
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// World seed.
    pub seed: u64,
    /// Length of the closed-loop lookup run, seconds.
    pub seconds: f64,
    /// Record spans (the per-layer run).
    pub trace: bool,
    /// World size and phase sizes.
    pub plan: Plan,
    /// Scratch directory for checkpoints and the span file.
    pub work_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// The final snapshot's answer for one address: `(x, y, tier)`.
pub type Served = Option<(f64, f64, &'static str)>;

/// Everything one run produced.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The end-to-end metrics (`--trace 0` output).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (`--trace 1` output).
    pub per_layer: Vec<Metric>,
    /// The final snapshot's answer per address, ascending by address id.
    pub served: Vec<(u32, Served)>,
    /// The recorded spans (empty unless tracing).
    pub tracer: Tracer,
}

/// Mutable accounting shared by the phases of one run.
struct Ctx {
    /// The clock every recorded time is taken against.
    origin: Instant,
    tracer: Tracer,
    tally: Tally,
    published: Published,
    next_op: u64,
    next_conn: u32,
    /// Every HTTP answer, in arrival order per connection.
    answers: Vec<Answer>,
    /// Body sizes of the fresh-connection responses.
    body_bytes: Vec<usize>,
}

impl Ctx {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn conn(&mut self) -> u32 {
        self.next_conn += 1;
        self.next_conn
    }
}

/// Per-batch figures of an ingest-and-publish replay.
#[derive(Debug, Default)]
struct Replay {
    secs: f64,
    lags_ms: Vec<f64>,
    train_s: f64,
    train_samples: usize,
    reports: Vec<IngestReport>,
    pool_busy_ns: u64,
    pool_idle_ns: u64,
    pool_steals: u64,
    /// `(addresses inferred, dirty addresses)` of each publish with a model.
    reinfer: Vec<(usize, u64)>,
    /// `[start, end)` of each batch's ingest-to-load cycle, ns on the run's
    /// clock.
    windows: Vec<(u64, u64)>,
}

/// Figures of the checkpoint-and-restart phase.
#[derive(Debug, Default)]
struct Restarts {
    secs: Vec<f64>,
    bytes: u64,
    /// The open-loop reader's figures over the restarts, when one ran.
    open: Option<OpenLoopSummary>,
}

/// The open-loop reader: where it sends `/lookup`, for which addresses
/// and how often.
struct Reader<'a> {
    addr: SocketAddr,
    targets: &'a [Target],
    seed: u64,
    rate: f64,
}

/// Figures of a closed-loop lookup run.
#[derive(Debug, Default)]
struct Closed {
    /// `(send time on the run's clock, latency in µs)` per request.
    samples: Vec<(u64, f64)>,
    windows: Vec<(u64, u64)>,
}

impl Closed {
    fn p(&self, p: f64) -> f64 {
        stats::windowed_percentile(&self.samples, &self.windows, p)
    }

    /// Requests per second: the median over windows.
    fn qps(&self) -> f64 {
        let rates: Vec<f64> = stats::by_window(&self.samples, &self.windows)
            .iter()
            .zip(&self.windows)
            .map(|(w, &(start, end))| {
                w.len() as f64 * 1e9 / end.saturating_sub(start).max(1) as f64
            })
            .collect();
        stats::median(&rates)
    }
}

/// One address readers may ask for, with its request target.
struct Target {
    addr: u32,
    path: String,
}

/// Cheap deterministic address picks (SplitMix64), seeded per run.
struct Picks(u64);

impl Picks {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((u128::from(z) * n as u128) >> 64) as usize
    }
}

/// Runs one workload and measures it.
///
/// # Errors
/// Only when nothing can be measured (the server cannot bind, peak RSS is
/// unreadable); failed checks are counted in the report instead.
pub fn run(opts: &Options) -> Result<Report, String> {
    let plan = opts.plan;
    let cfg = pipeline_config(opts.workload.workers());
    let mut ctx = Ctx {
        origin: Instant::now(),
        tracer: Tracer::new(opts.trace),
        tally: Tally::default(),
        published: Published::new(),
        next_op: 0,
        next_conn: 0,
        answers: Vec::new(),
        body_bytes: Vec::new(),
    };

    // World generation and day slicing, repeated, median taken.
    let setup = ctx.tracer.begin("setup", 0);
    let mut world_secs = Vec::new();
    let mut world = None;
    for _ in 0..plan.setup_repeats.max(1) {
        let t = Instant::now();
        let w = World::generate(plan.scale, plan.world_seed);
        world_secs.push(t.elapsed().as_secs_f64());
        world = Some(w);
    }
    ctx.tracer.end(setup);
    let world = world.ok_or("no world generated")?;
    let world_s = stats::median(&world_secs);
    let n_days = world.days.len();
    if n_days < plan.during_from + 1 || plan.train_day + 1 >= plan.during_from {
        return Err(format!(
            "world has {n_days} days; the plan needs more than {}",
            plan.during_from
        ));
    }
    let addrs: Vec<AddressId> = world.dataset.addresses.iter().map(|a| a.id).collect();
    let targets: Vec<Target> = addrs
        .iter()
        .map(|a| Target {
            addr: a.0,
            path: format!("/lookup?address={}", a.0),
        })
        .collect();
    let cell = Arc::new(SnapshotCell::new());

    // The server runs only while something reads: its accept loop polls,
    // and ingest-history's replay must have the machine to itself.
    let start_server = || {
        Server::start(ServeConfig::default(), Arc::clone(&cell))
            .map_err(|e| format!("cannot start the server: {e}"))
    };
    let mut server = match opts.workload {
        Workload::LookupDuringIngest => Some(start_server()?),
        _ => None,
    };
    let mut picks = Picks(opts.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let reader = |server: &Option<Server>| {
        server.as_ref().map(|s| Reader {
            addr: s.addr(),
            targets: &targets,
            seed: picks.0 ^ 0xA11CE,
            rate: plan.open_rate,
        })
    };

    // Measured phase 1: ingest, from an empty fleet, repeated.
    let mut ingests: Vec<Ingested> = Vec::new();
    let mut fleet = None;
    for _ in 0..opts.workload.repeats(&plan) {
        // Only the last repetition's fleet is kept, so peak memory is one
        // fleet's.
        drop(fleet.take());
        let (f, run) = ingest(&mut ctx, &world, cfg, opts, &cell, reader(&server).as_ref())?;
        fleet = Some(f);
        ingests.push(run);
    }
    let fleet = fleet.ok_or("no ingest ran")?;
    let setup_s = stats::median(
        &ingests
            .iter()
            .map(|i| world_s + i.prefix_s)
            .collect::<Vec<_>>(),
    );
    let replays: Vec<&Replay> = ingests.iter().map(|i| &i.replay).collect();

    // Measured phase 2: checkpoint the final fleet and warm-restart it. In
    // lookup-steady the open-loop reader asks throughout, so reads run
    // beside the restarts' freezes and publishes.
    if opts.workload == Workload::LookupSteady {
        server = Some(start_server()?);
    }
    let restart_reader = match opts.workload {
        Workload::LookupSteady => reader(&server),
        _ => None,
    };
    let restarts = restart_phase(
        &mut ctx,
        &world,
        fleet,
        &cell,
        n_days as u32,
        cfg,
        opts,
        &addrs,
        restart_reader.as_ref(),
    )?;
    let open = restarts
        .open
        .or(ingests.last().and_then(|i| i.open))
        .unwrap_or(OpenLoopSummary::over(&[], &[]));

    // Measured phase 3: the socket, on the final table.
    let server = match server {
        Some(s) => s,
        None => start_server()?,
    };
    let addr = server.addr();
    let closed = closed_loop(
        &mut ctx,
        addr,
        &targets,
        &mut picks,
        opts.seconds,
        plan.windows,
    );
    let fresh = fresh_connections(&mut ctx, addr, &targets, &mut picks, plan.fresh_connections);
    let sent = ctx.answers.len() as u64;
    let non_ok = ctx.answers.iter().filter(|a| a.status >= 400).count() as u64;
    let st = server.stats();
    let conns = u64::from(ctx.next_conn);
    ctx.tally.check(
        st.requests == sent && st.errors == non_ok && st.connections == conns,
        || {
            format!(
                "server counted {} requests / {} errors / {} connections; \
                 the clients saw {sent} / {non_ok} / {conns}",
                st.requests, st.errors, st.connections
            )
        },
    );
    drop(server);
    check::check_answers(&ctx.answers, &ctx.published, &mut ctx.tally);

    // In-process store query cost: the floor under a socket lookup.
    let query_ns = query_cost(&cell, &addrs, plan.query_ops);

    // Served accuracy of the final table.
    let final_snap = cell.load();
    let mut served: Vec<(u32, Served)> = Vec::with_capacity(addrs.len());
    let mut errors: Vec<f64> = Vec::with_capacity(addrs.len());
    for a in &world.dataset.addresses {
        let answer = final_snap.query(a.id);
        if let Some((p, _)) = answer {
            errors.push(p.distance(&a.true_delivery_location));
        }
        served.push((a.id.0, answer.map(|(p, src)| (p.x, p.y, source_name(src)))));
    }
    ctx.tally.check(errors.len() == addrs.len(), || {
        format!(
            "final snapshot answers {} of {} addresses",
            errors.len(),
            addrs.len()
        )
    });
    let mae = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    let p95 = stats::percentile(&errors, 95.0);
    let beta50 =
        errors.iter().filter(|&&e| e < 50.0).count() as f64 * 100.0 / errors.len().max(1) as f64;

    let rss = peak_rss_mb().ok_or("peak RSS is unreadable (needs /proc/self/status)")?;

    // Which reader's latency is the workload's headline: the open-loop
    // reader under ingest, else the closed loop.
    let lookup_p50 = match opts.workload {
        Workload::LookupDuringIngest => open.latency_p50_us,
        _ => closed.p(50.0),
    };
    // Each batch's fastest ingest-to-load cycle over the repetitions.
    let lags = stats::fastest_each(
        &replays
            .iter()
            .map(|r| r.lags_ms.as_slice())
            .collect::<Vec<_>>(),
    );

    let m = |name, unit, value| Metric { name, unit, value };
    let end_to_end = vec![
        m("setup_s", "s", setup_s),
        m("replay_s", "s", lags.iter().sum::<f64>() / 1e3),
        m("publish_lag_p50_ms", "ms", stats::percentile(&lags, 50.0)),
        m("publish_lag_p75_ms", "ms", stats::percentile(&lags, 75.0)),
        m("served_mae_m", "m", mae),
        m("served_p95_m", "m", p95),
        m("served_beta50_pct", "%", beta50),
        m("lookup_p50_us", "us", lookup_p50),
        m("connect_p50_us", "us", stats::median(&fresh)),
        m("peak_rss_mb", "MB", rss),
    ];
    let unmeasured: Vec<String> = end_to_end
        .iter()
        .filter(|x| !(x.value.is_finite() && x.value > 0.0))
        .map(|x| format!("{} = {}", x.name, x.value))
        .collect();
    ctx.tally.check(unmeasured.is_empty(), || {
        format!("end-to-end metrics not measured: {}", unmeasured.join(", "))
    });

    let per_layer = per_layer_metrics(
        &ctx,
        &replays,
        &restarts,
        &open,
        &closed,
        query_ns,
        (st.requests, st.errors),
        &end_to_end,
    );
    Ok(Report {
        tally: ctx.tally,
        end_to_end,
        per_layer,
        served,
        tracer: ctx.tracer,
    })
}

/// One ingest repetition: its replay figures, the set-up time it spent
/// after world generation, and the open-loop reader's summary
/// (lookup-during-ingest only).
struct Ingested {
    replay: Replay,
    prefix_s: f64,
    open: Option<OpenLoopSummary>,
}

/// Builds an empty 1-shard fleet and runs the workload's ingest on it:
/// the batched prefix with training and first publish (lookup workloads,
/// counted as set-up), then the replay, beside `reader` in
/// lookup-during-ingest. Returns the fleet it left.
fn ingest(
    ctx: &mut Ctx,
    world: &World,
    cfg: DlInfMaConfig,
    opts: &Options,
    cell: &SnapshotCell,
    reader: Option<&Reader>,
) -> Result<(ShardedEngine, Ingested), String> {
    let plan = opts.plan;
    let n_days = world.days.len();
    let mut fleet = ShardedEngine::new(world.dataset.addresses.clone(), cfg, 1);

    // The lookup workloads' set-up: days 1-7 as one batch, training, then
    // one more batch and the first publish. In lookup-steady that batch
    // (days 8-40) is the workload's replay.
    let mut prefix = Replay::default();
    let mut prefix_s = 0.0;
    if opts.workload != Workload::IngestHistory {
        let setup = ctx.tracer.begin("setup", 0);
        let t = Instant::now();
        let first = concat(&world.days[..plan.train_day]);
        let op = ctx.op();
        ctx.tracer.scope("core.ingest", op, || fleet.ingest(&first));
        let tt = Instant::now();
        prefix.train_samples = ctx.tracer.scope("core.train", op, || {
            train_sharded_model(&mut fleet, &world.dataset)
        });
        prefix.train_s = tt.elapsed().as_secs_f64();
        let (end, span) = match opts.workload {
            Workload::LookupSteady => (n_days, "replay"),
            _ => (plan.during_from - 1, "prefix"),
        };
        let rest = concat(&world.days[plan.train_day..end]);
        let batches = [(&rest, end as u32)];
        ingest_and_publish(
            ctx,
            world,
            &mut fleet,
            cell,
            span,
            &batches,
            None,
            &mut prefix,
        );
        prefix_s = t.elapsed().as_secs_f64();
        ctx.tracer.end(setup);
    }

    let mut open = None;
    let mut replay = Replay {
        train_s: prefix.train_s,
        train_samples: prefix.train_samples,
        ..Replay::default()
    };
    match opts.workload {
        Workload::IngestHistory => {
            let batches: Vec<(&TripBatch, u32)> = world
                .days
                .iter()
                .enumerate()
                .map(|(i, d)| (d, i as u32 + 1))
                .collect();
            let train_at = Some(plan.train_day as u32);
            ingest_and_publish(
                ctx,
                world,
                &mut fleet,
                cell,
                "replay",
                &batches,
                train_at,
                &mut replay,
            );
        }
        Workload::LookupDuringIngest => {
            let batches: Vec<(&TripBatch, u32)> = world.days[plan.during_from - 1..]
                .iter()
                .enumerate()
                .map(|(i, d)| (d, (plan.during_from + i) as u32))
                .collect();
            let reader = reader.ok_or("lookup-during-ingest needs its reader")?;
            let ((), timings) = beside_reader(ctx, reader, |ctx| {
                ingest_and_publish(
                    ctx,
                    world,
                    &mut fleet,
                    cell,
                    "replay",
                    &batches,
                    None,
                    &mut replay,
                );
            })?;
            open = Some(OpenLoopSummary::over(&timings, &replay.windows));
        }
        Workload::LookupSteady => replay = prefix,
    }
    Ok((
        fleet,
        Ingested {
            replay,
            prefix_s,
            open,
        },
    ))
}

/// Ingests each `(batch, day count after it)` and publishes a snapshot
/// after it, training after the batch that ends at `train_at`, all inside
/// one span named `span`. Each batch is one operation: the snapshot a
/// reader loads must carry the new epoch and day count.
#[allow(clippy::too_many_arguments)]
fn ingest_and_publish(
    ctx: &mut Ctx,
    world: &World,
    fleet: &mut ShardedEngine,
    cell: &SnapshotCell,
    span: &'static str,
    batches: &[(&TripBatch, u32)],
    train_at: Option<u32>,
    out: &mut Replay,
) {
    let span = ctx.tracer.begin(span, 0);
    let start = Instant::now();
    let mut training = Duration::ZERO;
    for &(batch, day) in batches {
        let op = ctx.op();
        let t0 = Instant::now();
        let start_ns = ctx.now_ns();
        let day_span = ctx.tracer.begin("day", op);
        let rep: FleetIngestReport = ctx.tracer.scope("core.ingest", op, || fleet.ingest(batch));
        let mut train = Duration::ZERO;
        if train_at == Some(day) {
            let tt = Instant::now();
            let labelled = ctx.tracer.scope("core.train", op, || {
                train_sharded_model(fleet, &world.dataset)
            });
            train = tt.elapsed();
            out.train_s = train.as_secs_f64();
            out.train_samples = labelled;
        }
        let snap = ctx.tracer.scope("store.freeze", op, || {
            LocationSnapshot::from_sharded(fleet, day)
        });
        let epoch = ctx.tracer.scope("store.publish", op, || cell.publish(snap));
        let seen = ctx.tracer.scope("store.load", op, || loop {
            let s = cell.load();
            if s.epoch() >= epoch {
                break s;
            }
        });
        let lag = t0.elapsed().saturating_sub(train);
        out.windows.push((start_ns, ctx.now_ns()));
        ctx.tracer.end(day_span);
        training += train;
        out.lags_ms.push(lag.as_secs_f64() * 1e3);

        let agg = rep.aggregate();
        for (_, shard) in &rep.shards {
            if let Some(pool) = &shard.pool {
                for w in &pool.workers {
                    out.pool_busy_ns += w.busy_ns;
                    out.pool_idle_ns += w.idle_ns;
                    out.pool_steals += w.steals;
                }
            }
        }
        if fleet.model().is_some() {
            out.reinfer.push((seen.len(), agg.dirty_addresses));
        }
        let ok = seen.epoch() == epoch
            && seen.days_ingested() == day
            && seen.n_addresses() == world.dataset.addresses.len();
        ctx.tally.check(ok, || {
            format!(
                "day {day}: published epoch {epoch}, a reader loaded epoch {} with {} days and {} addresses",
                seen.epoch(),
                seen.days_ingested(),
                seen.n_addresses()
            )
        });
        out.reports.push(agg);
        ctx.published.insert(seen.epoch(), seen);
    }
    out.secs = start.elapsed().saturating_sub(training).as_secs_f64();
    ctx.tracer.end(span);
}

/// Writes a fleet checkpoint of the final state and warm-restarts from it
/// `plan.restarts` times. A restart is timed from `read_checkpoint` until
/// a reader loads the restored fleet's first snapshot; it passes when the
/// restored shards re-encode byte-identical and the restored snapshot
/// answers every address as the pre-restart one did. The live fleet is
/// dropped before the first restart, as a restarting process would not
/// hold it. With a `reader`, the open-loop reader asks throughout the
/// restarts and its figures are summarized over them.
#[allow(clippy::too_many_arguments)]
fn restart_phase(
    ctx: &mut Ctx,
    world: &World,
    fleet: ShardedEngine,
    cell: &SnapshotCell,
    day: u32,
    cfg: DlInfMaConfig,
    opts: &Options,
    addrs: &[AddressId],
    reader: Option<&Reader>,
) -> Result<Restarts, String> {
    // Unique per run, so concurrent runs (tests) never share a checkpoint.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let mut out = Restarts::default();
    let dir = opts.work_dir.join(format!(
        "ckpt-{}-{}-{}",
        opts.workload.name(),
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let op = ctx.op();
    let written = ctx.tracer.scope("snapshot.write", op, || {
        snapshot::write_fleet_checkpoint(&dir, day, &fleet)
    });
    let day_dir = match written {
        Ok(d) => d,
        Err(e) => {
            ctx.tally.check(false, || format!("checkpoint write: {e}"));
            return Ok(out);
        }
    };
    out.bytes = dir_bytes(&day_dir);
    ctx.tally
        .check(out.bytes > 0, || "checkpoint is empty".to_string());
    let reference: Vec<Vec<u8>> = (0..fleet.n_shards())
        .map(|s| snapshot::engine_to_bytes(fleet.shard(s)))
        .collect();
    drop(fleet);
    let before = cell.load();

    // `(seconds, [start, end) on the run's clock)` of each restart.
    let restarts = |ctx: &mut Ctx| {
        let mut done = Vec::new();
        for _ in 0..opts.plan.restarts {
            if let Some(r) = restart(ctx, world, cell, &dir, day, cfg, &reference, &before, addrs) {
                done.push(r);
            }
        }
        done
    };
    let done = match reader {
        Some(reader) => {
            let (done, timings) = beside_reader(ctx, reader, restarts)?;
            let windows: Vec<(u64, u64)> = done.iter().map(|&(_, w)| w).collect();
            out.open = Some(OpenLoopSummary::over(&timings, &windows));
            done
        }
        None => restarts(ctx),
    };
    out.secs = done.iter().map(|&(s, _)| s).collect();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// One warm restart from the checkpoint in `dir`, checked against the
/// pre-restart fleet's shard bytes and snapshot. Returns its time and its
/// `[start, end)` on the run's clock, or `None` when the checkpoint could
/// not be read (a failed operation).
#[allow(clippy::too_many_arguments)]
fn restart(
    ctx: &mut Ctx,
    world: &World,
    cell: &SnapshotCell,
    dir: &Path,
    day: u32,
    cfg: DlInfMaConfig,
    reference: &[Vec<u8>],
    before: &LocationSnapshot,
    addrs: &[AddressId],
) -> Option<(f64, (u64, u64))> {
    let op = ctx.op();
    let t0 = Instant::now();
    let start_ns = ctx.now_ns();
    let span = ctx.tracer.begin("restart", op);
    let read = ctx.tracer.scope("snapshot.read", op, || {
        snapshot::read_checkpoint(dir, day, &world.dataset.addresses, cfg)
    });
    let (days, restored) = match read.map(|cp| (cp.days_ingested, cp.engine)) {
        Ok((days, RestoredEngine::Fleet(f))) => (days, f),
        Ok((_, RestoredEngine::Single(_))) => {
            ctx.tracer.end(span);
            ctx.tally
                .check(false, || "checkpoint restored as a single engine".into());
            return None;
        }
        Err(e) => {
            ctx.tracer.end(span);
            ctx.tally.check(false, || format!("checkpoint read: {e}"));
            return None;
        }
    };
    let snap = ctx.tracer.scope("store.freeze", op, || {
        LocationSnapshot::from_sharded(&restored, days)
    });
    let epoch = ctx.tracer.scope("store.publish", op, || cell.publish(snap));
    let seen = ctx.tracer.scope("store.load", op, || loop {
        let s = cell.load();
        if s.epoch() >= epoch {
            break s;
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let window = (start_ns, ctx.now_ns());
    ctx.tracer.end(span);

    let mut problems = Vec::new();
    let reencoded: Vec<Vec<u8>> = (0..restored.n_shards())
        .map(|s| snapshot::engine_to_bytes(restored.shard(s)))
        .collect();
    if reencoded != reference {
        problems.push("restored fleet does not re-encode byte-identical".to_string());
    }
    if seen.epoch() != epoch {
        problems.push(format!("published epoch {epoch}, loaded {}", seen.epoch()));
    }
    problems.extend(check::snapshot_diffs(&seen, before, addrs));
    ctx.tally.op(&problems);
    ctx.published.insert(seen.epoch(), seen);
    Some((secs, window))
}

/// Runs `body` on this thread while the open-loop reader sends `/lookup`
/// on its own connection and thread, and stops the reader when `body`
/// returns. The reader's answers join the run's for checking and its
/// spans join the run's tracer; its timings are returned.
fn beside_reader<R>(
    ctx: &mut Ctx,
    reader: &Reader,
    body: impl FnOnce(&mut Ctx) -> R,
) -> Result<(R, Vec<Timing>), String> {
    let stop = AtomicBool::new(false);
    let conn = ctx.conn();
    let tracer = ctx.tracer.for_thread(1);
    let origin = ctx.origin;
    let (out, joined) = std::thread::scope(|s| {
        let handle = s.spawn(|| open_loop(reader, &stop, conn, (origin, tracer)));
        let out = body(ctx);
        stop.store(true, Ordering::SeqCst);
        (out, handle.join())
    });
    let (timings, answers, tracer) =
        joined.map_err(|_| "the open-loop reader panicked".to_string())?;
    ctx.tracer.absorb(tracer);
    ctx.answers.extend(answers);
    Ok((out, timings))
}

/// Total size of the files in a checkpoint directory.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One keep-alive connection sending `/lookup` for uniformly drawn
/// addresses back to back for `seconds`. Latency is timed from the send.
fn closed_loop(
    ctx: &mut Ctx,
    addr: SocketAddr,
    targets: &[Target],
    picks: &mut Picks,
    seconds: f64,
    windows: usize,
) -> Closed {
    let mut out = Closed::default();
    let conn = ctx.conn();
    let op = ctx.op();
    let mut client = match ctx
        .tracer
        .scope("serve.connect", op, || HttpClient::connect(addr))
    {
        Ok(c) => c,
        Err(e) => {
            ctx.tally
                .check(false, || format!("closed-loop connect: {e}"));
            return out;
        }
    };
    let start = Instant::now();
    let start_ns = ctx.now_ns();
    let span = ctx.tracer.begin("lookups", op);
    while start.elapsed().as_secs_f64() < seconds {
        let target = &targets[picks.below(targets.len())];
        let op = ctx.op();
        let sent_ns = ctx.now_ns();
        let t0 = Instant::now();
        let got = ctx
            .tracer
            .scope("serve.get", op, || client.get(&target.path));
        let dt = t0.elapsed();
        match got {
            Ok((status, body)) => {
                out.samples.push((sent_ns, dt.as_secs_f64() * 1e6));
                ctx.answers
                    .push(Answer::from_body(conn, target.addr, status, &body));
            }
            Err(e) => {
                ctx.tally
                    .check(false, || format!("closed-loop request: {e}"));
                break;
            }
        }
    }
    ctx.tracer.end(span);
    out.windows = stats::split_windows(start_ns, ctx.now_ns(), windows);
    out
}

/// `n` fresh connections, each sending one `/lookup`. Returns, per
/// connection, microseconds from opening the connection to the response.
fn fresh_connections(
    ctx: &mut Ctx,
    addr: SocketAddr,
    targets: &[Target],
    picks: &mut Picks,
    n: usize,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let target = &targets[picks.below(targets.len())];
        let conn = ctx.conn();
        let op = ctx.op();
        let t0 = Instant::now();
        let span = ctx.tracer.begin("connection", op);
        let mut client = ctx
            .tracer
            .scope("serve.connect", op, || HttpClient::connect(addr));
        let got = match &mut client {
            Ok(c) => ctx.tracer.scope("serve.get", op, || c.get(&target.path)),
            Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
        };
        let dt = t0.elapsed();
        ctx.tracer.end(span);
        drop(client);
        match got {
            Ok((status, body)) => {
                out.push(dt.as_secs_f64() * 1e6);
                ctx.body_bytes.push(body.render().len());
                ctx.answers
                    .push(Answer::from_body(conn, target.addr, status, &body));
            }
            Err(e) => ctx.tally.check(false, || format!("fresh connection: {e}")),
        }
    }
    out
}

/// The open-loop reader: one connection, `/lookup` due at the reader's
/// fixed rate until `stop`. Runs on its own thread with its own tracer;
/// its times are ns on the run's clock `origin`.
fn open_loop(
    reader: &Reader,
    stop: &AtomicBool,
    conn: u32,
    (origin, mut tracer): (Instant, Tracer),
) -> (Vec<Timing>, Vec<Answer>, Tracer) {
    let targets = reader.targets;
    let mut picks = Picks(reader.seed);
    let mut timings = Vec::new();
    let mut answers = Vec::new();
    let Ok(mut client) = HttpClient::connect(reader.addr) else {
        answers.push(Answer {
            conn,
            addr: 0,
            status: 0,
            epoch: None,
            point: None,
        });
        return (timings, answers, tracer);
    };
    let schedule = Schedule::per_second(reader.rate);
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let start_ns = now_ns();
    let mut i = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let due_ns = start_ns + schedule.due_ns(i);
        let now = now_ns();
        if now < due_ns {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
        let target = &targets[picks.below(targets.len())];
        let sent_ns = now_ns();
        let got = tracer.scope("serve.get", (1 << 40) | i, || client.get(&target.path));
        let done_ns = now_ns();
        i += 1;
        match got {
            Ok((status, body)) => {
                timings.push(Timing {
                    due_ns,
                    sent_ns,
                    done_ns,
                });
                answers.push(Answer::from_body(conn, target.addr, status, &body));
            }
            Err(_) => {
                answers.push(Answer {
                    conn,
                    addr: target.addr,
                    status: 0,
                    epoch: None,
                    point: None,
                });
                break;
            }
        }
    }
    (timings, answers, tracer)
}

/// Nanoseconds per in-process `load` + `query`, median of five samples.
fn query_cost(cell: &SnapshotCell, addrs: &[AddressId], ops: usize) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for i in 0..ops {
            let snap = cell.load();
            black_box(snap.query(black_box(addrs[i % addrs.len()])));
        }
        samples.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    stats::median(&samples)
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[allow(clippy::too_many_arguments)]
fn per_layer_metrics(
    ctx: &Ctx,
    replays: &[&Replay],
    restarts: &Restarts,
    open: &OpenLoopSummary,
    closed: &Closed,
    query_ns: f64,
    (requests, errors): (u64, u64),
    end_to_end: &[Metric],
) -> Vec<Metric> {
    let e2e = |name: &str| {
        end_to_end
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let tr = &ctx.tracer;
    // Times are per replay (mean over the repetitions); counts and ratios
    // come from the last repetition, and repeat exactly across them.
    let n = replays.len().max(1) as f64;
    let Some(&last) = replays.last() else {
        return Vec::new();
    };
    let secs = |v: Vec<u64>| v.iter().sum::<u64>() as f64 / 1e9 / n;
    let p50_ms =
        |v: Vec<u64>| stats::median(&v.iter().map(|&x| x as f64 / 1e6).collect::<Vec<_>>());
    let reports = || replays.iter().flat_map(|r| r.reports.iter());
    let sum_s = |f: fn(&IngestReport) -> u64| reports().map(f).sum::<u64>() as f64 / 1e9 / n;
    let reps = &last.reports;
    let per_day =
        |f: fn(&IngestReport) -> u64| reps.iter().map(|r| f(r) as f64).collect::<Vec<_>>();
    let ingest_s = secs(tr.self_ns_of("core.ingest", Some("replay")));
    let freeze_s = secs(tr.self_ns_of("store.freeze", Some("replay")));
    let publish_s = secs(tr.self_ns_of("store.publish", Some("replay")));
    let replay_wall_s = replays.iter().map(|r| r.secs).sum::<f64>() / n;
    let dirty: u64 = reps.iter().map(|r| r.dirty_addresses).sum();
    let universe: u64 = reps.iter().map(|r| r.total_addresses).sum();
    let (inferred, dirty_trained) = last
        .reinfer
        .iter()
        .fold((0u64, 0u64), |(i, d), &(a, b)| (i + a as u64, d + b));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let bytes = &ctx.body_bytes;
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("core.ingest_s", "s", ingest_s),
        m("core.extract_s", "s", sum_s(|r| r.extraction_ns)),
        m("core.cluster_s", "s", sum_s(|r| r.clustering_ns)),
        m("core.retrieve_s", "s", sum_s(|r| r.retrieval_ns)),
        m("core.features_s", "s", sum_s(|r| r.features_ns)),
        m("core.materialize_s", "s", sum_s(|r| r.materialize_ns)),
        m(
            "core.cluster_late_ratio",
            "ratio",
            stats::late_ratio(&per_day(|r| r.clustering_ns)),
        ),
        m(
            "core.new_stays_late_ratio",
            "ratio",
            stats::late_ratio(&per_day(|r| r.new_stays)),
        ),
        m(
            "core.new_stays",
            "count",
            reps.iter().map(|r| r.new_stays).sum::<u64>() as f64,
        ),
        m(
            "core.dirty_fraction",
            "ratio",
            ratio(dirty as f64, universe as f64),
        ),
        m(
            "core.pool_size",
            "count",
            reps.last().map_or(0.0, |r| r.pool_size as f64),
        ),
        m("core.train_samples", "count", last.train_samples as f64),
        m(
            "core.train_s",
            "s",
            stats::fastest(&replays.iter().map(|r| r.train_s).collect::<Vec<_>>()),
        ),
        m(
            "pool.busy_share",
            "ratio",
            ratio(
                last.pool_busy_ns as f64,
                (last.pool_busy_ns + last.pool_idle_ns) as f64,
            ),
        ),
        m("pool.steals", "count", last.pool_steals as f64),
        m("store.freeze_s", "s", freeze_s),
        m(
            "store.freeze_p50_ms",
            "ms",
            p50_ms(tr.self_ns_of("store.freeze", Some("replay"))),
        ),
        m(
            "store.reinfer_ratio",
            "ratio",
            ratio(inferred as f64, dirty_trained as f64),
        ),
        m(
            "store.publish_us",
            "us",
            p50_ms(tr.self_ns_of("store.publish", None)) * 1e3,
        ),
        m("store.query_ns", "ns", query_ns),
        m("snapshot.bytes", "bytes", restarts.bytes as f64),
        m(
            "snapshot.write_ms",
            "ms",
            p50_ms(tr.self_ns_of("snapshot.write", None)),
        ),
        m(
            "snapshot.read_ms",
            "ms",
            p50_ms(tr.self_ns_of("snapshot.read", None)),
        ),
        m(
            "store.restart_freeze_ms",
            "ms",
            p50_ms(tr.self_ns_of("store.freeze", Some("restart"))),
        ),
        m("snapshot.restart_s", "s", stats::fastest(&restarts.secs)),
        m(
            "serve.tcp_connect_us",
            "us",
            p50_ms(tr.self_ns_of("serve.connect", Some("connection"))) * 1e3,
        ),
        m("serve.http_us", "us", closed.p(50.0) - query_ns / 1e3),
        m("serve.lookup_p90_us", "us", closed.p(90.0)),
        m("serve.lookup_p99_us", "us", closed.p(99.0)),
        m("serve.lookup_qps", "1/s", closed.qps()),
        m(
            "serve.response_bytes",
            "bytes",
            bytes.iter().sum::<usize>() as f64 / bytes.len().max(1) as f64,
        ),
        m("serve.requests", "count", requests as f64),
        m("serve.errors", "count", errors as f64),
        m("load.latency_p50_us", "us", open.latency_p50_us),
        m("load.latency_p90_us", "us", open.latency_p90_us),
        m("load.late_p50_us", "us", open.late_p50_us),
        m("load.late_p99_us", "us", open.late_p99_us),
        m("trace.spans", "count", tr.spans().len() as f64),
        m(
            "trace.replay_coverage",
            "ratio",
            ratio(ingest_s + freeze_s + publish_s, replay_wall_s),
        ),
        m("trace.replay_s", "s", e2e("replay_s")),
        m("trace.lookup_p50_us", "us", e2e("lookup_p50_us")),
    ]
}
