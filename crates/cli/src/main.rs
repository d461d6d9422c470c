//! `dlinfma` — command-line interface to the reproduction.
//!
//! ```text
//! dlinfma generate --preset dowbj --scale small --seed 1 --out world.json
//! dlinfma stats    --preset subbj --scale small --seed 1
//! dlinfma eval     --preset dowbj --scale tiny  --seed 1 [--all]
//! dlinfma infer    --preset dowbj --scale tiny  --seed 1 --address 12
//! dlinfma replay   --preset dowbj --scale tiny  --seed 1
//! dlinfma replay   --preset dowbj --scale tiny  --seed 1 --shards 4
//! dlinfma health   --preset dowbj --scale tiny  --seed 1
//! dlinfma geojson  --preset dowbj --scale tiny  --seed 1 --out map.geojson
//! dlinfma serve    --preset dowbj --scale tiny  --seed 1 --port 8080
//! ```
//!
//! Every command accepts `--trace-out FILE` to record a Chrome trace-event
//! JSON profile of the run (open it at <https://ui.perfetto.dev>).

use dlinfma_core::{snapshot, DlInfMa, DlInfMaConfig, ShardedEngine, TripBatch};
use dlinfma_eval::{
    dataset_stats, evaluate, multi_location_building_fraction, pipeline_config,
    render_metrics_table, ExperimentWorld, Method,
};
use dlinfma_obs as obs;
use dlinfma_synth::{generate, AddressId, Preset, Scale};
use std::path::Path;
use std::process::ExitCode;

/// Minimal `--flag value` argument map (no external parser dependency).
#[derive(Debug)]
struct Args {
    command: String,
    flags: Vec<(String, String)>,
    all: bool,
    verbose: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        Self::parse_from(std::env::args().skip(1).collect())
    }

    /// Parses `argv` (without the program name). Errors name the offending
    /// flag or argument so a typo is diagnosable from the message alone.
    fn parse_from(argv: Vec<String>) -> Result<Args, String> {
        let mut argv = argv.into_iter();
        let command = argv.next().ok_or_else(|| usage().to_string())?;
        let mut flags = Vec::new();
        let mut all = false;
        let mut verbose = false;
        while let Some(a) = argv.next() {
            match a.as_str() {
                "--all" => all = true,
                "--verbose" => verbose = true,
                _ => {
                    let Some(name) = a.strip_prefix("--") else {
                        return Err(format!(
                            "unexpected argument '{a}' (flags start with --)\n{}",
                            usage()
                        ));
                    };
                    const KNOWN: &[&str] = &[
                        "preset",
                        "scale",
                        "seed",
                        "workers",
                        "shards",
                        "out",
                        "address",
                        "metrics-out",
                        "trace-out",
                        "port",
                        "day-delay-ms",
                        "train-days",
                        "serve-ms",
                        "self-check",
                        "snapshot-dir",
                        "checkpoint-every",
                        "from-day",
                    ];
                    if !KNOWN.contains(&name) {
                        return Err(format!("unknown flag '--{name}'\n{}", usage()));
                    }
                    let Some(value) = argv.next() else {
                        return Err(format!("flag '--{name}' is missing a value"));
                    };
                    flags.push((name.to_string(), value));
                }
            }
        }
        Ok(Args {
            command,
            flags,
            all,
            verbose,
        })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn preset(&self) -> Result<Preset, String> {
        match self.get("preset").unwrap_or("dowbj") {
            "dowbj" => Ok(Preset::DowBJ),
            "subbj" => Ok(Preset::SubBJ),
            other => Err(format!("unknown preset '{other}' (dowbj|subbj)")),
        }
    }

    fn scale(&self) -> Result<Scale, String> {
        match self.get("scale").unwrap_or("small") {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale '{other}' (tiny|small|full)")),
        }
    }

    fn seed(&self) -> Result<u64, String> {
        let v = self.get("seed").unwrap_or("1");
        v.parse().map_err(|e| format!("bad --seed '{v}': {e}"))
    }

    fn workers(&self) -> Result<Option<usize>, String> {
        match self.get("workers") {
            None => Ok(None),
            Some(v) => match v.parse::<usize>() {
                Ok(0) => Err("bad --workers '0': must be at least 1".to_string()),
                Ok(n) => Ok(Some(n)),
                Err(e) => Err(format!("bad --workers '{v}': {e}")),
            },
        }
    }

    /// Station shards for fleet mode (`replay`/`serve`); defaults to 1
    /// (one whole-fleet engine — bit-identical to any other shard count).
    fn shards(&self) -> Result<usize, String> {
        match self.get("shards") {
            None => Ok(1),
            Some(v) => match v.parse::<usize>() {
                Ok(0) => Err("bad --shards '0': must be at least 1".to_string()),
                Ok(n) => Ok(n),
                Err(e) => Err(format!("bad --shards '{v}': {e}")),
            },
        }
    }

    /// The pipeline configuration for this invocation: the preset's tuned
    /// configuration with the `--workers` override applied.
    fn pipeline_cfg(&self, preset: Preset) -> Result<DlInfMaConfig, String> {
        let mut cfg = pipeline_config(preset);
        if let Some(w) = self.workers()? {
            cfg.workers = w;
        }
        Ok(cfg)
    }

    /// A numeric flag with a default; errors name the flag and the value.
    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad --{name} '{v}': {e}")),
        }
    }

    /// `--checkpoint-every K`: checkpoint every K ingested days; `None`
    /// when the flag is absent (no periodic checkpoints).
    fn checkpoint_every(&self) -> Result<Option<u32>, String> {
        match self.get("checkpoint-every") {
            None => Ok(None),
            Some(v) => match v.parse::<u32>() {
                Ok(0) => Err("bad --checkpoint-every '0': must be at least 1".to_string()),
                Ok(n) => Ok(Some(n)),
                Err(e) => Err(format!("bad --checkpoint-every '{v}': {e}")),
            },
        }
    }

    /// Fail-fast validation of every output path: each named file must be
    /// creatable/writable *before* the run starts, so a typo'd directory
    /// errors in milliseconds instead of silently discarding minutes of
    /// replay when the file is finally opened at the end. `--snapshot-dir`
    /// gets the same treatment: the directory must be creatable up front,
    /// so checkpoints can't fail after a day of ingest.
    fn validate_output_flags(&self) -> Result<(), String> {
        for flag in ["out", "metrics-out", "trace-out"] {
            if let Some(path) = self.get(flag) {
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("cannot open --{flag} '{path}': {e}"))?;
            }
        }
        if let Some(dir) = self.get("snapshot-dir") {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create --snapshot-dir '{dir}': {e}"))?;
        }
        if self.checkpoint_every()?.is_some() && self.get("snapshot-dir").is_none() {
            return Err("--checkpoint-every needs --snapshot-dir DIR".to_string());
        }
        Ok(())
    }
}

fn usage() -> &'static str {
    "usage: dlinfma <command> [--preset dowbj|subbj] [--scale tiny|small|full] [--seed N]\n\
     \x20              [--workers N] [--verbose] [--metrics-out FILE]\n\
     commands:\n\
     \x20 generate  --out FILE     write the synthetic dataset as JSON\n\
     \x20 stats                    print Table I-style dataset statistics\n\
     \x20 eval      [--all]        train + evaluate methods on the test region\n\
     \x20 infer     --address N    train DLInfMA and infer one address\n\
     \x20 replay    [--shards N]   stream the dataset day by day through the fleet\n\
     \x20                          (one engine per station shard; 1 shard by default)\n\
     \x20           [--snapshot-dir D --checkpoint-every K]  durable checkpoint every K days\n\
     \x20 checkpoint --snapshot-dir D [--shards N]  replay fully, write one checkpoint,\n\
     \x20                          read it back and verify byte-identical re-encode\n\
     \x20 resume    --snapshot-dir D [--from-day N]  restore a checkpoint (latest by\n\
     \x20                          default) and ingest the remaining days\n\
     \x20 health                   replay the dataset and print ingest health monitors\n\
     \x20 geojson   --out FILE     train DLInfMA and export a GeoJSON map\n\
     \x20 serve     [--port N]     HTTP lookups from snapshots under live ingest;\n\
     \x20           [--shards N] [--day-delay-ms N] [--train-days N] [--serve-ms N] [--self-check N]\n\
     \x20           [--snapshot-dir D]  warm restart from the latest checkpoint\n\
     \x20           endpoints: /lookup?address=N /batch?addresses=N,M /healthz /stats /shutdown\n\
     observability:\n\
     \x20 --verbose           print stage timings, spans and metrics to stderr\n\
     \x20 --metrics-out FILE  write spans/metrics/report/health as JSON\n\
     \x20 --trace-out FILE    write a Chrome trace-event profile (Perfetto-loadable)"
}

/// Prints the collected observability data to stderr (`--verbose`), writes
/// the JSON export (`--metrics-out FILE`), and drains the trace rings to a
/// Chrome trace-event file (`--trace-out FILE`).
fn emit_observability(
    args: &Args,
    report: Option<&obs::PipelineReport>,
    health: Option<&obs::HealthReport>,
) -> Result<(), String> {
    if args.verbose {
        if let Some(r) = report {
            eprint!("{}", r.render_table());
        }
        let spans = obs::spans_snapshot();
        if !spans.is_empty() {
            eprint!("{}", obs::render_spans(&spans));
        }
        eprint!("{}", obs::render_metrics(&obs::metrics_snapshot()));
    }
    if let Some(path) = args.get("metrics-out") {
        let mut json = obs::export_json(report);
        if let (obs::JsonValue::Obj(fields), Some(h)) = (&mut json, health) {
            fields.push(("health".to_string(), h.to_json()));
        }
        std::fs::write(path, json.render_pretty()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote metrics to {path}");
    }
    if let Some(path) = args.get("trace-out") {
        let capture = obs::take_trace();
        std::fs::write(path, obs::chrome_trace_json(&capture).render())
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "wrote trace to {path} ({} events across {} threads{})",
            capture.events.len(),
            capture.threads.len(),
            if capture.dropped > 0 {
                format!(", {} dropped", capture.dropped)
            } else {
                String::new()
            }
        );
    }
    Ok(())
}

/// Ingests `batches` as days `start_day + 1..`, printing one line per day
/// and writing a fleet checkpoint every `k` days under `dir` when
/// `checkpoints` is `Some((dir, k))`; `on_batch` sees each batch before the
/// fleet does. Returns the day count reached and the summed ingest time.
fn ingest_days(
    fleet: &mut ShardedEngine,
    batches: impl Iterator<Item = TripBatch>,
    start_day: u32,
    checkpoints: Option<(&Path, u32)>,
    mut on_batch: impl FnMut(&TripBatch),
) -> Result<(u32, u64), String> {
    let (mut days, mut total_ns) = (start_day, 0u64);
    for batch in batches {
        on_batch(&batch);
        let rep = fleet.ingest(&batch);
        println!("{}", rep.render_line());
        days += 1;
        total_ns += rep.aggregate().total_ns();
        if let Some((dir, k)) = checkpoints {
            if days.is_multiple_of(k) {
                let path = snapshot::write_fleet_checkpoint(dir, days, fleet)
                    .map_err(|e| e.to_string())?;
                println!("checkpointed day {days} to {}", path.display());
            }
        }
    }
    Ok((days, total_ns))
}

/// `N stays, M candidates, K sampled addresses` — the totals `replay` and
/// `resume` print.
fn fleet_totals(fleet: &ShardedEngine) -> String {
    format!(
        "{} stays, {} candidates, {} sampled addresses",
        fleet.n_stays(),
        fleet.n_candidates(),
        fleet.merged_samples().len()
    )
}

/// What `--metrics-out` records for a fleet: a 1-shard fleet's pipeline
/// report and ingest health are its engine's own; a fleet of more shards
/// has one of each per shard and no merged report, so it records neither.
fn fleet_observability(
    fleet: &ShardedEngine,
) -> (Option<obs::PipelineReport>, Option<obs::HealthReport>) {
    match fleet.shards() {
        [engine] => (Some(engine.report().clone()), Some(engine.health_report())),
        _ => (None, None),
    }
}

/// Restores the day-`day` checkpoint under `dir` as a fleet (a legacy
/// single-engine checkpoint becomes a 1-shard fleet), rejecting an
/// explicit `--shards` that disagrees with it. Returns the fleet and the
/// days it had ingested.
fn restore_fleet(
    args: &Args,
    dir: &Path,
    day: u32,
    dataset: &dlinfma_synth::Dataset,
    cfg: DlInfMaConfig,
) -> Result<(ShardedEngine, u32), String> {
    let cp =
        snapshot::read_checkpoint(dir, day, &dataset.addresses, cfg).map_err(|e| e.to_string())?;
    let days = cp.days_ingested;
    let fleet = cp.into_fleet();
    let restored = fleet.n_shards();
    if args.get("shards").is_some() && args.shards()? != restored {
        return Err(format!(
            "--shards {} does not match the checkpoint ({restored} shard(s))",
            args.shards()?
        ));
    }
    Ok((fleet, days))
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    args.validate_output_flags()?;
    let preset = args.preset()?;
    let scale = args.scale()?;
    let seed = args.seed()?;
    if args.verbose || args.get("metrics-out").is_some() {
        obs::enable();
    }
    if args.get("trace-out").is_some() {
        obs::trace_enable();
    }
    let mut report: Option<obs::PipelineReport> = None;
    let mut health: Option<obs::HealthReport> = None;

    match args.command.as_str() {
        "generate" => {
            let out = args.get("out").ok_or("generate needs --out FILE")?;
            let (_, dataset) = generate(preset, scale, seed);
            let json = dataset.to_json().render();
            std::fs::write(out, json).map_err(|e| format!("write {out}: {e}"))?;
            println!(
                "wrote {} ({} addresses, {} trips, {} waybills)",
                out,
                dataset.addresses.len(),
                dataset.trips.len(),
                dataset.waybills.len()
            );
        }
        "stats" => {
            let (_, dataset) = generate(preset, scale, seed);
            let s = dataset_stats(&dataset);
            println!("dataset          {}", preset.name());
            println!("addresses        {}", s.n_addresses);
            println!("buildings        {}", s.n_buildings);
            println!("trips            {}", s.n_trips);
            println!("waybills         {}", s.n_waybills);
            println!("gps fixes        {}", s.n_gps_points);
            println!("sampling rate    {:.1} s", s.mean_sampling_s);
            println!(
                "multi-location buildings {:.1}%",
                multi_location_building_fraction(&dataset) * 100.0
            );
        }
        "eval" => {
            let world =
                ExperimentWorld::build_with_config(preset, scale, seed, args.pipeline_cfg(preset)?);
            report = Some(world.dlinfma.report().clone());
            let methods = if args.all {
                Method::all()
            } else {
                vec![
                    Method::Geocoding,
                    Method::Annotation,
                    Method::GeoCloud,
                    Method::MinDist,
                    Method::MaxTcIlc,
                    Method::DlInfMa,
                ]
            };
            let results: Vec<_> = methods.into_iter().map(|m| evaluate(&world, m)).collect();
            println!(
                "{}",
                render_metrics_table(
                    &format!("{} test region (seed {seed})", preset.name()),
                    &results
                )
            );
        }
        "infer" => {
            let address: u32 = args
                .get("address")
                .ok_or("infer needs --address N")?
                .parse()
                .map_err(|e| format!("bad --address: {e}"))?;
            let (city, dataset) = generate(preset, scale, seed);
            let split = dlinfma_synth::spatial_split(&dataset, 0.6, 0.2);
            let mut dlinfma = DlInfMa::prepare(&dataset, args.pipeline_cfg(preset)?);
            dlinfma.label_from_dataset(&dataset);
            dlinfma.train(&split.train, &split.val);
            report = Some(dlinfma.report().clone());
            let addr = AddressId(address);
            if (address as usize) >= dataset.addresses.len() {
                return Err(format!("address {address} out of range"));
            }
            let inferred = dlinfma.infer_or_geocode(&dataset, addr);
            let truth = city.addresses[address as usize].true_delivery_location;
            println!("address      {address}");
            println!(
                "geocode      ({:.1}, {:.1})",
                dataset.address(addr).geocode.x,
                dataset.address(addr).geocode.y
            );
            println!("inferred     ({:.1}, {:.1})", inferred.x, inferred.y);
            println!("ground truth ({:.1}, {:.1})", truth.x, truth.y);
            println!("error        {:.1} m", inferred.distance(&truth));
        }
        "replay" => {
            let checkpoints = match (args.get("snapshot-dir"), args.checkpoint_every()?) {
                (Some(dir), Some(k)) => Some((Path::new(dir), k)),
                _ => None,
            };
            let (_, dataset) = generate(preset, scale, seed);
            let store = dlinfma_ststore::TrajectoryStore::new();
            let mut fleet = ShardedEngine::new(
                dataset.addresses.clone(),
                args.pipeline_cfg(preset)?,
                args.shards()?,
            );
            let replayed = dlinfma_synth::replay(&dataset);
            let (days, total_ns) = ingest_days(&mut fleet, replayed, 0, checkpoints, |b| {
                store.ingest_batch(b)
            })?;
            println!(
                "replayed {days} days across {} shard(s): {} ({:.3} ms total ingest; store holds \
                 {} fixes, {} waybills)",
                fleet.n_shards(),
                fleet_totals(&fleet),
                total_ns as f64 / 1e6,
                store.n_fixes(),
                store.n_waybills()
            );
            (report, health) = fleet_observability(&fleet);
        }
        "checkpoint" => {
            // Cheap durable-format round trip: replay everything, write one
            // checkpoint, read it back and require the re-encode to be
            // byte-identical. This is CI's quick-loop format check.
            let dir = args
                .get("snapshot-dir")
                .ok_or("checkpoint needs --snapshot-dir DIR")?;
            let dir_path = Path::new(dir);
            let (_, dataset) = generate(preset, scale, seed);
            let cfg = args.pipeline_cfg(preset)?;
            let mut fleet = ShardedEngine::new(dataset.addresses.clone(), cfg, args.shards()?);
            for batch in dlinfma_synth::replay(&dataset) {
                fleet.ingest(&batch);
            }
            let days = fleet.days_ingested();
            let path = snapshot::write_fleet_checkpoint(dir_path, days, &fleet)
                .map_err(|e| e.to_string())?;
            let (restored, _) = restore_fleet(&args, dir_path, days, &dataset, cfg)?;
            let shard_bytes = |f: &ShardedEngine| -> Vec<Vec<u8>> {
                f.shards().iter().map(snapshot::engine_to_bytes).collect()
            };
            let originals = shard_bytes(&fleet);
            if originals != shard_bytes(&restored) {
                return Err(format!(
                    "checkpoint round trip is not byte-identical at {}",
                    path.display()
                ));
            }
            let total: usize = originals.iter().map(Vec::len).sum();
            println!(
                "checkpoint verified: day {days}, {} shard(s), {total} snapshot bytes at {}",
                fleet.n_shards(),
                path.display()
            );
        }
        "resume" => {
            let dir = args
                .get("snapshot-dir")
                .ok_or("resume needs --snapshot-dir DIR")?;
            let dir_path = Path::new(dir);
            let every = args.checkpoint_every()?;
            let (_, dataset) = generate(preset, scale, seed);
            let cfg = args.pipeline_cfg(preset)?;
            let day = match args.get("from-day") {
                Some(v) => v
                    .parse::<u32>()
                    .map_err(|e| format!("bad --from-day '{v}': {e}"))?,
                None => snapshot::latest_checkpoint(dir_path)
                    .map_err(|e| e.to_string())?
                    .ok_or_else(|| format!("no checkpoint under '{dir}'"))?,
            };
            let (mut fleet, start_day) = restore_fleet(&args, dir_path, day, &dataset, cfg)?;
            println!(
                "resumed from day-{day} checkpoint under {dir} ({} shard(s))",
                fleet.n_shards()
            );
            let remaining = dlinfma_synth::replay(&dataset).skip(start_day as usize);
            let checkpoints = every.map(|k| (dir_path, k));
            let (days, _) = ingest_days(&mut fleet, remaining, start_day, checkpoints, |_| {})?;
            println!(
                "resumed at day {day}, {days} days total: {}",
                fleet_totals(&fleet)
            );
            (report, health) = fleet_observability(&fleet);
        }
        "health" => {
            // A fleet's day totals do not depend on its shard count
            // (timings aside), so health runs one shard, whatever --shards
            // says, and reports that engine's own monitor.
            let (_, dataset) = generate(preset, scale, seed);
            let mut fleet =
                ShardedEngine::new(dataset.addresses.clone(), args.pipeline_cfg(preset)?, 1);
            for batch in dlinfma_synth::replay(&dataset) {
                fleet.ingest(&batch);
            }
            (report, health) = fleet_observability(&fleet);
            if let Some(h) = &health {
                print!("{}", h.render());
            }
        }
        "geojson" => {
            let out = args.get("out").ok_or("geojson needs --out FILE")?;
            let (city, dataset) = generate(preset, scale, seed);
            let split = dlinfma_synth::spatial_split(&dataset, 0.6, 0.2);
            let mut dlinfma = DlInfMa::prepare(&dataset, args.pipeline_cfg(preset)?);
            dlinfma.label_from_dataset(&dataset);
            dlinfma.train(&split.train, &split.val);
            report = Some(dlinfma.report().clone());
            let json = geojson::export(&city, &dataset, &dlinfma);
            std::fs::write(out, json).map_err(|e| format!("write {out}: {e}"))?;
            println!("wrote {out}");
        }
        "serve" => {
            let port: u16 = args.num("port", 0)?;
            let day_delay_ms: u64 = args.num("day-delay-ms", 200)?;
            let train_days: u32 = args.num("train-days", 2)?;
            let serve_ms: u64 = args.num("serve-ms", 0)?;
            let self_check: u64 = args.num("self-check", 0)?;
            let shards = args.shards()?;
            let (_, dataset) = generate(preset, scale, seed);
            let pipeline_cfg = args.pipeline_cfg(preset)?;

            // Warm restart: restore the latest checkpoint when one exists
            // under --snapshot-dir. The restored shard count wins; an
            // explicit conflicting --shards errors.
            let dir = args.get("snapshot-dir");
            let latest = match dir {
                Some(d) => snapshot::latest_checkpoint(Path::new(d)).map_err(|e| e.to_string())?,
                None => None,
            };
            let (mut fleet, start_day) = match (dir, latest) {
                (Some(dir), Some(day)) => {
                    let restored =
                        restore_fleet(&args, Path::new(dir), day, &dataset, pipeline_cfg)?;
                    println!(
                        "warm restart: restored day-{day} checkpoint under {dir} ({} shard(s))",
                        restored.0.n_shards()
                    );
                    restored
                }
                _ => {
                    if let Some(dir) = dir {
                        println!("no checkpoint under {dir}; cold start");
                    }
                    let cold = ShardedEngine::new(dataset.addresses.clone(), pipeline_cfg, shards);
                    (cold, 0)
                }
            };
            let cell = std::sync::Arc::new(dlinfma_store::SnapshotCell::new());
            let cfg = dlinfma_serve::ServeConfig {
                addr: format!("127.0.0.1:{port}"),
            };
            let mut server = dlinfma_serve::Server::start(cfg, std::sync::Arc::clone(&cell))
                .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
            println!(
                "serving on http://{} ({} addresses, {} shard(s); \
                 model trains after day {train_days})",
                server.addr(),
                dataset.addresses.len(),
                fleet.n_shards()
            );

            // Background ingest: one epoch per replayed day. On a warm
            // restart only the days past the checkpoint replay, with
            // absolute day numbers, and the restored state publishes
            // immediately so lookups answer before the first new day
            // lands. The fleet moves into the service thread and comes
            // back at join, with the last published epoch.
            let batches: Vec<_> = dlinfma_synth::replay(&dataset)
                .skip(start_day as usize)
                .collect();
            let n_days = batches.len();
            let ingest = {
                let cell = std::sync::Arc::clone(&cell);
                let dataset = dataset.clone();
                dlinfma_pool::spawn_service("cli-ingest", move || {
                    let mut warm_epoch = 0u64;
                    if start_day > 0 {
                        if start_day >= train_days && fleet.model().is_none() {
                            let n = dlinfma_serve::train_sharded_model(&mut fleet, &dataset);
                            println!("warm restart: trained model on {n} labelled samples");
                        }
                        warm_epoch =
                            dlinfma_serve::publish_sharded_snapshot(&fleet, &cell, start_day);
                    }
                    let epoch = dlinfma_serve::replay_and_publish_sharded(
                        &mut fleet,
                        batches,
                        &cell,
                        day_delay_ms,
                        start_day,
                        |fleet, day| {
                            if day == train_days {
                                let n = dlinfma_serve::train_sharded_model(fleet, &dataset);
                                println!("day {day}: trained model on {n} labelled samples");
                            }
                        },
                    );
                    (fleet, if epoch == 0 { warm_epoch } else { epoch })
                })
            };

            // Optional in-process smoke: issue lookups against ourselves
            // while the ingest thread is live, proving reads don't block.
            if self_check > 0 {
                let mut client = dlinfma_serve::HttpClient::connect(server.addr())
                    .map_err(|e| format!("self-check connect: {e}"))?;
                let probe: Vec<String> = dataset
                    .waybills
                    .iter()
                    .take(8)
                    .map(|w| w.address.0.to_string())
                    .collect();
                let target = format!("/batch?addresses={}", probe.join(","));
                let mut last_epoch = 0.0f64;
                for i in 0..self_check {
                    let (status, body) = client
                        .get(&target)
                        .map_err(|e| format!("self-check request {i}: {e}"))?;
                    if status != 200 {
                        return Err(format!("self-check request {i}: HTTP {status}"));
                    }
                    let epoch = body["epoch"]
                        .as_f64()
                        .ok_or("self-check: response missing epoch")?;
                    if epoch < last_epoch {
                        return Err(format!(
                            "self-check: epoch went backwards ({last_epoch} -> {epoch})"
                        ));
                    }
                    last_epoch = epoch;
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                println!(
                    "self-check: {self_check} epoch-consistent responses (last epoch {last_epoch})"
                );
            }

            let (fleet, final_epoch) = ingest.join().map_err(|_| "ingest thread panicked")?;
            println!("ingest complete: {n_days} days, final epoch {final_epoch}");
            if serve_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(serve_ms));
            } else if self_check == 0 {
                println!("serving until GET /shutdown ...");
                server.wait();
            }
            server.shutdown();
            let stats = server.stats();
            println!(
                "served {} requests ({} errors) over {} connections",
                stats.requests, stats.errors, stats.connections
            );
            println!(
                "fleet: {} shard(s), per-shard epochs {:?}",
                fleet.n_shards(),
                fleet.shard_epochs()
            );
            (report, health) = fleet_observability(&fleet);
        }
        other => return Err(format!("unknown command '{other}'\n{}", usage())),
    }
    emit_observability(&args, report.as_ref(), health.as_ref())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse_from(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn parse_collects_flags_and_booleans() {
        let a = parse(&["eval", "--seed", "7", "--all", "--verbose"]).unwrap();
        assert_eq!(a.command, "eval");
        assert_eq!(a.seed().unwrap(), 7);
        assert!(a.all);
        assert!(a.verbose);
    }

    #[test]
    fn parse_names_the_flag_missing_a_value() {
        let err = parse(&["stats", "--seed"]).unwrap_err();
        assert!(err.contains("'--seed' is missing a value"), "{err}");
    }

    #[test]
    fn parse_rejects_positional_arguments_by_name() {
        let err = parse(&["stats", "seed", "5"]).unwrap_err();
        assert!(err.contains("unexpected argument 'seed'"), "{err}");
    }

    #[test]
    fn parse_rejects_unknown_flags_by_name() {
        let err = parse(&["stats", "--bogus", "5"]).unwrap_err();
        assert!(err.contains("unknown flag '--bogus'"), "{err}");
    }

    #[test]
    fn bad_flag_values_name_the_flag() {
        let a = parse(&["stats", "--seed", "ten"]).unwrap();
        assert!(a.seed().unwrap_err().contains("--seed 'ten'"));
        let a = parse(&["eval", "--workers", "0"]).unwrap();
        assert!(a.workers().unwrap_err().contains("--workers '0'"));
        let a = parse(&["eval", "--workers", "x"]).unwrap();
        assert!(a.workers().unwrap_err().contains("--workers 'x'"));
    }

    #[test]
    fn shards_flag_parses_defaults_and_rejects_zero() {
        let a = parse(&["replay"]).unwrap();
        assert_eq!(a.shards().unwrap(), 1);
        let a = parse(&["replay", "--shards", "4"]).unwrap();
        assert_eq!(a.shards().unwrap(), 4);
        let a = parse(&["serve", "--shards", "0"]).unwrap();
        assert!(a.shards().unwrap_err().contains("--shards '0'"));
        let a = parse(&["serve", "--shards", "x"]).unwrap();
        assert!(a.shards().unwrap_err().contains("--shards 'x'"));
    }

    #[test]
    fn trace_and_metrics_output_flags_parse() {
        let a = parse(&["replay", "--trace-out", "t.json", "--metrics-out", "m.json"]).unwrap();
        assert_eq!(a.get("trace-out"), Some("t.json"));
        assert_eq!(a.get("metrics-out"), Some("m.json"));
    }

    #[test]
    fn output_flags_fail_fast_and_name_the_flag() {
        // A typo'd directory must error at validation time — before any
        // work runs — and the message must say which flag is at fault.
        for flag in ["out", "metrics-out", "trace-out"] {
            let bad = format!("/nonexistent-dir-for-dlinfma-test/{flag}.json");
            let a = parse(&["replay", &format!("--{flag}"), &bad]).unwrap();
            let err = a.validate_output_flags().unwrap_err();
            assert!(err.contains(&format!("--{flag}")), "{err}");
            assert!(err.contains(&bad), "{err}");
        }
    }

    #[test]
    fn output_flag_validation_accepts_writable_paths() {
        let dir = std::env::temp_dir().join("dlinfma-cli-flagcheck");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ok.json");
        let path = path.to_str().unwrap();
        let a = parse(&["replay", "--trace-out", path]).unwrap();
        a.validate_output_flags().unwrap();
        assert!(std::path::Path::new(path).exists(), "file pre-created");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checkpoint_every_requires_a_snapshot_dir() {
        let a = parse(&["replay", "--checkpoint-every", "2"]).unwrap();
        let err = a.validate_output_flags().unwrap_err();
        assert!(
            err.contains("--checkpoint-every needs --snapshot-dir"),
            "{err}"
        );
    }

    #[test]
    fn checkpoint_every_rejects_zero_and_garbage_by_name() {
        let a = parse(&["replay", "--checkpoint-every", "0"]).unwrap();
        assert!(a
            .checkpoint_every()
            .unwrap_err()
            .contains("--checkpoint-every '0'"));
        let a = parse(&["resume", "--checkpoint-every", "x"]).unwrap();
        assert!(a
            .checkpoint_every()
            .unwrap_err()
            .contains("--checkpoint-every 'x'"));
    }

    #[test]
    fn snapshot_dir_fails_fast_and_names_the_flag() {
        // A path that cannot be a directory (its parent is a regular file)
        // must error at validation time — before any replay work — for
        // both `replay` and `serve`.
        let file = std::env::temp_dir().join("dlinfma-snapdir-not-a-dir");
        std::fs::write(&file, b"x").unwrap();
        let bad = file.join("sub");
        let bad = bad.to_str().unwrap();
        for command in ["replay", "serve"] {
            let a = parse(&[command, "--snapshot-dir", bad]).unwrap();
            let err = a.validate_output_flags().unwrap_err();
            assert!(err.contains("--snapshot-dir"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn snapshot_dir_validation_creates_the_directory() {
        let dir = std::env::temp_dir().join("dlinfma-snapdir-ok/nested");
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();
        let a = parse(&["replay", "--snapshot-dir", dir.to_str().unwrap()]).unwrap();
        a.validate_output_flags().unwrap();
        assert!(dir.is_dir(), "directory pre-created");
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();
    }

    #[test]
    fn serve_flags_parse_with_defaults() {
        let a = parse(&[
            "serve",
            "--port",
            "8080",
            "--day-delay-ms",
            "5",
            "--self-check",
            "20",
        ])
        .unwrap();
        assert_eq!(a.num::<u16>("port", 0).unwrap(), 8080);
        assert_eq!(a.num::<u64>("day-delay-ms", 200).unwrap(), 5);
        assert_eq!(a.num::<u32>("train-days", 2).unwrap(), 2); // default
        assert_eq!(a.num::<u64>("self-check", 0).unwrap(), 20);
        let err = parse(&["serve", "--port", "seventy"])
            .unwrap()
            .num::<u16>("port", 0)
            .unwrap_err();
        assert!(err.contains("--port 'seventy'"), "{err}");
    }

    #[test]
    fn workers_flag_overrides_pipeline_config() {
        let a = parse(&["eval", "--workers", "2"]).unwrap();
        let cfg = a.pipeline_cfg(Preset::DowBJ).unwrap();
        assert_eq!(cfg.workers, 2);
        let a = parse(&["eval"]).unwrap();
        assert_eq!(
            a.pipeline_cfg(Preset::DowBJ).unwrap().workers,
            pipeline_config(Preset::DowBJ).workers
        );
    }
}

mod geojson {
    //! Minimal GeoJSON export: the local metric frame is re-projected onto
    //! WGS-84 around Beijing so the output opens in any GIS viewer.

    use dlinfma_core::DlInfMa;
    use dlinfma_geo::{LatLng, Point, Projection};
    use dlinfma_obs::JsonValue;
    use dlinfma_synth::{City, Dataset};

    fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn lnglat(proj: &Projection, p: Point) -> JsonValue {
        let ll = proj.unproject(&p);
        JsonValue::Arr(vec![JsonValue::Num(ll.lng), JsonValue::Num(ll.lat)])
    }

    fn feature(proj: &Projection, p: Point, properties: Vec<(&str, JsonValue)>) -> JsonValue {
        obj(vec![
            ("type", JsonValue::Str("Feature".into())),
            (
                "geometry",
                obj(vec![
                    ("type", JsonValue::Str("Point".into())),
                    ("coordinates", lnglat(proj, p)),
                ]),
            ),
            ("properties", obj(properties)),
        ])
    }

    /// Renders addresses (geocode + ground truth), candidates and inferred
    /// locations as one GeoJSON FeatureCollection string.
    pub fn export(city: &City, dataset: &Dataset, dlinfma: &DlInfMa) -> String {
        let proj = Projection::new(LatLng::new(39.9042, 116.4074));
        let mut features: Vec<JsonValue> = Vec::new();
        for a in &city.addresses {
            features.push(feature(
                &proj,
                a.geocode,
                vec![
                    ("kind", JsonValue::Str("geocode".into())),
                    ("address", JsonValue::Num(a.id.0 as f64)),
                ],
            ));
            features.push(feature(
                &proj,
                a.true_delivery_location,
                vec![
                    ("kind", JsonValue::Str("truth".into())),
                    ("address", JsonValue::Num(a.id.0 as f64)),
                    ("spot", JsonValue::Str(format!("{:?}", a.true_spot_kind))),
                ],
            ));
            if let Some(p) = dlinfma.infer(a.id) {
                features.push(feature(
                    &proj,
                    p,
                    vec![
                        ("kind", JsonValue::Str("inferred".into())),
                        ("address", JsonValue::Num(a.id.0 as f64)),
                    ],
                ));
            }
        }
        for c in dlinfma.pool().candidates() {
            features.push(feature(
                &proj,
                c.pos,
                vec![
                    ("kind", JsonValue::Str("candidate".into())),
                    ("id", JsonValue::Num(c.id.0 as f64)),
                    ("stays", JsonValue::Num(c.profile.n_stays as f64)),
                    ("couriers", JsonValue::Num(c.profile.n_couriers as f64)),
                    ("avg_dwell_s", JsonValue::Num(c.profile.avg_duration_s)),
                ],
            ));
        }
        let _ = dataset;
        obj(vec![
            ("type", JsonValue::Str("FeatureCollection".into())),
            ("features", JsonValue::Arr(features)),
        ])
        .render_pretty()
    }
}
