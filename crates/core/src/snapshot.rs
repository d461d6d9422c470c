//! Durable engine snapshots and warm restart.
//!
//! A snapshot is a single self-describing binary file in the `dlinfma-snap`
//! container format (magic, format version, per-section CRC — see the
//! `dlinfma-snap` crate and DESIGN.md § Snapshot format). It captures the
//! four stage artifacts ([`StayPointSet`], [`PoolState`],
//! [`RetrievalIndex`], [`SampleTable`]), the trip → station table, the
//! cumulative point counters, and — when present — the trained LocMatcher
//! weights. Everything *derived* (candidate pool, finalized samples,
//! pipeline report) is rebuilt on decode through the same
//! materialization path a cold ingest uses, and everything *observational*
//! (stage timings, health monitor) is deliberately excluded, so snapshot
//! bytes are a pure function of the ingested data.
//!
//! The defining invariant: resuming from a day-`k` checkpoint and
//! ingesting days `k+1..n` is **bit-identical** to a cold run over days
//! `1..n`, at any worker count and any shard count. The repository's
//! `resume_parity` test enforces it by comparing snapshot bytes, which is
//! the strongest equality the engine can state.
//!
//! On-disk checkpoint layout, one directory per checkpointed day:
//!
//! ```text
//! <snapshot-dir>/day-00003/manifest.snap    fleet routing state + model
//! <snapshot-dir>/day-00003/shard-0000.snap  one engine file per shard
//! <snapshot-dir>/day-00003/shard-0001.snap
//! ```
//!
//! A legacy single-engine checkpoint ([`write_engine_checkpoint`]) is the
//! `n_shards = 1` special case of the same layout;
//! [`Checkpoint::into_fleet`] restores it as a 1-shard fleet. Checkpoints
//! are written to a hidden temporary directory and atomically renamed into
//! place, so readers never observe a half-written day.

use crate::engine::{Engine, EngineSnapState};
use crate::locmatcher::LocMatcher;
use crate::pipeline::{DlInfMaConfig, PoolMethod};
use crate::sharded::ShardedEngine;
use crate::stages::{PoolState, RetrievalIndex, SampleTable, StayPointSet};
use dlinfma_pool::Pool;
use dlinfma_snap::{write_container, Dec, Enc, Sections, SnapError};
use dlinfma_synth::{Address, StationId};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Configuration fingerprint: the pipeline parameters snapshot bytes
/// depend on. Resuming under a different configuration would silently
/// break the parity invariant, so decode refuses on any mismatch.
const TAG_CONFIG: u32 = 1;
/// [`StayPointSet`] stage state.
const TAG_STAYS: u32 = 2;
/// [`PoolState`] stage state.
const TAG_POOL: u32 = 3;
/// [`RetrievalIndex`] stage state.
const TAG_RETRIEVAL: u32 = 4;
/// [`SampleTable`] stage state.
const TAG_TABLE: u32 = 5;
/// Engine-level state: trip → station table and cumulative counters.
const TAG_ENGINE: u32 = 6;
/// Trained LocMatcher weight dump (optional section).
const TAG_MODEL: u32 = 7;
/// Fleet manifest: shard count, day counters.
const TAG_FLEET: u32 = 16;
/// Persistent trip → shard routing table.
const TAG_TRIP_SHARD: u32 = 17;

/// Manifest shard counts above this are rejected as hostile (the reader
/// would otherwise probe that many files).
const MAX_SHARDS: u32 = 1 << 16;

/// Everything that can go wrong writing, reading, or validating a
/// snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// The container or a section payload is malformed (wrong magic, bad
    /// checksum, truncation, …).
    Format(SnapError),
    /// The snapshot was produced under a different pipeline configuration;
    /// `what` names the first mismatching parameter.
    ConfigMismatch {
        /// The parameter that differs.
        what: &'static str,
    },
    /// Sections decoded individually but are mutually inconsistent.
    Invalid(String),
    /// A stored model's weight dump does not fit the supplied model
    /// configuration.
    ModelMismatch(String),
    /// Filesystem failure, with the path that failed.
    Io(String),
    /// No checkpoint exists in the requested directory (or for the
    /// requested day).
    NoCheckpoint(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Format(e) => write!(f, "snapshot format error: {e}"),
            SnapshotError::ConfigMismatch { what } => write!(
                f,
                "snapshot was produced under a different configuration ({what} differs)"
            ),
            SnapshotError::Invalid(what) => write!(f, "inconsistent snapshot: {what}"),
            SnapshotError::ModelMismatch(what) => {
                write!(f, "stored model does not fit the configuration: {what}")
            }
            SnapshotError::Io(what) => write!(f, "snapshot i/o error: {what}"),
            SnapshotError::NoCheckpoint(where_) => write!(f, "no checkpoint found: {where_}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapError> for SnapshotError {
    fn from(e: SnapError) -> Self {
        SnapshotError::Format(e)
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> SnapshotError {
    SnapshotError::Io(format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Section encoding
// ---------------------------------------------------------------------------

/// Encodes the configuration fingerprint. Worker count is deliberately
/// excluded: parity holds at any worker count, so a snapshot written with
/// 8 workers must resume under 1. Floats are compared bit-for-bit on
/// decode — a configuration that differs in the 17th decimal place is a
/// different configuration.
fn encode_config(cfg: &DlInfMaConfig, e: &mut Enc) {
    e.f64(cfg.extraction.noise.max_speed_mps);
    e.f64(cfg.extraction.noise.min_dt_s);
    e.f64(cfg.extraction.stay.d_max_m);
    e.f64(cfg.extraction.stay.t_min_s);
    e.f64(cfg.clustering_distance_m);
    e.u8(match cfg.pool_method {
        PoolMethod::Hierarchical => 0,
        PoolMethod::Grid => 1,
    });
    e.bool(cfg.features.use_trip_coverage);
    e.bool(cfg.features.use_location_commonality);
    e.bool(cfg.features.use_distance);
    e.bool(cfg.features.use_profile);
    e.bool(cfg.features.lc_address_level);
}

/// Validates a stored fingerprint against the live configuration,
/// naming the first mismatching parameter.
fn check_config(cfg: &DlInfMaConfig, payload: &[u8]) -> Result<(), SnapshotError> {
    let mut d = Dec::new(payload);
    let mut float = |want: f64, what: &'static str| -> Result<(), SnapshotError> {
        if d.f64()?.to_bits() == want.to_bits() {
            Ok(())
        } else {
            Err(SnapshotError::ConfigMismatch { what })
        }
    };
    float(cfg.extraction.noise.max_speed_mps, "noise.max_speed_mps")?;
    float(cfg.extraction.noise.min_dt_s, "noise.min_dt_s")?;
    float(cfg.extraction.stay.d_max_m, "stay.d_max_m")?;
    float(cfg.extraction.stay.t_min_s, "stay.t_min_s")?;
    float(cfg.clustering_distance_m, "clustering_distance_m")?;
    let method = match cfg.pool_method {
        PoolMethod::Hierarchical => 0u8,
        PoolMethod::Grid => 1,
    };
    if d.u8()? != method {
        return Err(SnapshotError::ConfigMismatch {
            what: "pool_method",
        });
    }
    let flags = [
        (cfg.features.use_trip_coverage, "features.use_trip_coverage"),
        (
            cfg.features.use_location_commonality,
            "features.use_location_commonality",
        ),
        (cfg.features.use_distance, "features.use_distance"),
        (cfg.features.use_profile, "features.use_profile"),
        (cfg.features.lc_address_level, "features.lc_address_level"),
    ];
    for (want, what) in flags {
        if d.bool()? != want {
            return Err(SnapshotError::ConfigMismatch { what });
        }
    }
    d.finish()?;
    Ok(())
}

/// Encodes the engine-level section: the trip → station table sorted by
/// trip id, then the cumulative raw/filtered point counters.
fn encode_engine_section(st: &EngineSnapState<'_>, e: &mut Enc) {
    let mut pairs: Vec<(u32, u32)> = st.trip_station.iter().map(|(&t, s)| (t, s.0)).collect();
    pairs.sort_unstable();
    e.usize(pairs.len());
    for (t, s) in pairs {
        e.u32(t);
        e.u32(s);
    }
    e.u64(st.cum_raw_points);
    e.u64(st.cum_filtered_points);
}

/// Decodes the engine-level section. Trips must be strictly ascending —
/// the canonical order the encoder writes — which doubles as a duplicate
/// check.
fn decode_engine_section(payload: &[u8]) -> Result<(HashMap<u32, StationId>, u64, u64), SnapError> {
    let mut d = Dec::new(payload);
    let n = d.seq_len(8)?;
    let mut trip_station: HashMap<u32, StationId> = HashMap::with_capacity(n);
    let mut prev: Option<u32> = None;
    for _ in 0..n {
        let t = d.u32()?;
        if prev.is_some_and(|p| p >= t) {
            return Err(SnapError::Malformed {
                what: "trip -> station table is not strictly ascending",
            });
        }
        prev = Some(t);
        trip_station.insert(t, StationId(d.u32()?));
    }
    let cum_raw = d.u64()?;
    let cum_filtered = d.u64()?;
    d.finish()?;
    Ok((trip_station, cum_raw, cum_filtered))
}

/// Encodes a trained model as its `(name, shape, data)` weight dump.
fn encode_model(model: &LocMatcher, e: &mut Enc) {
    let weights = model.export_weights();
    e.usize(weights.len());
    for (name, shape, data) in &weights {
        e.str(name);
        e.usize(shape.len());
        for &dim in shape {
            e.usize(dim);
        }
        e.usize(data.len());
        for &w in data {
            e.f32(w);
        }
    }
}

/// Decodes a weight dump and rebuilds the model under `cfg`.
fn decode_model(cfg: &DlInfMaConfig, payload: &[u8]) -> Result<LocMatcher, SnapshotError> {
    let mut d = Dec::new(payload);
    let n = d.seq_len(24)?;
    let mut weights: Vec<(String, Vec<usize>, Vec<f32>)> = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        let n_dims = d.seq_len(8)?;
        let mut shape: Vec<usize> = Vec::with_capacity(n_dims);
        for _ in 0..n_dims {
            shape.push(d.usize()?);
        }
        let n_data = d.seq_len(4)?;
        let mut data: Vec<f32> = Vec::with_capacity(n_data);
        for _ in 0..n_data {
            data.push(d.f32()?);
        }
        weights.push((name, shape, data));
    }
    d.finish()?;
    let mut model_cfg = cfg.model;
    model_cfg.features = cfg.features;
    LocMatcher::from_weights(model_cfg, &weights).map_err(SnapshotError::ModelMismatch)
}

// ---------------------------------------------------------------------------
// Whole-engine encode / decode
// ---------------------------------------------------------------------------

/// Serializes one engine (a fleet shard, or the whole pipeline in single
/// mode) to snapshot bytes. The bytes are a pure function of the ingested
/// data and the configuration — equal inputs yield equal bytes at any
/// worker count, which is what lets CI assert determinism with `cmp` and
/// the parity test assert resume correctness by byte equality.
pub fn engine_to_bytes(engine: &Engine) -> Vec<u8> {
    let st = engine.snap_state();
    let mut config = Enc::new();
    encode_config(engine.config(), &mut config);
    let mut stays = Enc::new();
    st.stays.snap_encode(&mut stays);
    let mut pool = Enc::new();
    st.pool_state.snap_encode(&mut pool);
    let mut retrieval = Enc::new();
    st.retrieval.snap_encode(&mut retrieval);
    let mut table = Enc::new();
    st.table.snap_encode(&mut table);
    let mut eng = Enc::new();
    encode_engine_section(&st, &mut eng);
    let mut sections = vec![
        (TAG_CONFIG, config.into_bytes()),
        (TAG_STAYS, stays.into_bytes()),
        (TAG_POOL, pool.into_bytes()),
        (TAG_RETRIEVAL, retrieval.into_bytes()),
        (TAG_TABLE, table.into_bytes()),
        (TAG_ENGINE, eng.into_bytes()),
    ];
    if let Some(model) = st.model {
        let mut m = Enc::new();
        encode_model(model, &mut m);
        sections.push((TAG_MODEL, m.into_bytes()));
    }
    write_container(&sections)
}

/// Restores one engine from snapshot bytes. `addresses` and `cfg` are the
/// static inputs the snapshot does not carry (the dataset's address book
/// and the live configuration); the stored fingerprint must match `cfg`.
/// Decode never panics on hostile bytes — every failure is a typed
/// [`SnapshotError`].
pub fn engine_from_bytes(
    bytes: &[u8],
    addresses: Vec<Address>,
    cfg: DlInfMaConfig,
    exec: Arc<Pool>,
) -> Result<Engine, SnapshotError> {
    let sections = Sections::parse(bytes)?;
    check_config(&cfg, sections.require(TAG_CONFIG)?)?;

    let mut d = Dec::new(sections.require(TAG_STAYS)?);
    let stays = StayPointSet::snap_decode(&mut d)?;
    d.finish()?;

    let mut d = Dec::new(sections.require(TAG_POOL)?);
    let pool_state = PoolState::snap_decode(&mut d, stays.len())?;
    d.finish()?;

    let mut d = Dec::new(sections.require(TAG_RETRIEVAL)?);
    let retrieval = RetrievalIndex::snap_decode(&mut d)?;
    d.finish()?;

    let mut d = Dec::new(sections.require(TAG_TABLE)?);
    let table = SampleTable::snap_decode(&mut d)?;
    d.finish()?;

    let (trip_station, cum_raw, cum_filtered) =
        decode_engine_section(sections.require(TAG_ENGINE)?)?;
    for rec in stays.recs() {
        if !trip_station.contains_key(&rec.trip.0) {
            return Err(SnapshotError::Invalid(format!(
                "stay references trip {} missing from the trip -> station table",
                rec.trip.0
            )));
        }
    }

    let model = match sections.get(TAG_MODEL) {
        Some(payload) => Some(decode_model(&cfg, payload)?),
        None => None,
    };

    Ok(Engine::from_restored(
        addresses,
        cfg,
        exec,
        stays,
        pool_state,
        retrieval,
        table,
        trip_station,
        cum_raw,
        cum_filtered,
        model,
    ))
}

// ---------------------------------------------------------------------------
// Fleet manifest
// ---------------------------------------------------------------------------

/// Serializes the fleet-level routing state (shard count, day counters,
/// trip → shard table, fleet model). A single engine is written as an
/// `n_shards = 1` manifest with an empty routing table, so readers handle
/// both modes through one format.
fn manifest_to_bytes(
    cfg: &DlInfMaConfig,
    n_shards: u32,
    days_ingested: u32,
    shard_days: &[u32],
    trip_shard: &HashMap<u32, usize>,
    model: Option<&LocMatcher>,
) -> Vec<u8> {
    let mut config = Enc::new();
    encode_config(cfg, &mut config);
    let mut fleet = Enc::new();
    fleet.u32(n_shards);
    fleet.u32(days_ingested);
    fleet.usize(shard_days.len());
    for &days in shard_days {
        fleet.u32(days);
    }
    let mut routes = Enc::new();
    let mut pairs: Vec<(u32, u32)> = trip_shard.iter().map(|(&t, &s)| (t, s as u32)).collect();
    pairs.sort_unstable();
    routes.usize(pairs.len());
    for (t, s) in pairs {
        routes.u32(t);
        routes.u32(s);
    }
    let mut sections = vec![
        (TAG_CONFIG, config.into_bytes()),
        (TAG_FLEET, fleet.into_bytes()),
        (TAG_TRIP_SHARD, routes.into_bytes()),
    ];
    if let Some(model) = model {
        let mut m = Enc::new();
        encode_model(model, &mut m);
        sections.push((TAG_MODEL, m.into_bytes()));
    }
    write_container(&sections)
}

/// Decoded manifest, pre-validation against the shard files.
struct Manifest {
    n_shards: u32,
    days_ingested: u32,
    shard_days: Vec<u32>,
    trip_shard: HashMap<u32, usize>,
    model: Option<LocMatcher>,
}

fn manifest_from_bytes(bytes: &[u8], cfg: &DlInfMaConfig) -> Result<Manifest, SnapshotError> {
    let sections = Sections::parse(bytes)?;
    check_config(cfg, sections.require(TAG_CONFIG)?)?;

    let mut d = Dec::new(sections.require(TAG_FLEET)?);
    let n_shards = d.u32()?;
    if n_shards == 0 || n_shards > MAX_SHARDS {
        return Err(SnapshotError::Invalid(format!(
            "manifest declares {n_shards} shards (supported: 1..={MAX_SHARDS})"
        )));
    }
    let days_ingested = d.u32()?;
    let n_days = d.seq_len(4)?;
    if n_days != n_shards as usize {
        return Err(SnapshotError::Invalid(format!(
            "manifest has {n_days} per-shard day counters for {n_shards} shards"
        )));
    }
    let mut shard_days: Vec<u32> = Vec::with_capacity(n_days);
    for _ in 0..n_days {
        shard_days.push(d.u32()?);
    }
    d.finish()?;

    let mut d = Dec::new(sections.require(TAG_TRIP_SHARD)?);
    let n_routes = d.seq_len(8)?;
    let mut trip_shard: HashMap<u32, usize> = HashMap::with_capacity(n_routes);
    let mut prev: Option<u32> = None;
    for _ in 0..n_routes {
        let t = d.u32()?;
        if prev.is_some_and(|p| p >= t) {
            return Err(SnapshotError::Format(SnapError::Malformed {
                what: "trip -> shard table is not strictly ascending",
            }));
        }
        prev = Some(t);
        let s = d.u32()?;
        if s >= n_shards {
            return Err(SnapshotError::Invalid(format!(
                "trip {t} routes to shard {s} of {n_shards}"
            )));
        }
        trip_shard.insert(t, s as usize);
    }
    d.finish()?;

    let model = match sections.get(TAG_MODEL) {
        Some(payload) => Some(decode_model(cfg, payload)?),
        None => None,
    };

    Ok(Manifest {
        n_shards,
        days_ingested,
        shard_days,
        trip_shard,
        model,
    })
}

// ---------------------------------------------------------------------------
// Filesystem checkpoints
// ---------------------------------------------------------------------------

/// The checkpoint directory name for one day: `day-00003`.
pub fn checkpoint_dir_name(day: u32) -> String {
    format!("day-{day:05}")
}

/// The shard file name inside a checkpoint directory: `shard-0000.snap`.
pub fn shard_file_name(shard: usize) -> String {
    format!("shard-{shard:04}.snap")
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    std::fs::write(path, bytes).map_err(|e| io_err(path, &e))
}

/// Writes a checkpoint directory atomically: all files land in a hidden
/// temporary sibling first, which is then renamed to `day-NNNNN`. An
/// existing checkpoint for the same day is replaced.
fn commit_checkpoint(
    dir: &Path,
    day: u32,
    files: &[(String, Vec<u8>)],
) -> Result<PathBuf, SnapshotError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
    let final_dir = dir.join(checkpoint_dir_name(day));
    let tmp_dir = dir.join(format!(".tmp-{}", checkpoint_dir_name(day)));
    if tmp_dir.exists() {
        std::fs::remove_dir_all(&tmp_dir).map_err(|e| io_err(&tmp_dir, &e))?;
    }
    std::fs::create_dir(&tmp_dir).map_err(|e| io_err(&tmp_dir, &e))?;
    for (name, bytes) in files {
        write_file(&tmp_dir.join(name), bytes)?;
    }
    if final_dir.exists() {
        std::fs::remove_dir_all(&final_dir).map_err(|e| io_err(&final_dir, &e))?;
    }
    std::fs::rename(&tmp_dir, &final_dir).map_err(|e| io_err(&final_dir, &e))?;
    Ok(final_dir)
}

/// Checkpoints a single engine after ingesting `day` days. Returns the
/// checkpoint directory (`<dir>/day-NNNNN`).
///
/// # Errors
/// Propagates filesystem failures; the target directory is created if
/// missing.
pub fn write_engine_checkpoint(
    dir: &Path,
    day: u32,
    engine: &Engine,
) -> Result<PathBuf, SnapshotError> {
    let manifest = manifest_to_bytes(
        engine.config(),
        1,
        day,
        &[day],
        &HashMap::new(),
        // The single-engine model travels in the shard file.
        None,
    );
    let files = vec![
        ("manifest.snap".to_string(), manifest),
        (shard_file_name(0), engine_to_bytes(engine)),
    ];
    commit_checkpoint(dir, day, &files)
}

/// Checkpoints a sharded fleet after ingesting `day` days: one manifest
/// plus one snapshot file per shard.
///
/// # Errors
/// Propagates filesystem failures; the target directory is created if
/// missing.
pub fn write_fleet_checkpoint(
    dir: &Path,
    day: u32,
    fleet: &ShardedEngine,
) -> Result<PathBuf, SnapshotError> {
    let (shard_days, trip_shard, model) = fleet.snap_state();
    let manifest = manifest_to_bytes(
        fleet.config(),
        fleet.n_shards() as u32,
        day,
        shard_days,
        trip_shard,
        model,
    );
    let mut files = vec![("manifest.snap".to_string(), manifest)];
    for s in 0..fleet.n_shards() {
        files.push((shard_file_name(s), engine_to_bytes(fleet.shard(s))));
    }
    commit_checkpoint(dir, day, &files)
}

/// A restored pipeline: either a single engine or a sharded fleet,
/// matching whatever wrote the checkpoint.
pub enum RestoredEngine {
    /// An unsharded engine (checkpoint had one shard and no routing table).
    Single(Box<Engine>),
    /// A station-sharded fleet.
    Fleet(Box<ShardedEngine>),
}

/// A checkpoint restored from disk.
pub struct Checkpoint {
    /// How many days the checkpointed pipeline had ingested.
    pub days_ingested: u32,
    /// The restored pipeline, ready to keep ingesting or serve.
    pub engine: RestoredEngine,
}

impl Checkpoint {
    /// The restored pipeline as a fleet. A legacy single-engine checkpoint
    /// becomes a 1-shard fleet: the engine's model moves up to the fleet
    /// and each of its trips is recorded as routed to shard 0, so the
    /// result re-encodes exactly like a 1-shard fleet that ingested the
    /// same days.
    pub fn into_fleet(self) -> ShardedEngine {
        let days = self.days_ingested;
        match self.engine {
            RestoredEngine::Fleet(fleet) => *fleet,
            RestoredEngine::Single(mut engine) => {
                let model = engine.take_model();
                // lint: allow(L9, collected into the routing hash map: visit order cannot matter)
                let trips = engine.snap_state().trip_station.keys();
                let trip_shard = trips.map(|&t| (t, 0)).collect();
                let (exec, shards) = (engine.exec_handle(), vec![*engine]);
                ShardedEngine::from_restored(shards, exec, model, days, vec![days], trip_shard)
            }
        }
    }
}

/// Days with a checkpoint under `dir`, ascending. Ignores files and
/// directories that do not match the `day-NNNNN` pattern (including the
/// hidden temporaries of an interrupted write).
///
/// # Errors
/// Propagates filesystem failures; a missing `dir` yields an empty list.
pub fn checkpoint_days(dir: &Path) -> Result<Vec<u32>, SnapshotError> {
    let mut days: Vec<u32> = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(days),
        Err(e) => return Err(io_err(dir, &e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(digits) = name.strip_prefix("day-") else {
            continue;
        };
        if digits.len() == 5 && digits.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(day) = digits.parse::<u32>() {
                days.push(day);
            }
        }
    }
    days.sort_unstable();
    Ok(days)
}

/// The most recent checkpointed day under `dir`, if any.
///
/// # Errors
/// Propagates filesystem failures.
pub fn latest_checkpoint(dir: &Path) -> Result<Option<u32>, SnapshotError> {
    Ok(checkpoint_days(dir)?.into_iter().next_back())
}

/// Reads the day-`day` checkpoint under `dir` and restores the pipeline.
/// `addresses` and `cfg` must be the same static inputs the writer ran
/// with; the stored configuration fingerprint is validated and the worker
/// pool is rebuilt from `cfg.workers`.
///
/// # Errors
/// [`SnapshotError::NoCheckpoint`] when the day directory is missing; any
/// format, fingerprint, or consistency failure otherwise.
pub fn read_checkpoint(
    dir: &Path,
    day: u32,
    addresses: &[Address],
    cfg: DlInfMaConfig,
) -> Result<Checkpoint, SnapshotError> {
    let day_dir = dir.join(checkpoint_dir_name(day));
    if !day_dir.is_dir() {
        return Err(SnapshotError::NoCheckpoint(format!(
            "{} does not exist",
            day_dir.display()
        )));
    }
    let manifest_path = day_dir.join("manifest.snap");
    let manifest_bytes = std::fs::read(&manifest_path).map_err(|e| io_err(&manifest_path, &e))?;
    let manifest = manifest_from_bytes(&manifest_bytes, &cfg)?;

    let exec = Arc::new(Pool::new(cfg.workers));
    let mut shards: Vec<Engine> = Vec::with_capacity(manifest.n_shards as usize);
    for s in 0..manifest.n_shards as usize {
        let shard_path = day_dir.join(shard_file_name(s));
        let bytes = std::fs::read(&shard_path).map_err(|e| io_err(&shard_path, &e))?;
        shards.push(engine_from_bytes(
            &bytes,
            addresses.to_vec(),
            cfg,
            Arc::clone(&exec),
        )?);
    }

    let engine = if manifest.n_shards == 1 && manifest.trip_shard.is_empty() {
        let Some(engine) = shards.pop() else {
            return Err(SnapshotError::Invalid("no shard files decoded".to_string()));
        };
        RestoredEngine::Single(Box::new(engine))
    } else {
        RestoredEngine::Fleet(Box::new(ShardedEngine::from_restored(
            shards,
            exec,
            manifest.model,
            manifest.days_ingested,
            manifest.shard_days,
            manifest.trip_shard,
        )))
    };
    Ok(Checkpoint {
        days_ingested: manifest.days_ingested,
        engine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlinfma_synth::{generate_with, world_config, Dataset, Preset, Scale, TripBatch};

    fn tiny() -> Dataset {
        let mut world = world_config(Preset::DowBJ, Scale::Tiny);
        world.sim.n_stations = 3;
        let (_, ds) = generate_with(&world, 21);
        ds
    }

    fn fast_cfg() -> DlInfMaConfig {
        let mut cfg = DlInfMaConfig::fast();
        cfg.workers = 2;
        cfg
    }

    #[test]
    fn engine_round_trips_through_bytes_bit_identically() {
        let ds = tiny();
        let cfg = fast_cfg();
        let mut engine = Engine::new(ds.addresses.clone(), cfg);
        for batch in dlinfma_synth::replay(&ds) {
            engine.ingest(&batch);
        }
        let bytes = engine_to_bytes(&engine);
        let exec = Arc::new(Pool::new(cfg.workers));
        let restored =
            engine_from_bytes(&bytes, ds.addresses.clone(), cfg, exec).expect("round trip decodes");
        assert_eq!(bytes, engine_to_bytes(&restored));
        assert_eq!(engine.n_stays(), restored.n_stays());
        assert_eq!(engine.pool().len(), restored.pool().len());
        assert_eq!(engine.n_trips(), restored.n_trips());
    }

    #[test]
    fn config_fingerprint_rejects_a_different_configuration() {
        let ds = tiny();
        let cfg = fast_cfg();
        let mut engine = Engine::new(ds.addresses.clone(), cfg);
        for batch in dlinfma_synth::replay(&ds) {
            engine.ingest(&batch);
        }
        let bytes = engine_to_bytes(&engine);
        let mut other = cfg;
        other.clustering_distance_m += 1.0;
        let exec = Arc::new(Pool::new(2));
        let Err(err) = engine_from_bytes(&bytes, ds.addresses.clone(), other, exec) else {
            panic!("fingerprint must reject");
        };
        assert!(matches!(
            err,
            SnapshotError::ConfigMismatch {
                what: "clustering_distance_m"
            }
        ));
    }

    #[test]
    fn checkpoint_files_round_trip_for_single_and_fleet() {
        let ds = tiny();
        let cfg = fast_cfg();
        let dir = std::env::temp_dir().join(format!("dlinfma-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut engine = Engine::new(ds.addresses.clone(), cfg);
        let mut fleet = ShardedEngine::new(ds.addresses.clone(), cfg, 3);
        let days: Vec<TripBatch> = dlinfma_synth::replay(&ds).collect();
        for day in &days {
            engine.ingest(day);
            fleet.ingest(day);
        }
        write_engine_checkpoint(&dir.join("single"), days.len() as u32, &engine)
            .expect("single checkpoint writes");
        write_fleet_checkpoint(&dir.join("fleet"), days.len() as u32, &fleet)
            .expect("fleet checkpoint writes");
        assert_eq!(
            latest_checkpoint(&dir.join("single")).expect("listable"),
            Some(days.len() as u32)
        );
        assert_eq!(
            latest_checkpoint(&dir.join("missing")).expect("empty ok"),
            None
        );

        let single = read_checkpoint(&dir.join("single"), days.len() as u32, &ds.addresses, cfg)
            .expect("single restores");
        assert_eq!(single.days_ingested, days.len() as u32);
        let RestoredEngine::Single(restored) = single.engine else {
            panic!("expected a single engine");
        };
        assert_eq!(engine_to_bytes(&engine), engine_to_bytes(&restored));

        let restored_fleet =
            read_checkpoint(&dir.join("fleet"), days.len() as u32, &ds.addresses, cfg)
                .expect("fleet restores");
        let RestoredEngine::Fleet(restored) = restored_fleet.engine else {
            panic!("expected a fleet");
        };
        assert_eq!(restored.n_shards(), 3);
        for s in 0..3 {
            assert_eq!(
                engine_to_bytes(fleet.shard(s)),
                engine_to_bytes(restored.shard(s))
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
