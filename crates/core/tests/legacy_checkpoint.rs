//! Legacy single-engine checkpoints restore as 1-shard fleets.
//!
//! A single-engine checkpoint (`write_engine_checkpoint`, such as the
//! committed `golden-tiny-v1` fixture) has the fleet layout with an empty
//! trip → shard table and the model in the shard file.
//! `Checkpoint::into_fleet` turns it into a 1-shard fleet; this suite pins
//! that the result is indistinguishable from a 1-shard fleet that ingested
//! the same days, byte for byte in every checkpoint file.
#![allow(clippy::unwrap_used)]

use dlinfma_core::snapshot::{
    engine_to_bytes, read_checkpoint, write_engine_checkpoint, write_fleet_checkpoint,
};
use dlinfma_core::{DlInfMaConfig, Engine, LocMatcher, ShardedEngine};
use dlinfma_synth::{generate_with, replay, spatial_split, world_config, Dataset, Preset, Scale};
use std::path::Path;

const FIXTURE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden-tiny-v1");
const FIXTURE_DAY: u32 = 2;

/// The fixture's world and configuration (see the fixture README).
fn fixture() -> (Dataset, DlInfMaConfig) {
    let mut wc = world_config(Preset::DowBJ, Scale::Tiny);
    wc.sim.n_stations = 3;
    let (_, ds) = generate_with(&wc, 77);
    let mut cfg = DlInfMaConfig::fast();
    cfg.model.max_epochs = 4;
    cfg.workers = 2;
    (ds, cfg)
}

#[test]
fn golden_v1_converts_to_a_one_shard_fleet_that_resumes() {
    let (ds, cfg) = fixture();
    let cp = read_checkpoint(Path::new(FIXTURE_DIR), FIXTURE_DAY, &ds.addresses, cfg).unwrap();
    let mut fleet = cp.into_fleet();
    assert_eq!(fleet.n_shards(), 1);
    assert_eq!(fleet.days_ingested(), FIXTURE_DAY);
    assert_eq!(fleet.shard_epochs(), vec![u64::from(FIXTURE_DAY)]);
    let committed = std::fs::read(Path::new(FIXTURE_DIR).join("day-00002/shard-0000.snap"));
    assert_eq!(engine_to_bytes(fleet.shard(0)), committed.unwrap());

    // Resuming the remaining days lands where a cold 1-shard fleet does.
    let mut cold = ShardedEngine::new(ds.addresses.clone(), cfg, 1);
    for (i, batch) in replay(&ds).enumerate() {
        if i >= FIXTURE_DAY as usize {
            fleet.ingest(&batch);
        }
        cold.ingest(&batch);
    }
    assert!(fleet.days_ingested() > FIXTURE_DAY);
    assert_eq!(fleet.days_ingested(), cold.days_ingested());
    let (resumed, cold) = (
        engine_to_bytes(fleet.shard(0)),
        engine_to_bytes(cold.shard(0)),
    );
    assert!(resumed == cold, "resumed shard diverges from the cold run");
}

#[test]
fn converted_single_engine_checkpoints_equal_one_shard_fleet_checkpoints() {
    let (ds, cfg) = fixture();
    let split = spatial_split(&ds, 0.6, 0.2);
    let day = 3u32;
    for with_model in [false, true] {
        let mut engine = Engine::new(ds.addresses.clone(), cfg);
        let mut fleet = ShardedEngine::new(ds.addresses.clone(), cfg, 1);
        for batch in replay(&ds).take(day as usize) {
            engine.ingest(&batch);
            fleet.ingest(&batch);
        }
        if with_model {
            fleet.train_with(&ds, &split.train, &split.val);
            let weights = fleet.model().unwrap().export_weights();
            engine.set_model(LocMatcher::from_weights(fleet.config().model, &weights).unwrap());
        }

        let dir = std::env::temp_dir().join(format!("dlinfma-legacy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_engine_checkpoint(&dir.join("single"), day, &engine).unwrap();
        let cp = read_checkpoint(&dir.join("single"), day, &ds.addresses, cfg).unwrap();
        write_fleet_checkpoint(&dir.join("converted"), day, &cp.into_fleet()).unwrap();
        let want = write_fleet_checkpoint(&dir.join("fleet"), day, &fleet).unwrap();
        let got = dir.join("converted").join(want.file_name().unwrap());
        for name in ["manifest.snap", "shard-0000.snap"] {
            assert_eq!(
                std::fs::read(got.join(name)).unwrap(),
                std::fs::read(want.join(name)).unwrap(),
                "{name} differs (model installed: {with_model})"
            );
        }
        assert_eq!(std::fs::read_dir(&got).unwrap().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
