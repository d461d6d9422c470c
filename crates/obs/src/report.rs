//! Typed pipeline run reports.
//!
//! A [`PipelineReport`] is the structured summary `DlInfMa::prepare` /
//! `train` return alongside their normal results: wall-clock duration per
//! stage plus the data funnel the paper's Fig. 3 pipeline implies
//! (raw points → filtered points → stay points → clusters → candidates
//! retrieved → samples labelled). Unlike spans and metrics it does not
//! depend on the global collector being enabled — the counts and a handful
//! of `Instant` reads are cheap enough to populate unconditionally.

use crate::json::JsonValue;

/// Canonical stage names, shared by spans, reports and exporters so the
/// JSON output and the rendered tables always agree.
pub mod stage {
    /// Per-point noise filtering (paper Fig. 3 "noise filtering").
    pub const NOISE_FILTER: &str = "noise-filter";
    /// Stay-point detection over filtered trajectories.
    pub const STAY_POINTS: &str = "stay-point-extraction";
    /// Hierarchical clustering of stay points into the candidate pool.
    pub const CLUSTERING: &str = "clustering";
    /// Temporal-upper-bound candidate retrieval per address.
    pub const RETRIEVAL: &str = "retrieval";
    /// Candidate feature extraction.
    pub const FEATURES: &str = "feature-extraction";
    /// LocMatcher model training.
    pub const TRAINING: &str = "training";
    /// LocMatcher inference.
    pub const INFERENCE: &str = "inference";
}

/// One pipeline stage: wall-clock duration and item counts in/out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// Stage name; see [`stage`] for the canonical set.
    pub name: &'static str,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Summed per-worker CPU time in nanoseconds, when the stage ran on
    /// multiple workers. `None` for serial stages (CPU == wall). With
    /// `workers > 1` the CPU sum exceeds the wall clock — reporting both
    /// keeps `--verbose` honest about parallel speedup instead of
    /// presenting summed worker time as elapsed time.
    pub cpu_ns: Option<u64>,
    /// Items entering the stage (e.g. raw points), when meaningful.
    pub items_in: Option<u64>,
    /// Items leaving the stage (e.g. filtered points), when meaningful.
    pub items_out: Option<u64>,
}

/// The data funnel across the whole pipeline. Each field counts items
/// surviving the corresponding stage; invariants between them are checked
/// by [`PipelineReport::check_funnel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FunnelCounts {
    /// GPS points before noise filtering.
    pub raw_points: u64,
    /// GPS points after noise filtering (≤ raw).
    pub filtered_points: u64,
    /// Stay points detected (≤ filtered, each aggregates ≥ 1 point).
    pub stay_points: u64,
    /// Clusters retained in the candidate pool (≤ stay points).
    pub clusters: u64,
    /// Candidate retrievals summed over all addresses (can exceed
    /// `clusters`: one cluster serves many addresses).
    pub candidates_retrieved: u64,
    /// Addresses with at least one retrieved candidate.
    pub addresses_sampled: u64,
    /// Samples that received a ground-truth label via `label_with`.
    pub samples_labelled: u64,
}

/// Telemetry for one pool worker (or the caller helping a join), part of a
/// [`PoolReport`]. All counts are cumulative over the report's window.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolWorkerReport {
    /// `worker-N` for pool threads, `caller` for the thread that joins
    /// scopes and helps drain the deques.
    pub label: String,
    /// Tasks executed by this worker.
    pub tasks: u64,
    /// Tasks popped from a sibling's deque.
    pub steals: u64,
    /// Wake-ups that found queued work somewhere but lost the race for it.
    pub steal_failures: u64,
    /// Deepest this worker's own deque ever got.
    pub queue_hwm: u64,
    /// Nanoseconds spent running tasks.
    pub busy_ns: u64,
    /// Nanoseconds spent parked waiting for work.
    pub idle_ns: u64,
}

/// Scheduler telemetry from `dlinfma-pool`, embedded in
/// [`PipelineReport`] (cumulative since pool creation) and
/// [`IngestReport`] (delta for that one ingest). Observation-only: the
/// counters never influence scheduling, so worker-count parity holds with
/// telemetry on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolReport {
    /// Worker threads the pool runs (1 = inline execution, no threads).
    pub threads: u64,
    /// Per-worker rows; the final row is the caller slot.
    pub workers: Vec<PoolWorkerReport>,
}

impl PoolReport {
    /// Tasks executed across all workers.
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks).sum()
    }

    /// Steals across all workers.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Per-worker difference `self − earlier` (saturating), used to turn
    /// two cumulative snapshots into a per-ingest delta. Workers are
    /// matched by position; a changed worker set yields `self` unchanged.
    pub fn minus(&self, earlier: &PoolReport) -> PoolReport {
        if earlier.workers.len() != self.workers.len() {
            return self.clone();
        }
        PoolReport {
            threads: self.threads,
            workers: self
                .workers
                .iter()
                .zip(&earlier.workers)
                .map(|(now, then)| PoolWorkerReport {
                    label: now.label.clone(),
                    tasks: now.tasks.saturating_sub(then.tasks),
                    steals: now.steals.saturating_sub(then.steals),
                    steal_failures: now.steal_failures.saturating_sub(then.steal_failures),
                    queue_hwm: now.queue_hwm, // high-water mark doesn't diff
                    busy_ns: now.busy_ns.saturating_sub(then.busy_ns),
                    idle_ns: now.idle_ns.saturating_sub(then.idle_ns),
                })
                .collect(),
        }
    }

    /// Renders the per-worker table.
    pub fn render_table(&self) -> String {
        let mut out = format!("== pool report ({} thread(s)) ==\n", self.threads);
        out.push_str(&format!(
            "{:<10} {:>8} {:>8} {:>10} {:>10} {:>12} {:>12}\n",
            "worker", "tasks", "steals", "steal-miss", "queue-hwm", "busy (ms)", "idle (ms)"
        ));
        for w in &self.workers {
            out.push_str(&format!(
                "{:<10} {:>8} {:>8} {:>10} {:>10} {:>12.3} {:>12.3}\n",
                w.label,
                w.tasks,
                w.steals,
                w.steal_failures,
                w.queue_hwm,
                w.busy_ns as f64 / 1e6,
                w.idle_ns as f64 / 1e6
            ));
        }
        out
    }

    /// Converts the report to a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let n = |v: u64| JsonValue::Num(v as f64);
        JsonValue::Obj(vec![
            ("threads".into(), n(self.threads)),
            (
                "workers".into(),
                JsonValue::Arr(
                    self.workers
                        .iter()
                        .map(|w| {
                            JsonValue::Obj(vec![
                                ("label".into(), JsonValue::Str(w.label.clone())),
                                ("tasks".into(), n(w.tasks)),
                                ("steals".into(), n(w.steals)),
                                ("steal_failures".into(), n(w.steal_failures)),
                                ("queue_hwm".into(), n(w.queue_hwm)),
                                ("busy_ns".into(), n(w.busy_ns)),
                                ("idle_ns".into(), n(w.idle_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Per-stage durations and funnel counts for one pipeline run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelineReport {
    /// Stages in execution order.
    pub stages: Vec<StageReport>,
    /// The data funnel.
    pub funnel: FunnelCounts,
    /// Scheduler telemetry, cumulative since the pool was created. `None`
    /// when the producer did not sample its pool.
    pub pool: Option<PoolReport>,
}

impl PipelineReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a serial stage (CPU == wall), replacing a same-named entry if
    /// the stage re-ran.
    pub fn push_stage(
        &mut self,
        name: &'static str,
        duration_ns: u64,
        items_in: Option<u64>,
        items_out: Option<u64>,
    ) {
        self.push_stage_cpu(name, duration_ns, None, items_in, items_out);
    }

    /// Adds a stage with distinct wall-clock and summed-CPU durations (a
    /// stage that ran across pool workers), replacing a same-named entry.
    pub fn push_stage_cpu(
        &mut self,
        name: &'static str,
        duration_ns: u64,
        cpu_ns: Option<u64>,
        items_in: Option<u64>,
        items_out: Option<u64>,
    ) {
        let rec = StageReport {
            name,
            duration_ns,
            cpu_ns,
            items_in,
            items_out,
        };
        match self.stages.iter_mut().find(|s| s.name == name) {
            Some(slot) => *slot = rec,
            None => self.stages.push(rec),
        }
    }

    /// Looks up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Total duration across recorded stages, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.duration_ns).sum()
    }

    /// Checks the funnel invariants, returning a message per violation.
    /// An empty result means the run was structurally sound.
    pub fn check_funnel(&self) -> Vec<String> {
        let f = &self.funnel;
        let mut errs = Vec::new();
        let mut le = |label: &str, a: u64, b: u64| {
            if a > b {
                errs.push(format!("{label}: {a} > {b}"));
            }
        };
        le(
            "filtered_points <= raw_points",
            f.filtered_points,
            f.raw_points,
        );
        le(
            "stay_points <= filtered_points",
            f.stay_points,
            f.filtered_points,
        );
        le("clusters <= stay_points", f.clusters, f.stay_points);
        le(
            "clusters <= candidates_retrieved",
            f.clusters.min(1),
            f.candidates_retrieved.min(1),
        );
        le(
            "samples_labelled <= addresses_sampled",
            f.samples_labelled,
            f.addresses_sampled,
        );
        errs
    }

    /// Renders the report as a human-readable table. The `cpu (ms)` column
    /// shows summed per-worker time for stages that ran across the pool
    /// (`-` for serial stages, where CPU equals the wall clock).
    pub fn render_table(&self) -> String {
        let mut out = String::from("== pipeline report ==\n");
        out.push_str(&format!(
            "{:<26} {:>14} {:>12} {:>12} {:>12}\n",
            "stage", "wall (ms)", "cpu (ms)", "items in", "items out"
        ));
        for s in &self.stages {
            let fmt_opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
            let fmt_cpu = |v: Option<u64>| {
                v.map_or_else(|| "-".to_string(), |v| format!("{:.3}", v as f64 / 1e6))
            };
            out.push_str(&format!(
                "{:<26} {:>14.3} {:>12} {:>12} {:>12}\n",
                s.name,
                s.duration_ns as f64 / 1e6,
                fmt_cpu(s.cpu_ns),
                fmt_opt(s.items_in),
                fmt_opt(s.items_out)
            ));
        }
        let f = &self.funnel;
        out.push_str(&format!(
            "funnel: raw {} -> filtered {} -> stays {} -> clusters {} -> candidates {} -> labelled {}\n",
            f.raw_points,
            f.filtered_points,
            f.stay_points,
            f.clusters,
            f.candidates_retrieved,
            f.samples_labelled
        ));
        if let Some(pool) = &self.pool {
            out.push_str(&pool.render_table());
        }
        out
    }

    /// Converts the report to a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let f = &self.funnel;
        let mut obj = vec![
            (
                "stages".into(),
                JsonValue::Arr(
                    self.stages
                        .iter()
                        .map(|s| {
                            JsonValue::Obj(vec![
                                ("name".into(), JsonValue::Str(s.name.to_string())),
                                ("duration_ns".into(), JsonValue::Num(s.duration_ns as f64)),
                                (
                                    "cpu_ns".into(),
                                    s.cpu_ns
                                        .map_or(JsonValue::Null, |v| JsonValue::Num(v as f64)),
                                ),
                                (
                                    "items_in".into(),
                                    s.items_in
                                        .map_or(JsonValue::Null, |v| JsonValue::Num(v as f64)),
                                ),
                                (
                                    "items_out".into(),
                                    s.items_out
                                        .map_or(JsonValue::Null, |v| JsonValue::Num(v as f64)),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "funnel".into(),
                JsonValue::Obj(vec![
                    ("raw_points".into(), JsonValue::Num(f.raw_points as f64)),
                    (
                        "filtered_points".into(),
                        JsonValue::Num(f.filtered_points as f64),
                    ),
                    ("stay_points".into(), JsonValue::Num(f.stay_points as f64)),
                    ("clusters".into(), JsonValue::Num(f.clusters as f64)),
                    (
                        "candidates_retrieved".into(),
                        JsonValue::Num(f.candidates_retrieved as f64),
                    ),
                    (
                        "addresses_sampled".into(),
                        JsonValue::Num(f.addresses_sampled as f64),
                    ),
                    (
                        "samples_labelled".into(),
                        JsonValue::Num(f.samples_labelled as f64),
                    ),
                ]),
            ),
        ];
        if let Some(pool) = &self.pool {
            obj.push(("pool".into(), pool.to_json()));
        }
        JsonValue::Obj(obj)
    }
}

/// Per-ingest summary of one `Engine::ingest` call: what arrived, what the
/// candidate pool did, how much of the address space was invalidated, and
/// where the time went. Complements the cumulative [`PipelineReport`] the
/// engine also maintains.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Day index of the ingested batch (0 for a full-batch ingest).
    pub day: u32,
    /// Trips accepted this ingest.
    pub trips: u64,
    /// Waybills accepted this ingest.
    pub waybills: u64,
    /// Trips rejected (duplicate trip ids).
    pub rejected_trips: u64,
    /// Waybills rejected (unknown trip or out-of-range address).
    pub rejected_waybills: u64,
    /// Stay points extracted from the batch's trips.
    pub new_stays: u64,
    /// Candidates created by this ingest.
    pub clusters_added: u64,
    /// Candidates removed (absorbed by re-clustering) this ingest.
    pub clusters_removed: u64,
    /// Candidate pool size after the ingest.
    pub pool_size: u64,
    /// Addresses whose candidate sets or features were recomputed.
    pub dirty_addresses: u64,
    /// Total addresses known to the engine.
    pub total_addresses: u64,
    /// Stay-point extraction (noise filter + detection) wall-clock time, ns.
    pub extraction_ns: u64,
    /// Stay-point extraction CPU time summed across pool workers, ns. Equal
    /// to `extraction_ns` (minus scheduling overhead) when the pool is
    /// single-threaded; larger when extraction fanned out.
    pub extraction_cpu_ns: u64,
    /// Incremental clustering wall-clock time, ns.
    pub clustering_ns: u64,
    /// Clustering CPU time summed across pool workers (nearest-pair scans
    /// plus the serial merge loops of every re-clustered component), ns.
    /// Zero for grid mode, which has no merge phase.
    pub clustering_cpu_ns: u64,
    /// Candidate retrieval time (dirty addresses only), ns.
    pub retrieval_ns: u64,
    /// Feature recount time (dirty addresses only), ns.
    pub features_ns: u64,
    /// Artifact materialization (pool + samples) time, ns.
    pub materialize_ns: u64,
    /// Scheduler telemetry delta for this ingest (what the pool did while
    /// this batch was processed). `None` when the engine did not sample
    /// its pool.
    pub pool: Option<PoolReport>,
}

impl IngestReport {
    /// Total time across the recorded phases, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.extraction_ns
            + self.clustering_ns
            + self.retrieval_ns
            + self.features_ns
            + self.materialize_ns
    }

    /// Renders the report as one human-readable line (the CLI `replay`
    /// output format).
    pub fn render_line(&self) -> String {
        let mut line = format!(
            "day {:>3}: trips {:>4} waybills {:>5} stays {:>5} | pool {:>5} (+{} -{}) | dirty addresses {} / {} | {:.3} ms",
            self.day,
            self.trips,
            self.waybills,
            self.new_stays,
            self.pool_size,
            self.clusters_added,
            self.clusters_removed,
            self.dirty_addresses,
            self.total_addresses,
            self.total_ns() as f64 / 1e6,
        );
        if self.rejected_trips > 0 || self.rejected_waybills > 0 {
            line.push_str(&format!(
                " | rejected trips {} waybills {}",
                self.rejected_trips, self.rejected_waybills
            ));
        }
        line
    }

    /// Converts the report to a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let n = |v: u64| JsonValue::Num(v as f64);
        let mut obj = vec![
            ("day".into(), n(u64::from(self.day))),
            ("trips".into(), n(self.trips)),
            ("waybills".into(), n(self.waybills)),
            ("rejected_trips".into(), n(self.rejected_trips)),
            ("rejected_waybills".into(), n(self.rejected_waybills)),
            ("new_stays".into(), n(self.new_stays)),
            ("clusters_added".into(), n(self.clusters_added)),
            ("clusters_removed".into(), n(self.clusters_removed)),
            ("pool_size".into(), n(self.pool_size)),
            ("dirty_addresses".into(), n(self.dirty_addresses)),
            ("total_addresses".into(), n(self.total_addresses)),
            ("extraction_ns".into(), n(self.extraction_ns)),
            ("extraction_cpu_ns".into(), n(self.extraction_cpu_ns)),
            ("clustering_ns".into(), n(self.clustering_ns)),
            ("clustering_cpu_ns".into(), n(self.clustering_cpu_ns)),
            ("retrieval_ns".into(), n(self.retrieval_ns)),
            ("features_ns".into(), n(self.features_ns)),
            ("materialize_ns".into(), n(self.materialize_ns)),
            ("total_ns".into(), n(self.total_ns())),
        ];
        if let Some(pool) = &self.pool {
            obj.push(("pool".into(), pool.to_json()));
        }
        JsonValue::Obj(obj)
    }
}

/// One fleet-mode ingest: the per-shard [`IngestReport`]s of a single day
/// batch fanned out across a `ShardedEngine`'s station shards, plus an
/// aggregate view for operators who want the day as one line.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetIngestReport {
    /// Day index of the ingested batch.
    pub day: u32,
    /// `(shard index, that shard's report)`, ascending by shard index.
    pub shards: Vec<(u32, IngestReport)>,
}

impl FleetIngestReport {
    /// Sums the per-shard counters into one fleet-level [`IngestReport`].
    ///
    /// Counters and durations add across shards (shards ingest
    /// sequentially within a day, so summed wall time is the day's wall
    /// time); `total_addresses` takes the maximum because every shard
    /// holds the same address universe; the per-shard scheduler deltas are
    /// dropped (they overlap on the shared pool).
    pub fn aggregate(&self) -> IngestReport {
        let mut agg = IngestReport {
            day: self.day,
            ..IngestReport::default()
        };
        for (_, r) in &self.shards {
            agg.trips += r.trips;
            agg.waybills += r.waybills;
            agg.rejected_trips += r.rejected_trips;
            agg.rejected_waybills += r.rejected_waybills;
            agg.new_stays += r.new_stays;
            agg.clusters_added += r.clusters_added;
            agg.clusters_removed += r.clusters_removed;
            agg.pool_size += r.pool_size;
            agg.dirty_addresses += r.dirty_addresses;
            agg.total_addresses = agg.total_addresses.max(r.total_addresses);
            agg.extraction_ns += r.extraction_ns;
            agg.extraction_cpu_ns += r.extraction_cpu_ns;
            agg.clustering_ns += r.clustering_ns;
            agg.clustering_cpu_ns += r.clustering_cpu_ns;
            agg.retrieval_ns += r.retrieval_ns;
            agg.features_ns += r.features_ns;
            agg.materialize_ns += r.materialize_ns;
        }
        agg
    }

    /// Renders the aggregate as one line, suffixed with the shard count
    /// (the CLI `replay --shards` output format).
    pub fn render_line(&self) -> String {
        format!(
            "{} | shards {}",
            self.aggregate().render_line(),
            self.shards.len()
        )
    }

    /// Converts the report to a JSON object: the aggregate's fields plus a
    /// `shards` array of per-shard reports.
    pub fn to_json(&self) -> JsonValue {
        let JsonValue::Obj(mut obj) = self.aggregate().to_json() else {
            unreachable!("IngestReport::to_json returns an object");
        };
        obj.push((
            "shards".into(),
            JsonValue::Arr(self.shards.iter().map(|(_, r)| r.to_json()).collect()),
        ));
        JsonValue::Obj(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_report_aggregates_counters_and_keeps_shards() {
        let mk = |trips: u64, pool: u64| IngestReport {
            day: 3,
            trips,
            pool_size: pool,
            total_addresses: 100,
            extraction_ns: 10,
            ..IngestReport::default()
        };
        let fleet = FleetIngestReport {
            day: 3,
            shards: vec![(0, mk(4, 7)), (1, mk(6, 9))],
        };
        let agg = fleet.aggregate();
        assert_eq!(agg.day, 3);
        assert_eq!(agg.trips, 10);
        assert_eq!(agg.pool_size, 16);
        assert_eq!(agg.total_addresses, 100, "universe is shared, not summed");
        assert_eq!(agg.extraction_ns, 20);
        assert!(fleet.render_line().ends_with("| shards 2"));
        let JsonValue::Obj(obj) = fleet.to_json() else {
            panic!("object expected");
        };
        let shards = obj.iter().find(|(k, _)| k == "shards").unwrap();
        let JsonValue::Arr(arr) = &shards.1 else {
            panic!("array expected");
        };
        assert_eq!(arr.len(), 2);
    }

    #[test]
    fn push_stage_replaces_same_name() {
        let mut r = PipelineReport::new();
        r.push_stage(stage::CLUSTERING, 10, Some(5), Some(2));
        r.push_stage(stage::RETRIEVAL, 20, None, None);
        r.push_stage(stage::CLUSTERING, 30, Some(6), Some(3));
        assert_eq!(r.stages.len(), 2);
        assert_eq!(r.stage(stage::CLUSTERING).unwrap().duration_ns, 30);
        assert_eq!(r.total_ns(), 50);
    }

    #[test]
    fn funnel_invariants_catch_violations() {
        let mut r = PipelineReport::new();
        r.funnel = FunnelCounts {
            raw_points: 100,
            filtered_points: 90,
            stay_points: 10,
            clusters: 4,
            candidates_retrieved: 12,
            addresses_sampled: 6,
            samples_labelled: 6,
        };
        assert!(r.check_funnel().is_empty());

        r.funnel.filtered_points = 200;
        let errs = r.check_funnel();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("filtered_points"));
    }

    #[test]
    fn ingest_report_line_and_json_cover_the_dirty_counts() {
        let r = IngestReport {
            day: 3,
            trips: 12,
            waybills: 140,
            new_stays: 150,
            clusters_added: 4,
            clusters_removed: 1,
            pool_size: 90,
            dirty_addresses: 35,
            total_addresses: 120,
            extraction_ns: 1_000_000,
            clustering_ns: 2_000_000,
            retrieval_ns: 500_000,
            features_ns: 500_000,
            materialize_ns: 1_000_000,
            ..IngestReport::default()
        };
        assert_eq!(r.total_ns(), 5_000_000);
        let line = r.render_line();
        assert!(line.contains("day   3"));
        assert!(line.contains("dirty addresses 35 / 120"));
        assert!(!line.contains("rejected"), "no rejects, no noise: {line}");
        let json = r.to_json().render();
        assert!(json.contains("\"dirty_addresses\""));
        assert!(json.contains("\"pool_size\""));

        let rejected = IngestReport {
            rejected_waybills: 2,
            ..r
        };
        assert!(rejected
            .render_line()
            .contains("rejected trips 0 waybills 2"));
    }

    #[test]
    fn table_and_json_mention_all_stages() {
        let mut r = PipelineReport::new();
        r.push_stage(stage::NOISE_FILTER, 1_000_000, Some(10), Some(9));
        r.push_stage(stage::TRAINING, 2_000_000, None, None);
        let table = r.render_table();
        assert!(table.contains("noise-filter"));
        assert!(table.contains("training"));
        let json = r.to_json().render();
        assert!(json.contains("\"noise-filter\""));
        assert!(json.contains("\"funnel\""));
    }

    #[test]
    fn pool_report_embeds_renders_and_diffs() {
        let snap = |tasks: u64| PoolReport {
            threads: 2,
            workers: vec![
                PoolWorkerReport {
                    label: "worker-0".into(),
                    tasks,
                    steals: tasks / 2,
                    busy_ns: tasks * 1_000,
                    queue_hwm: 4,
                    ..PoolWorkerReport::default()
                },
                PoolWorkerReport {
                    label: "caller".into(),
                    tasks: 1,
                    ..PoolWorkerReport::default()
                },
            ],
        };
        let earlier = snap(10);
        let now = snap(16);
        let delta = now.minus(&earlier);
        assert_eq!(delta.total_tasks(), 6); // workers 3 + 3; the caller row's 1 − 1 cancels
        assert_eq!(delta.workers[0].steals, 3);
        assert_eq!(delta.workers[0].queue_hwm, 4, "hwm is not a delta");

        let mut pipeline = PipelineReport::new();
        pipeline.pool = Some(now.clone());
        let table = pipeline.render_table();
        assert!(table.contains("pool report"), "{table}");
        assert!(table.contains("worker-0"));
        assert!(pipeline.to_json().render().contains("\"pool\""));

        let ingest = IngestReport {
            pool: Some(delta),
            ..IngestReport::default()
        };
        assert!(ingest.to_json().render().contains("\"steal_failures\""));
    }

    #[test]
    fn parallel_stage_reports_wall_and_cpu_separately() {
        let mut r = PipelineReport::new();
        // 8 workers each burning 1 ms: wall ~1 ms, CPU ~8 ms.
        r.push_stage_cpu(
            stage::NOISE_FILTER,
            1_000_000,
            Some(8_000_000),
            Some(10),
            Some(9),
        );
        r.push_stage(stage::CLUSTERING, 3_000_000, Some(9), Some(4));
        let s = r.stage(stage::NOISE_FILTER).unwrap();
        assert_eq!(s.duration_ns, 1_000_000);
        assert_eq!(s.cpu_ns, Some(8_000_000));
        // total_ns stays a wall-clock sum — CPU never double-counts into it.
        assert_eq!(r.total_ns(), 4_000_000);

        let table = r.render_table();
        assert!(table.contains("cpu (ms)"));
        assert!(table.contains("8.000"), "cpu column rendered: {table}");
        let json = r.to_json().render();
        assert!(json.contains("\"cpu_ns\""));

        // Serial stages render a dash and export null.
        let serial = r.stage(stage::CLUSTERING).unwrap();
        assert_eq!(serial.cpu_ns, None);
    }
}
