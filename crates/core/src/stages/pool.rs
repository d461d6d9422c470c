//! Incremental candidate-pool state with stable cluster keys.
//!
//! Centroid-linkage clustering is order-*dependent*: merging each new
//! batch of stays into the previous batches' clusters drifts from
//! clustering everything at once (measurably: different cluster counts,
//! centroids tens of meters apart). The engine instead makes the pool a
//! deterministic function of the *accumulated stay-point set*:
//!
//! 1. stays are partitioned into radius-`D` connected components (an
//!    order-independent graph property, maintained by [`StayPointSet`]);
//! 2. each component is clustered independently with the same
//!    centroid-linkage `merge_weighted` over its member stays *in global
//!    stay-index order* — same members, same order, bitwise-same clusters
//!    whether the stays arrived in one batch or over many days;
//! 3. every cluster gets a *stable key*: the minimum member stay index.
//!    Keys survive ingests while a cluster's member set is unchanged, and
//!    dense [`CandidateId`](crate::CandidateId)s are materialized per
//!    ingest by sorting keys ascending.
//!
//! Only components containing new stays are re-clustered; clean components
//! keep their records verbatim. The keys whose member sets changed are the
//! [`PoolDelta`] downstream stages use to invalidate addresses.
//!
//! [`StayPointSet`]: super::StayPointSet

use super::staypoint_set::StayPointSet;
use crate::candidates::{Agg, LocationProfile};
use crate::pipeline::PoolMethod;
use dlinfma_cluster::{merge_weighted_pooled_stats, MergeStats, WeightedPoint};
use dlinfma_detcol::{OrdMap, OrdSet};
use dlinfma_geo::Point;
use dlinfma_pool::Pool;
use dlinfma_snap::{Dec, Enc, SnapError};

/// What one pool update changed: the raw material for dirty-address
/// tracking and the ingest report's pool delta.
#[derive(Debug, Clone, Default)]
pub struct PoolDelta {
    /// Keys whose member set changed: removed keys, added keys, and keys
    /// that survived with a different member set.
    pub changed_keys: Vec<usize>,
    /// Clusters created by the update.
    pub added: u64,
    /// Clusters removed (absorbed or re-cut) by the update.
    pub removed: u64,
    /// Summed merge instrumentation across the re-clustered components
    /// (zero for grid mode, which has no merge phase). Feeds the
    /// clustering stage's CPU attribution in the pipeline report.
    pub cluster_stats: MergeStats,
}

/// One cluster record: stable key, centroid, members, profile aggregate.
#[derive(Debug, Clone)]
struct ClusterRec {
    key: usize,
    centroid: Point,
    /// Member stay indices, sorted ascending (for change detection).
    members: Vec<usize>,
    agg: Agg,
}

/// Incremental pool state for both clustering back-ends.
#[derive(Debug)]
pub struct PoolState {
    method: PoolMethod,
    /// Clustering distance `D`; doubles as the grid cell size.
    distance: f64,
    /// Hierarchical mode: cluster records per component, keyed by the
    /// component key (minimum stay index in the component).
    components: OrdMap<usize, Vec<ClusterRec>>,
    /// Grid mode: one record per occupied `(station, cell)` — cells are
    /// station-scoped so grid pools shard exactly like hierarchical ones.
    cells: OrdMap<(u32, i64, i64), ClusterRec>,
    /// Current cluster key of every stay, parallel to the stay set.
    assign: Vec<usize>,
}

impl PoolState {
    /// An empty pool for the given method and clustering distance.
    pub fn new(method: PoolMethod, distance: f64) -> Self {
        Self {
            method,
            distance,
            components: OrdMap::new(),
            cells: OrdMap::new(),
            assign: Vec::new(),
        }
    }

    /// Number of clusters currently in the pool.
    pub fn len(&self) -> usize {
        match self.method {
            PoolMethod::Hierarchical => self.components.values().map(Vec::len).sum(),
            PoolMethod::Grid => self.cells.len(),
        }
    }

    /// True when the pool has no clusters.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current cluster key of stay `i`.
    pub fn key_of(&self, i: usize) -> usize {
        self.assign[i]
    }

    /// Incorporates the stays appended since the last update (global
    /// indices `new_start..`), re-clustering only the touched components on
    /// the shared pool.
    pub fn update(&mut self, stays: &mut StayPointSet, new_start: usize, pool: &Pool) -> PoolDelta {
        if stays.len() <= new_start {
            return PoolDelta::default();
        }
        match self.method {
            PoolMethod::Hierarchical => self.update_hierarchical(stays, new_start, pool),
            PoolMethod::Grid => self.update_grid(stays, new_start),
        }
    }

    fn update_hierarchical(
        &mut self,
        stays: &mut StayPointSet,
        new_start: usize,
        pool: &Pool,
    ) -> PoolDelta {
        let roots = stays.roots();
        let dirty_roots: OrdSet<usize> = roots[new_start..].iter().copied().collect();

        // Gather the members of every dirty component, ascending by
        // construction of the scan.
        let mut members_by_root: OrdMap<usize, Vec<usize>> = OrdMap::new();
        for (i, &r) in roots.iter().enumerate() {
            if dirty_roots.contains(&r) {
                members_by_root.entry(r).or_default().push(i);
            }
        }

        // Retire the records of dirty components: a component whose member
        // set changed contains at least one new stay, so its key (any of
        // its old members) resolves to a dirty root.
        let mut old: OrdMap<usize, Vec<usize>> = OrdMap::new();
        let dirty_comp_keys: Vec<usize> = self
            .components
            .keys()
            .copied()
            .filter(|&k| dirty_roots.contains(&roots[k]))
            .collect();
        for k in dirty_comp_keys {
            if let Some(recs) = self.components.remove(&k) {
                for rec in recs {
                    old.insert(rec.key, rec.members);
                }
            }
        }

        // Rebuild each dirty component from its raw member stays, in global
        // stay-index order — a pure function of the member set. Components
        // are independent, so the rebuilds fan out across the pool (and a
        // single huge component parallelizes its own nearest-pair scan via
        // the nested `merge_weighted_pooled` scope); the serial commit below
        // walks the results in component order, keeping the state identical
        // to a sequential rebuild.
        self.assign.resize(stays.len(), usize::MAX);
        let mut fresh: OrdMap<usize, Vec<usize>> = OrdMap::new();
        let mut comps: Vec<(usize, Vec<usize>)> = members_by_root
            .into_iter()
            .map(|(_, m)| (m[0], m))
            .collect();
        comps.sort_unstable_by_key(|(k, _)| *k);
        let distance = self.distance;
        let stays_ref: &StayPointSet = stays;
        let rebuilt: Vec<(usize, Vec<ClusterRec>, MergeStats)> =
            pool.par_map(&comps, |(comp_key, members)| {
                let items: Vec<WeightedPoint> = members
                    .iter()
                    .map(|&i| WeightedPoint::unit(stays_ref.rec(i).pos))
                    .collect();
                let (clusters, stats) = merge_weighted_pooled_stats(&items, distance, pool);
                let mut recs: Vec<ClusterRec> = Vec::with_capacity(clusters.len());
                for cluster in &clusters {
                    let mut agg: Option<Agg> = None;
                    for &m in &cluster.members {
                        let rec = stays_ref.rec(members[m]);
                        let part =
                            Agg::from_stay(rec.pos, rec.duration_s, rec.courier, rec.hour_bin);
                        match &mut agg {
                            Some(a) => a.merge_into(&part),
                            None => agg = Some(part),
                        }
                    }
                    let Some(mut agg) = agg else { continue };
                    agg.pos = cluster.centroid;
                    let mut global: Vec<usize> =
                        cluster.members.iter().map(|&m| members[m]).collect();
                    global.sort_unstable();
                    recs.push(ClusterRec {
                        key: global[0],
                        centroid: cluster.centroid,
                        members: global,
                        agg,
                    });
                }
                (*comp_key, recs, stats)
            });
        let mut cluster_stats = MergeStats::default();
        for (comp_key, recs, stats) in rebuilt {
            cluster_stats.accumulate(&stats);
            for rec in &recs {
                for &g in &rec.members {
                    self.assign[g] = rec.key;
                }
                fresh.insert(rec.key, rec.members.clone());
            }
            self.components.insert(comp_key, recs);
        }

        let mut delta = Self::delta_from(old, fresh);
        delta.cluster_stats = cluster_stats;
        delta
    }

    fn update_grid(&mut self, stays: &mut StayPointSet, new_start: usize) -> PoolDelta {
        self.assign.resize(stays.len(), usize::MAX);
        let mut changed: Vec<usize> = Vec::new();
        let mut added = 0u64;
        for i in new_start..stays.len() {
            let rec = stays.rec(i);
            let cell = (
                rec.station.0,
                (rec.pos.x / self.distance).floor() as i64,
                (rec.pos.y / self.distance).floor() as i64,
            );
            let part = Agg::from_stay(rec.pos, rec.duration_s, rec.courier, rec.hour_bin);
            let entry = self.cells.entry(cell).or_insert_with(|| {
                added += 1;
                ClusterRec {
                    key: i,
                    centroid: Point::ZERO,
                    members: Vec::new(),
                    agg: Agg {
                        pos: Point::ZERO,
                        weight: 0,
                        total_duration_s: 0.0,
                        couriers: OrdSet::new(),
                        hist: [0; crate::candidates::TIME_BINS],
                    },
                }
            });
            if entry.agg.weight == 0 {
                entry.agg = part;
            } else {
                entry.agg.merge_into(&part);
            }
            // Running centroid sums accumulate in global stay order, so the
            // streamed sums replay the exact additions of a one-shot build.
            entry.centroid = Point::new(entry.centroid.x + rec.pos.x, entry.centroid.y + rec.pos.y);
            entry.members.push(i);
            self.assign[i] = entry.key;
            if changed.last() != Some(&entry.key) {
                changed.push(entry.key);
            }
        }
        changed.sort_unstable();
        changed.dedup();
        PoolDelta {
            changed_keys: changed,
            added,
            removed: 0,
            cluster_stats: MergeStats::default(),
        }
    }

    fn delta_from(old: OrdMap<usize, Vec<usize>>, fresh: OrdMap<usize, Vec<usize>>) -> PoolDelta {
        let mut changed: Vec<usize> = Vec::new();
        let mut added = 0u64;
        let mut removed = 0u64;
        for (k, members) in &fresh {
            match old.get(k) {
                None => {
                    added += 1;
                    changed.push(*k);
                }
                Some(prev) if prev != members => changed.push(*k),
                Some(_) => {}
            }
        }
        for k in old.keys() {
            if !fresh.contains_key(k) {
                removed += 1;
                changed.push(*k);
            }
        }
        changed.sort_unstable();
        PoolDelta {
            changed_keys: changed,
            added,
            removed,
            cluster_stats: MergeStats::default(),
        }
    }

    /// Encodes the pool state for a snapshot. Components, cells and assign
    /// entries are written in their deterministic (`OrdMap` / index) order,
    /// so the bytes are a pure function of the staged state.
    pub(crate) fn snap_encode(&self, e: &mut Enc) {
        e.u8(match self.method {
            PoolMethod::Hierarchical => 0,
            PoolMethod::Grid => 1,
        });
        e.f64(self.distance);
        e.usize(self.components.len());
        for (k, recs) in &self.components {
            e.usize(*k);
            e.usize(recs.len());
            for rec in recs {
                Self::encode_rec(e, rec);
            }
        }
        e.usize(self.cells.len());
        for (&(station, cx, cy), rec) in &self.cells {
            e.u32(station);
            e.i64(cx);
            e.i64(cy);
            Self::encode_rec(e, rec);
        }
        e.usize(self.assign.len());
        for &a in &self.assign {
            e.usize(a);
        }
    }

    fn encode_rec(e: &mut Enc, rec: &ClusterRec) {
        e.usize(rec.key);
        e.f64(rec.centroid.x);
        e.f64(rec.centroid.y);
        e.usize(rec.members.len());
        for &m in &rec.members {
            e.usize(m);
        }
        e.f64(rec.agg.pos.x);
        e.f64(rec.agg.pos.y);
        e.usize(rec.agg.weight);
        e.f64(rec.agg.total_duration_s);
        e.usize(rec.agg.couriers.len());
        for &c in &rec.agg.couriers {
            e.u32(c);
        }
        for &h in &rec.agg.hist {
            e.u32(h);
        }
    }

    fn decode_rec(d: &mut Dec, n_stays: usize) -> Result<ClusterRec, SnapError> {
        let key = d.usize()?;
        if key >= n_stays {
            return Err(SnapError::Malformed {
                what: "cluster key out of range",
            });
        }
        let centroid = Point::new(d.f64()?, d.f64()?);
        let n_members = d.seq_len(8)?;
        let mut members: Vec<usize> = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            let m = d.usize()?;
            if m >= n_stays {
                return Err(SnapError::Malformed {
                    what: "cluster member out of range",
                });
            }
            members.push(m);
        }
        let pos = Point::new(d.f64()?, d.f64()?);
        let weight = d.usize()?;
        let total_duration_s = d.f64()?;
        let n_couriers = d.seq_len(4)?;
        let mut couriers = OrdSet::new();
        for _ in 0..n_couriers {
            couriers.insert(d.u32()?);
        }
        let mut hist = [0u32; crate::candidates::TIME_BINS];
        for h in &mut hist {
            *h = d.u32()?;
        }
        Ok(ClusterRec {
            key,
            centroid,
            members,
            agg: Agg {
                pos,
                weight,
                total_duration_s,
                couriers,
                hist,
            },
        })
    }

    /// Decodes a snapshot produced by [`PoolState::snap_encode`]. `n_stays`
    /// bounds every stay index in the state (cluster keys are indexed into
    /// the stay set's root array on the next ingest, so out-of-range keys
    /// must be rejected here). Never panics on hostile bytes.
    pub(crate) fn snap_decode(d: &mut Dec, n_stays: usize) -> Result<Self, SnapError> {
        let method = match d.u8()? {
            0 => PoolMethod::Hierarchical,
            1 => PoolMethod::Grid,
            _ => {
                return Err(SnapError::Malformed {
                    what: "unknown pool method byte",
                })
            }
        };
        let distance = d.f64()?;
        if !(distance.is_finite() && distance > 0.0) {
            return Err(SnapError::Malformed {
                what: "pool distance must be positive and finite",
            });
        }
        let n_components = d.seq_len(16)?;
        let mut components: OrdMap<usize, Vec<ClusterRec>> = OrdMap::new();
        for _ in 0..n_components {
            let comp_key = d.usize()?;
            if comp_key >= n_stays {
                return Err(SnapError::Malformed {
                    what: "component key out of range",
                });
            }
            let n_recs = d.seq_len(8)?;
            let mut recs: Vec<ClusterRec> = Vec::with_capacity(n_recs);
            for _ in 0..n_recs {
                recs.push(Self::decode_rec(d, n_stays)?);
            }
            components.insert(comp_key, recs);
        }
        let n_cells = d.seq_len(20)?;
        let mut cells: OrdMap<(u32, i64, i64), ClusterRec> = OrdMap::new();
        for _ in 0..n_cells {
            let station = d.u32()?;
            let cx = d.i64()?;
            let cy = d.i64()?;
            cells.insert((station, cx, cy), Self::decode_rec(d, n_stays)?);
        }
        let n_assign = d.seq_len(8)?;
        if n_assign != n_stays {
            return Err(SnapError::Malformed {
                what: "assignment table length does not match the stay set",
            });
        }
        let mut assign: Vec<usize> = Vec::with_capacity(n_assign);
        for _ in 0..n_assign {
            assign.push(d.usize()?);
        }
        Ok(Self {
            method,
            distance,
            components,
            cells,
            assign,
        })
    }

    /// All clusters as `(key, centroid, profile)`, unordered. Grid-mode
    /// centroids are finalized from the running sums here.
    pub fn snapshot(&self) -> Vec<(usize, Point, LocationProfile)> {
        match self.method {
            PoolMethod::Hierarchical => self
                .components
                .values()
                .flatten()
                .map(|r| (r.key, r.centroid, r.agg.profile()))
                .collect(),
            PoolMethod::Grid => self
                .cells
                .values()
                .map(|r| {
                    let n = r.members.len().max(1) as f64;
                    (
                        r.key,
                        Point::new(r.centroid.x / n, r.centroid.y / n),
                        r.agg.profile(),
                    )
                })
                .collect(),
        }
    }
}
