//! LocMatcher: the attention-based address-location matching model
//! (Section IV-B, Figure 8).
//!
//! For each address, every retrieved candidate's time distribution passes
//! through a dense layer with `r` units; the result is concatenated with the
//! matching and remaining profile features and projected to a `z`-dimensional
//! representation. A transformer encoder (`N` layers, multi-head
//! self-attention, position-wise feed-forward, residual + layer norm) models
//! correlations *among all candidates jointly* — the paper's key departure
//! from per-candidate classification and pairwise ranking. Finally an
//! additive attention (Equation 3) scores each candidate against an address
//! context vector (POI-category embedding + number of deliveries), and a
//! softmax (Equation 4) yields the selection distribution, trained with
//! cross-entropy against the candidate nearest the ground-truth location.

use crate::features::{AddressSample, CandidateFeatures, FeatureConfig};
use dlinfma_nn::layers::{Activation, Dense, Embedding, TransformerEncoder};
use dlinfma_nn::{Adam, Graph, ParamId, ParamStore, StepDecay, Tensor, Var};
use dlinfma_pool::Pool;
use dlinfma_synth::N_POI_CATEGORIES;
use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

/// LocMatcher hyperparameters. `paper_defaults` reproduces Section V-B's
/// setting exactly; `fast` trades a few points of fidelity for much shorter
/// training, which the experiment drivers use at synthetic-data scale.
#[derive(Debug, Clone, Copy)]
pub struct LocMatcherConfig {
    /// Dense units for the time-distribution embedding (paper: 3).
    pub r_time: usize,
    /// Candidate representation width (paper: 8).
    pub z: usize,
    /// Attention scorer width in Equation 3 (paper: 32).
    pub p: usize,
    /// Transformer encoder layers (paper: 3).
    pub n_layers: usize,
    /// Attention heads per layer (paper: 2).
    pub heads: usize,
    /// Feed-forward sublayer width (paper: 32).
    pub ff: usize,
    /// Dropout rate (paper: 0.1).
    pub dropout: f32,
    /// POI category embedding dimension (paper: 3).
    pub poi_embed_dim: usize,
    /// Include the `U c` address-context term of Equation 3; switching it
    /// off is the DLInfMA-nA ablation.
    pub use_address_context: bool,
    /// Which candidate features are fed in (ablations).
    pub features: FeatureConfig,
    /// Adam base learning rate (paper: 1e-4).
    pub lr: f32,
    /// Mini-batch size (paper: 16).
    pub batch_size: usize,
    /// Hard cap on training epochs.
    pub max_epochs: usize,
    /// Early-stopping patience (epochs without validation improvement).
    pub patience: usize,
    /// Learning-rate schedule (paper: halve every 5 epochs).
    pub lr_decay: StepDecay,
    /// RNG seed for initialization, shuffling and dropout.
    pub seed: u64,
}

impl LocMatcherConfig {
    /// The paper's exact hyperparameters.
    pub fn paper_defaults() -> Self {
        Self {
            r_time: 3,
            z: 8,
            p: 32,
            n_layers: 3,
            heads: 2,
            ff: 32,
            dropout: 0.1,
            poi_embed_dim: 3,
            use_address_context: true,
            features: FeatureConfig::default(),
            lr: 1e-4,
            batch_size: 16,
            max_epochs: 100,
            patience: 5,
            lr_decay: StepDecay::paper_defaults(),
            seed: 0,
        }
    }

    /// The paper's architecture re-tuned for synthetic-scale data: the
    /// candidate representation is widened to 16 (the 20-month JD datasets
    /// support z = 8; a few simulated weeks need the extra width), with a
    /// higher learning rate and longer patience. Used by the experiment
    /// drivers; see EXPERIMENTS.md.
    pub fn fast() -> Self {
        Self {
            z: 16,
            lr: 3e-3,
            max_epochs: 60,
            patience: 10,
            ..Self::paper_defaults()
        }
    }

    fn input_dim(&self) -> usize {
        let scalars = CandidateFeatures::scalars_len(&self.features);
        if self.features.use_profile {
            scalars + self.r_time
        } else {
            scalars
        }
    }

    fn context_dim(&self) -> usize {
        self.poi_embed_dim + 1
    }
}

/// Training statistics returned by [`LocMatcher::train`].
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Epochs actually run (≤ `max_epochs`).
    pub epochs: usize,
    /// Best validation loss reached.
    pub best_val_loss: f32,
    /// Mean training loss per epoch.
    pub train_losses: Vec<f32>,
    /// Validation loss per epoch, parallel to `train_losses`.
    pub val_losses: Vec<f32>,
}

/// The fitted model; see the module docs for the architecture.
pub struct LocMatcher {
    cfg: LocMatcherConfig,
    store: ParamStore,
    time_dense: Option<Dense>,
    input_dense: Dense,
    encoder: TransformerEncoder,
    poi_embed: Embedding,
    w: ParamId,
    u: ParamId,
    b: ParamId,
    v: ParamId,
}

impl LocMatcher {
    /// Initializes an untrained model.
    pub fn new(cfg: LocMatcherConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let time_dense = cfg.features.use_profile.then(|| {
            Dense::new(
                &mut store,
                "time_dense",
                crate::candidates::TIME_BINS,
                cfg.r_time,
                Activation::Relu,
                &mut rng,
            )
        });
        let input_dense = Dense::new(
            &mut store,
            "input_dense",
            cfg.input_dim(),
            cfg.z,
            Activation::Relu,
            &mut rng,
        );
        let encoder = TransformerEncoder::new(
            &mut store,
            "encoder",
            cfg.n_layers,
            cfg.z,
            cfg.heads,
            cfg.ff,
            cfg.dropout,
            &mut rng,
        );
        let poi_embed = Embedding::new(
            &mut store,
            "poi_embed",
            N_POI_CATEGORIES,
            cfg.poi_embed_dim,
            &mut rng,
        );
        let w = store.register("score.w", Tensor::xavier(cfg.z, cfg.p, &mut rng));
        let u = store.register(
            "score.u",
            Tensor::xavier(cfg.context_dim(), cfg.p, &mut rng),
        );
        let b = store.register_zeros("score.b", vec![cfg.p]);
        let v = store.register("score.v", Tensor::xavier(cfg.p, 1, &mut rng));
        Self {
            cfg,
            store,
            time_dense,
            input_dense,
            encoder,
            poi_embed,
            w,
            u,
            b,
            v,
        }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &LocMatcherConfig {
        &self.cfg
    }

    /// Number of scalar weights in the model.
    pub fn num_weights(&self) -> usize {
        self.store.num_weights()
    }

    /// Builds the forward graph for one sample; returns the `[n]` logits.
    fn forward(
        &self,
        g: &mut Graph,
        sample: &AddressSample,
        training: bool,
        rng: &mut StdRng,
    ) -> Var {
        let n = sample.candidates.len();
        assert!(n > 0, "forward() needs at least one candidate");
        let fcfg = &self.cfg.features;

        // Per-candidate inputs.
        let scalars_flat: Vec<f32> = sample
            .features
            .iter()
            .flat_map(|f| f.scalars(fcfg))
            .collect();
        let scalars_dim = CandidateFeatures::scalars_len(fcfg);
        let scalars = g.constant(Tensor::new(vec![n, scalars_dim], scalars_flat));

        let inputs = if let Some(td) = &self.time_dense {
            let time_flat: Vec<f32> = sample
                .features
                .iter()
                .flat_map(|f| f.time_distribution.iter().map(|&x| x as f32))
                .collect();
            let time = g.constant(Tensor::new(
                vec![n, crate::candidates::TIME_BINS],
                time_flat,
            ));
            let time_emb = td.forward(g, &self.store, time);
            g.concat_cols(&[scalars, time_emb])
        } else {
            scalars
        };

        let x = self.input_dense.forward(g, &self.store, inputs);
        let z = self.encoder.forward(g, &self.store, x, training, rng);

        // Attention scoring (Equation 3): s = v^T tanh(Z W + U c + b).
        let w = g.param(self.w, self.store.value(self.w).clone());
        let b = g.param(self.b, self.store.value(self.b).clone());
        let v = g.param(self.v, self.store.value(self.v).clone());
        let zw = g.matmul(z, w);
        let pre = if self.cfg.use_address_context {
            let u = g.param(self.u, self.store.value(self.u).clone());
            let poi = self
                .poi_embed
                .forward(g, &self.store, sample.poi_category as usize);
            let nd = g.constant(Tensor::vector(&[(sample.n_deliveries as f32).ln_1p()]));
            let ctx = g.concat1d(&[poi, nd]);
            let ctx_row = g.reshape(ctx, vec![1, self.cfg.context_dim()]);
            let uc = g.matmul(ctx_row, u);
            let uc_flat = g.reshape(uc, vec![self.cfg.p]);
            let zw_uc = g.add_bias_rows(zw, uc_flat);
            g.add_bias_rows(zw_uc, b)
        } else {
            g.add_bias_rows(zw, b)
        };
        let t = g.tanh(pre);
        let s = g.matmul(t, v);
        g.reshape(s, vec![n])
    }

    /// Trains with Adam + step decay and early stopping on validation loss,
    /// restoring the best-epoch weights. Samples without a label or without
    /// candidates are skipped. Runs on an inline (single-worker) pool; see
    /// [`LocMatcher::train_pooled`] for the parallel path.
    pub fn train(&mut self, train: &[AddressSample], val: &[AddressSample]) -> TrainReport {
        self.train_pooled(train, val, &Pool::sequential())
    }

    /// [`LocMatcher::train`] running the forward/backward passes of each
    /// mini-batch data-parallel on `pool`. Training is bit-for-bit
    /// reproducible at any worker count: each sample draws a private RNG
    /// seed *sequentially* from the epoch RNG before the batch fans out (so
    /// dropout never depends on scheduling), and losses and gradients are
    /// accumulated on the caller in batch order, giving the same float
    /// additions as a serial run. Emits a `training` span when the global
    /// collector is enabled.
    pub fn train_pooled(
        &mut self,
        train: &[AddressSample],
        val: &[AddressSample],
        pool: &Pool,
    ) -> TrainReport {
        let _span = dlinfma_obs::span(dlinfma_obs::stage::TRAINING);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed.wrapping_add(1));
        let usable: Vec<(&AddressSample, usize)> = train
            .iter()
            .filter(|s| !s.candidates.is_empty())
            .filter_map(|s| Some((s, s.label?)))
            .collect();
        let mut adam = Adam::new(self.cfg.lr);
        let mut best_val = f32::INFINITY;
        let mut best_snapshot = self.store.snapshot();
        let mut since_best = 0usize;
        let mut train_losses = Vec::new();
        let mut val_losses = Vec::new();
        let mut epochs = 0;

        for epoch in 0..self.cfg.max_epochs {
            epochs = epoch + 1;
            let mut order: Vec<usize> = (0..usable.len()).collect();
            order.shuffle(&mut rng);
            let lr_scale = self.cfg.lr_decay.scale_at(epoch);
            let mut epoch_loss = 0.0f32;
            let mut n_samples = 0usize;
            for batch in order.chunks(self.cfg.batch_size) {
                self.store.zero_grads();
                let seeded: Vec<(usize, u64)> =
                    batch.iter().map(|&i| (i, rng.gen::<u64>())).collect();
                let this = &*self;
                let usable = &usable;
                let results: Vec<(f32, Vec<(ParamId, Tensor)>)> =
                    pool.par_map(&seeded, |&(i, seed)| {
                        let mut srng = StdRng::seed_from_u64(seed);
                        let (sample, target) = usable[i];
                        let mut g = Graph::new();
                        let logits = this.forward(&mut g, sample, true, &mut srng);
                        let loss = g.softmax_cross_entropy_1d(logits, target);
                        let loss_val = g.value(loss).item();
                        let grads = g.backward(loss);
                        (loss_val, g.take_param_grads(grads))
                    });
                for (loss_val, grads) in results {
                    epoch_loss += loss_val;
                    n_samples += 1;
                    for (pid, grad) in grads {
                        self.store.accumulate_grad(pid, &grad);
                    }
                }
                adam.step(&mut self.store, batch.len(), lr_scale);
            }
            let train_loss = epoch_loss / n_samples.max(1) as f32;
            train_losses.push(train_loss);

            let val_loss = self.mean_loss_pooled(val, pool);
            val_losses.push(val_loss);
            if val_loss < best_val - 1e-5 {
                best_val = val_loss;
                best_snapshot = self.store.snapshot();
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= self.cfg.patience {
                    break;
                }
            }
        }
        self.store.restore(&best_snapshot);
        TrainReport {
            epochs,
            best_val_loss: best_val,
            train_losses,
            val_losses,
        }
    }

    /// Grid-search training, mirroring the paper's "grid search to find the
    /// best hyperparameters for each method": trains one model per grid
    /// point and keeps the one with the lowest mean validation error (mean
    /// distance from the selected candidate to the ground truth over
    /// labelled validation samples). Each grid point trains data-parallel
    /// on `pool`; the grid itself is walked serially, so the selected model
    /// is independent of worker count.
    pub fn fit_best_pooled(
        grid: &[LocMatcherConfig],
        train: &[AddressSample],
        val: &[AddressSample],
        pool: &Pool,
    ) -> LocMatcher {
        assert!(!grid.is_empty(), "grid must be non-empty");
        let mut best: Option<(f64, LocMatcher)> = None;
        for &cfg in grid {
            let mut model = LocMatcher::new(cfg);
            model.train_pooled(train, val, pool);
            let score = model.mean_val_error(val);
            if best.as_ref().is_none_or(|(b, _)| score < *b) {
                best = Some((score, model));
            }
        }
        // lint: allow(L2, the assert above guarantees at least one iteration)
        best.expect("grid is non-empty").1
    }

    /// The small grid the synthetic-scale experiments search over (encoder
    /// depth x learning rate x initialization seed), derived from a base
    /// configuration.
    pub fn experiment_grid(base: LocMatcherConfig) -> Vec<LocMatcherConfig> {
        if cfg!(debug_assertions) {
            // Debug builds are the test suite; keep them fast with a
            // two-point grid. Release experiments search the full grid.
            return vec![base, LocMatcherConfig { lr: 1e-2, ..base }];
        }
        let mut grid = Vec::new();
        for n_layers in [2usize, 3] {
            for lr in [3e-3f32, 1e-2] {
                grid.push(LocMatcherConfig {
                    n_layers,
                    lr,
                    ..base
                });
            }
        }
        grid
    }

    /// Mean distance (m) from the selected candidate to the ground truth
    /// over labelled samples; `f64::INFINITY` when none are labelled.
    pub fn mean_val_error(&self, samples: &[AddressSample]) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for s in samples {
            let Some(d) = &s.truth_distances else {
                continue;
            };
            if s.candidates.is_empty() {
                continue;
            }
            let Some(idx) = self.predict(s) else { continue };
            total += d[idx];
            n += 1;
        }
        if n == 0 {
            f64::INFINITY
        } else {
            total / n as f64
        }
    }

    /// Exports the trained weights as `(name, shape, data)` triples; pair
    /// with [`LocMatcher::from_weights`] and the model's configuration to
    /// persist a trained model.
    pub fn export_weights(&self) -> Vec<(String, Vec<usize>, Vec<f32>)> {
        self.store.export_weights()
    }

    /// Rebuilds a model from its configuration and a weight dump produced
    /// by [`LocMatcher::export_weights`].
    ///
    /// # Errors
    /// Returns a description of the first mismatch when the dump does not
    /// fit the configuration's parameter layout.
    pub fn from_weights(
        cfg: LocMatcherConfig,
        weights: &[(String, Vec<usize>, Vec<f32>)],
    ) -> Result<Self, String> {
        let mut model = LocMatcher::new(cfg);
        model.store.import_weights(weights)?;
        Ok(model)
    }

    /// Mean cross-entropy over labelled samples (no dropout).
    pub fn mean_loss(&self, samples: &[AddressSample]) -> f32 {
        self.mean_loss_pooled(samples, &Pool::sequential())
    }

    /// [`LocMatcher::mean_loss`] evaluating samples data-parallel on
    /// `pool`; the losses are summed in sample order, so the result is
    /// bitwise-identical at any worker count.
    pub fn mean_loss_pooled(&self, samples: &[AddressSample], pool: &Pool) -> f32 {
        let losses: Vec<Option<f32>> = pool.par_map(samples, |s| {
            let target = s.label?;
            if s.candidates.is_empty() {
                return None;
            }
            let mut rng = StdRng::seed_from_u64(0);
            let mut g = Graph::new();
            let logits = self.forward(&mut g, s, false, &mut rng);
            let loss = g.softmax_cross_entropy_1d(logits, target);
            Some(g.value(loss).item())
        });
        let mut total = 0.0f32;
        let mut n = 0usize;
        for loss in losses.into_iter().flatten() {
            total += loss;
            n += 1;
        }
        if n == 0 {
            f32::INFINITY
        } else {
            total / n as f32
        }
    }

    /// Selection probabilities over the sample's candidates (Equation 4).
    pub fn predict_proba(&self, sample: &AddressSample) -> Vec<f32> {
        if sample.candidates.is_empty() {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(0);
        let mut g = Graph::new();
        let logits = self.forward(&mut g, sample, false, &mut rng);
        let sm = g.value(logits);
        let max = sm.data().iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = sm.data().iter().map(|&x| (x - max).exp()).collect();
        let denom: f32 = exps.iter().sum();
        exps.into_iter().map(|e| e / denom).collect()
    }

    /// Index (into `sample.candidates`) of the predicted delivery location,
    /// or `None` when the sample has no candidates.
    pub fn predict(&self, sample: &AddressSample) -> Option<usize> {
        let probs = self.predict_proba(sample);
        probs
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{CandidateId, TIME_BINS};
    use dlinfma_geo::Point;
    use rand::Rng;

    /// Builds a synthetic sample where the correct candidate is the one with
    /// the highest trip coverage and lowest commonality.
    fn toy_sample(rng: &mut StdRng, n: usize) -> AddressSample {
        let target = rng.gen_range(0..n);
        let features: Vec<CandidateFeatures> = (0..n)
            .map(|i| {
                let good = i == target;
                let mut td = [0.0f64; TIME_BINS];
                td[10] = 0.6;
                td[15] = 0.4;
                CandidateFeatures {
                    trip_coverage: if good {
                        rng.gen_range(0.8..1.0)
                    } else {
                        rng.gen_range(0.0..0.6)
                    },
                    location_commonality: if good {
                        rng.gen_range(0.0..0.2)
                    } else {
                        rng.gen_range(0.1..0.9)
                    },
                    distance_m: if good {
                        rng.gen_range(10.0..60.0)
                    } else {
                        rng.gen_range(40.0..400.0)
                    },
                    avg_duration_s: rng.gen_range(40.0..200.0),
                    n_couriers: rng.gen_range(1.0..4.0),
                    n_stays: rng.gen_range(1.0..20.0),
                    time_distribution: td,
                }
            })
            .collect();
        AddressSample {
            address: dlinfma_synth::AddressId(0),
            station: dlinfma_synth::StationId(0),
            candidates: (0..n).map(|i| CandidateId(i as u32)).collect(),
            features,
            n_deliveries: rng.gen_range(1..10),
            poi_category: rng.gen_range(0..N_POI_CATEGORIES as u8),
            geocode: Point::ZERO,
            label: Some(target),
            truth_distances: Some(
                (0..n)
                    .map(|i| if i == target { 5.0 } else { 80.0 })
                    .collect(),
            ),
        }
    }

    #[test]
    fn untrained_model_produces_valid_distribution() {
        let mut rng = StdRng::seed_from_u64(0);
        let model = LocMatcher::new(LocMatcherConfig::fast());
        let s = toy_sample(&mut rng, 7);
        let probs = model.predict_proba(&s);
        assert_eq!(probs.len(), 7);
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(probs.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn learns_toy_selection_task() {
        let mut rng = StdRng::seed_from_u64(1);
        let train: Vec<AddressSample> = (0..120)
            .map(|_| {
                let n = rng.gen_range(3..10);
                toy_sample(&mut rng, n)
            })
            .collect();
        let val: Vec<AddressSample> = (0..30)
            .map(|_| {
                let n = rng.gen_range(3..10);
                toy_sample(&mut rng, n)
            })
            .collect();
        let mut cfg = LocMatcherConfig::fast();
        cfg.max_epochs = 20;
        let mut model = LocMatcher::new(cfg);
        let report = model.train(&train, &val);
        assert!(report.epochs > 0);
        assert!(report.best_val_loss.is_finite());

        let test: Vec<AddressSample> = (0..50)
            .map(|_| {
                let n = rng.gen_range(3..10);
                toy_sample(&mut rng, n)
            })
            .collect();
        let correct = test.iter().filter(|s| model.predict(s) == s.label).count();
        assert!(correct >= 40, "accuracy {correct}/50");
    }

    #[test]
    fn single_candidate_is_always_selected() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = LocMatcher::new(LocMatcherConfig::fast());
        let s = toy_sample(&mut rng, 1);
        assert_eq!(model.predict(&s), Some(0));
        assert_eq!(model.predict_proba(&s), vec![1.0]);
    }

    #[test]
    fn empty_sample_predicts_none() {
        let model = LocMatcher::new(LocMatcherConfig::fast());
        let s = AddressSample {
            address: dlinfma_synth::AddressId(0),
            station: dlinfma_synth::StationId(0),
            candidates: vec![],
            features: vec![],
            n_deliveries: 0,
            poi_category: 0,
            geocode: Point::ZERO,
            label: None,
            truth_distances: None,
        };
        assert_eq!(model.predict(&s), None);
    }

    #[test]
    fn no_context_variant_runs() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = LocMatcherConfig {
            use_address_context: false,
            ..LocMatcherConfig::fast()
        };
        let model = LocMatcher::new(cfg);
        let s = toy_sample(&mut rng, 5);
        assert!(model.predict(&s).is_some());
    }

    #[test]
    fn feature_ablations_change_input_dim_but_run() {
        let mut rng = StdRng::seed_from_u64(4);
        for features in [
            FeatureConfig {
                use_trip_coverage: false,
                ..FeatureConfig::default()
            },
            FeatureConfig {
                use_profile: false,
                ..FeatureConfig::default()
            },
            FeatureConfig {
                use_distance: false,
                ..FeatureConfig::default()
            },
        ] {
            let cfg = LocMatcherConfig {
                features,
                ..LocMatcherConfig::fast()
            };
            let model = LocMatcher::new(cfg);
            let s = toy_sample(&mut rng, 4);
            assert!(model.predict(&s).is_some());
        }
    }

    #[test]
    fn weight_roundtrip_preserves_predictions() {
        let mut rng = StdRng::seed_from_u64(9);
        let train: Vec<AddressSample> = (0..20).map(|_| toy_sample(&mut rng, 5)).collect();
        let val: Vec<AddressSample> = (0..8).map(|_| toy_sample(&mut rng, 5)).collect();
        let mut cfg = LocMatcherConfig::fast();
        cfg.max_epochs = 3;
        let mut model = LocMatcher::new(cfg);
        model.train(&train, &val);
        let dump = model.export_weights();
        let restored = LocMatcher::from_weights(cfg, &dump).expect("same layout");
        for s in &val {
            assert_eq!(model.predict_proba(s), restored.predict_proba(s));
        }
        // Mismatched config is rejected.
        let mut other = cfg;
        other.z = cfg.z * 2;
        assert!(LocMatcher::from_weights(other, &dump).is_err());
    }

    #[test]
    fn report_holds_one_train_and_val_loss_per_epoch() {
        let mut rng = StdRng::seed_from_u64(6);
        let train: Vec<AddressSample> = (0..20).map(|_| toy_sample(&mut rng, 5)).collect();
        let val: Vec<AddressSample> = (0..8).map(|_| toy_sample(&mut rng, 5)).collect();
        let mut cfg = LocMatcherConfig::fast();
        cfg.max_epochs = 4;
        let mut model = LocMatcher::new(cfg);
        let report = model.train(&train, &val);
        assert!(report.epochs > 0);
        assert_eq!(report.train_losses.len(), report.epochs);
        assert_eq!(report.val_losses.len(), report.epochs);
        assert!(report.train_losses.iter().all(|l| l.is_finite()));
        assert!(report.val_losses.iter().all(|l| l.is_finite()));
        assert!(report.val_losses.contains(&report.best_val_loss));
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let mut rng = StdRng::seed_from_u64(5);
        let train: Vec<AddressSample> = (0..30).map(|_| toy_sample(&mut rng, 5)).collect();
        let val: Vec<AddressSample> = (0..10).map(|_| toy_sample(&mut rng, 5)).collect();
        let run = || {
            let mut cfg = LocMatcherConfig::fast();
            cfg.max_epochs = 3;
            cfg.seed = 77;
            let mut m = LocMatcher::new(cfg);
            m.train(&train, &val);
            m.predict_proba(&val[0])
        };
        assert_eq!(run(), run());
    }
}
