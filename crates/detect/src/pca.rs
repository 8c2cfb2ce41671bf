//! Entropy + PCA subspace anomaly detection — the published algorithm
//! (Lakhina, Crovella & Diot, SIGCOMM 2005) that the paper's commercial
//! detector NetReflex "is based on".
//!
//! Each interval becomes a 7-dimensional observation: the normalized
//! entropies of the four mining features plus log-scaled flow/packet/byte
//! volumes ("anomalies on the basis of volume and IP features entropy
//! variations", §2 of the paper). PCA over the interval matrix splits the
//! space into a normal subspace (top components) and a residual subspace;
//! the squared prediction error (SPE, the Q-statistic) of each interval is
//! tested against the Jackson–Mudholkar `Q_alpha` limit. For flagged
//! intervals, the detector emits fine-grained meta-data: the concrete
//! feature values whose probability grew the most versus the interval's
//! baseline — "often at the level of individual IPs and port numbers".

use anomex_flow::feature::{Feature, FeatureItem, FeatureValue};
use anomex_flow::record::FlowRecord;
use anomex_flow::store::TimeRange;

use crate::alarm::Alarm;
use crate::detector::Detector;
use crate::interval::{IntervalSeries, IntervalStat, ValueDist};
use crate::linalg::{jacobi_eigen, Matrix};

/// Number of observation dimensions: 4 entropies + 3 volumes.
pub const DIMS: usize = 7;

/// PCA detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcaConfig {
    /// Detection interval width in milliseconds.
    pub interval_ms: u64,
    /// Fraction of variance the normal subspace must capture (Lakhina
    /// used a fixed component count; energy-based selection is the
    /// standard robust variant).
    pub energy: f64,
    /// Normal-deviate multiplier `c_alpha` of the Q-limit
    /// (1.645 → 95%, 2.326 → 99%, 3.0 → 99.87%).
    pub c_alpha: f64,
    /// Minimum intervals required to fit the subspace at all.
    pub min_intervals: usize,
    /// Meta-data cap: values reported per deviating dimension.
    pub hints_per_feature: usize,
}

impl Default for PcaConfig {
    fn default() -> Self {
        PcaConfig {
            interval_ms: 5 * 60 * 1000,
            energy: 0.92,
            c_alpha: 2.326,
            min_intervals: 8,
            hints_per_feature: 3,
        }
    }
}

/// The entropy-PCA subspace detector.
#[derive(Debug, Clone)]
pub struct PcaDetector {
    config: PcaConfig,
    next_id: u64,
}

/// Internals of one detection run, exposed for tests and benches.
#[derive(Debug, Clone)]
pub struct PcaDiagnostics {
    /// Squared prediction error per interval.
    pub spe: Vec<f64>,
    /// Per-interval leave-one-out Q-limits.
    pub limits: Vec<f64>,
    /// The median leave-one-out Q-limit (representative value).
    pub q_limit: f64,
    /// Size of the normal subspace (top components kept).
    pub normal_components: usize,
}

impl PcaDetector {
    /// Detector with the given configuration.
    pub fn new(config: PcaConfig) -> PcaDetector {
        assert!(config.energy > 0.0 && config.energy < 1.0, "energy must be in (0,1)");
        PcaDetector { config, next_id: 0 }
    }

    /// Detector with default (paper-like) settings.
    pub fn with_defaults() -> PcaDetector {
        PcaDetector::new(PcaConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &PcaConfig {
        &self.config
    }

    /// Run detection over `flows` within `span`.
    pub fn detect(&mut self, flows: &[FlowRecord], span: TimeRange) -> Vec<Alarm> {
        let series = IntervalSeries::cut(flows, span, self.config.interval_ms);
        self.detect_series(&series).0
    }

    /// Run detection over a pre-cut series and return diagnostics too.
    ///
    /// The subspace is fitted **leave-one-out**: interval `t` is scored
    /// against a PCA model trained on every interval except `t`. A large
    /// anomaly otherwise drags the principal components toward itself
    /// ("subspace contamination", the classic failure mode of PCA
    /// detectors) and hides inside the normal subspace. At 7 dimensions a
    /// per-interval refit costs microseconds, so robustness is free.
    pub fn detect_series(
        &mut self,
        series: &IntervalSeries,
    ) -> (Vec<Alarm>, Option<PcaDiagnostics>) {
        let n = series.len();
        if n < self.config.min_intervals {
            return (Vec::new(), None);
        }

        let rows: Vec<Vec<f64>> = series.intervals.iter().map(observation).collect();

        let mut spe = vec![0.0f64; n];
        let mut limits = vec![f64::INFINITY; n];
        let mut residuals = vec![[0.0f64; DIMS]; n];
        let mut kept_sizes = vec![0usize; n];
        let mut modeled = false;

        for t in 0..n {
            let Some(fit) = fit_without(&rows, t, self.config.energy) else {
                continue; // degenerate training set for this interval
            };
            modeled = true;
            // Standardize the held-out row with the training statistics.
            let mut y = [0.0f64; DIMS];
            for d in 0..DIMS {
                let (mean, std) = fit.stats[d];
                y[d] = if std > 1e-12 { (rows[t][d] - mean) / std } else { rows[t][d] - mean };
            }
            let mut s = 0.0;
            let mut res = [0.0f64; DIMS];
            for (r, slot) in res.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (c, &yc) in y.iter().enumerate() {
                    acc += fit.residual_projector.get(r, c) * yc;
                }
                *slot = acc;
                s += acc * acc;
            }
            spe[t] = s;
            residuals[t] = res;
            limits[t] = q_alpha(&fit.residual_eigenvalues, self.config.c_alpha);
            kept_sizes[t] = fit.kept;
        }
        if !modeled {
            return (Vec::new(), None); // constant traffic: nothing to model
        }

        let mut alarms = Vec::new();
        for t in 0..n {
            if spe[t] <= limits[t] {
                continue;
            }
            let hints = self.meta_data(series, t, &residuals[t], &spe);
            let alarm = Alarm::new(self.next_id, "entropy-pca", series.intervals[t].range)
                .with_hints(hints)
                .with_kind(guess_kind(&residuals[t]))
                .with_score(spe[t], limits[t]);
            self.next_id += 1;
            alarms.push(alarm);
        }
        // Representative diagnostics: the median leave-one-out limit and
        // subspace size.
        let mut sorted_limits: Vec<f64> =
            limits.iter().copied().filter(|l| l.is_finite()).collect();
        sorted_limits.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q_limit = sorted_limits.get(sorted_limits.len() / 2).copied().unwrap_or(f64::INFINITY);
        let mut sorted_kept: Vec<usize> = kept_sizes.iter().copied().filter(|&k| k > 0).collect();
        sorted_kept.sort_unstable();
        let normal_components = sorted_kept.get(sorted_kept.len() / 2).copied().unwrap_or(0);
        let diag = PcaDiagnostics { spe, limits, q_limit, normal_components };
        (alarms, Some(diag))
    }

    /// Fine-grained meta-data for a flagged interval `t`: per deviating
    /// entropy dimension, the values whose probability increased the most
    /// against the average of the quiet intervals.
    fn meta_data(
        &self,
        series: &IntervalSeries,
        t: usize,
        residual: &[f64; DIMS],
        spe: &[f64],
    ) -> Vec<FeatureItem> {
        // Quiet baseline: the interval with median SPE (cheap and robust).
        let mut order: Vec<usize> = (0..series.len()).filter(|&i| i != t).collect();
        order.sort_by(|&a, &b| spe[a].partial_cmp(&spe[b]).unwrap());
        let baseline = order.get(order.len() / 2).map(|&b| &series.intervals[b]);
        deviation_hints(&series.intervals[t], baseline, residual, self.config.hints_per_feature)
    }
}

/// Meta-data shared by the batch and sliding PCA paths: per deviating
/// entropy dimension of `residual`, the values of `current` whose
/// probability increased the most against `baseline`.
fn deviation_hints(
    current: &IntervalStat,
    baseline: Option<&IntervalStat>,
    residual: &[f64; DIMS],
    hints_per_feature: usize,
) -> Vec<FeatureItem> {
    let mut hints = Vec::new();
    // Rank the four entropy dimensions by |residual| and keep those
    // carrying at least half of the strongest deviation.
    let mut dims: Vec<usize> = (0..4).collect();
    dims.sort_by(|&a, &b| residual[b].abs().partial_cmp(&residual[a].abs()).unwrap());
    let strongest = residual[dims[0]].abs().max(1e-9);

    for &d in &dims {
        if residual[d].abs() < 0.5 * strongest {
            break;
        }
        let feature = Feature::MINING[d];
        let dist = &exact(current)[d];
        let mut scored: Vec<(u32, f64)> = dist
            .iter()
            .map(|(v, c)| {
                let p_now = c as f64 / dist.total().max(1) as f64;
                let p_before = baseline.map(|b| exact(b)[d].probability(v)).unwrap_or(0.0);
                (v, p_now - p_before)
            })
            .filter(|&(_, delta)| delta > 0.0)
            .collect();
        scored.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        scored.truncate(hints_per_feature);
        for (raw, _) in scored {
            if let Some(value) = FeatureValue::from_raw(feature, raw) {
                if let Some(item) = FeatureItem::checked(feature, value) {
                    hints.push(item);
                }
            }
        }
    }
    hints
}

/// How [`PcaSliding`] maintains its subspace model on window slide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PcaMode {
    /// Rank-one covariance update/downdate: per-interval cost is
    /// O(`DIMS`²) plus one `DIMS`×`DIMS` eigendecomposition, independent
    /// of history length. The default.
    #[default]
    Incremental,
    /// Full leave-one-out refit of the trailing window on every
    /// interval — O(history²) fits per interval; the reference
    /// implementation the incremental path is validated against.
    Refit,
}

/// Incremental front-end for the PCA detector: a bounded sliding window
/// of interval summaries, the newest interval scored against a subspace
/// trained on the rest of the window.
///
/// Unlike [`crate::kl::KlOnline`] this is not bit-identical with the
/// batch detector — PCA's leave-one-out fit fundamentally trains on the
/// whole series, so the online variant trains on the trailing `history`
/// intervals instead (the standard sliding-window PCA compromise).
/// Memory and per-interval cost are bounded by `history`, independent
/// of stream length; only an alarm on the **newest** interval is
/// reported, since older intervals were already judged when they were
/// newest.
///
/// In [`PcaMode::Incremental`] (the default) the training moments
/// (per-dimension sums and the raw Gram matrix) are updated with one
/// rank-one addition per arriving interval and one rank-one subtraction
/// per evicted interval, so the per-interval cost is O(`DIMS`²) plus a
/// constant 7×7 eigendecomposition — history length only bounds memory.
/// [`PcaMode::Refit`] keeps the original refit-everything behavior; the
/// two agree on which windows alarm up to floating-point rounding at
/// the decision boundary (`tests/detector_equivalence.rs`).
#[derive(Debug, Clone)]
pub struct PcaSliding {
    config: PcaConfig,
    mode: PcaMode,
    cap: usize,
    next_id: u64,
    /// Trailing interval summaries (newest last), for hints and refits.
    history: std::collections::VecDeque<IntervalStat>,
    /// Observation vectors parallel to `history` (cached: entropy
    /// extraction is O(distinct values) and must not run on eviction).
    obs: std::collections::VecDeque<[f64; DIMS]>,
    /// SPE each retained interval scored when it was newest (`NaN`
    /// while the model was still unfittable) — the hint baseline.
    spe_cache: std::collections::VecDeque<f64>,
    /// Shift applied before accumulating moments. Raw second moments
    /// lose `mean²/var` digits to cancellation — enough to inflate
    /// near-zero eigenvalues past the residual-release floor — so
    /// moments are kept for `x - anchor`, making precision relative to
    /// the window's spread. Seeded from the first observation,
    /// refreshed to the window mean on every rebuild.
    anchor: Option<[f64; DIMS]>,
    /// Rebuild the moments from scratch after this many downdates
    /// ([`MOMENT_REBUILD_EVERY`]; tests lower it to exercise the
    /// rebuild path).
    rebuild_every: usize,
    /// Running per-dimension sums over anchored `obs`.
    sum: [f64; DIMS],
    /// Running anchored Gram matrix `Σ (x-a)(x-a)ᵀ` over `obs`.
    gram: [[f64; DIMS]; DIMS],
    /// Σ (x-a)² over every update **and** downdate since the last
    /// rebuild (monotone, unlike `gram`'s diagonal): the magnitude the
    /// accumulated rounding error in `gram[d][d]` is proportional to,
    /// which sets the constant-dimension noise floor in
    /// [`fit_from_moments`].
    churn: [f64; DIMS],
    /// Evictions since the moments were last rebuilt from scratch
    /// (bounds float drift from repeated downdates).
    evictions_since_rebuild: usize,
    /// `(spe, q_limit)` of the newest scored interval.
    last_diag: Option<(f64, f64)>,
}

/// Rebuild the moments from scratch after this many downdates: often
/// enough that drift cannot accumulate, rare enough that the amortized
/// cost per interval stays O(`DIMS`²).
const MOMENT_REBUILD_EVERY: usize = 1_024;

impl PcaSliding {
    /// Sliding detector keeping the last `history` intervals (clamped
    /// up to `config.min_intervals`), in the default
    /// [`PcaMode::Incremental`].
    pub fn new(config: PcaConfig, history: usize) -> PcaSliding {
        PcaSliding::with_mode(config, history, PcaMode::default())
    }

    /// Sliding detector with an explicit update [`PcaMode`].
    pub fn with_mode(config: PcaConfig, history: usize, mode: PcaMode) -> PcaSliding {
        assert!(config.energy > 0.0 && config.energy < 1.0, "energy must be in (0,1)");
        let cap = history.max(config.min_intervals);
        PcaSliding {
            config,
            mode,
            cap,
            next_id: 0,
            history: std::collections::VecDeque::with_capacity(cap + 1),
            obs: std::collections::VecDeque::with_capacity(cap + 1),
            spe_cache: std::collections::VecDeque::with_capacity(cap + 1),
            anchor: None,
            rebuild_every: MOMENT_REBUILD_EVERY,
            sum: [0.0; DIMS],
            gram: [[0.0; DIMS]; DIMS],
            churn: [0.0; DIMS],
            evictions_since_rebuild: 0,
            last_diag: None,
        }
    }

    /// Override the moment-rebuild cadence (evictions between full
    /// rebuilds). Exists so tests can force the rebuild/re-anchor path
    /// without sliding 1024 windows; production code should keep the
    /// default.
    #[doc(hidden)]
    pub fn set_rebuild_every(&mut self, evictions: usize) {
        self.rebuild_every = evictions.max(1);
    }

    /// The active configuration.
    pub fn config(&self) -> &PcaConfig {
        &self.config
    }

    /// The active update mode.
    pub fn mode(&self) -> PcaMode {
        self.mode
    }

    /// `(spe, q_limit)` of the most recently scored interval — `None`
    /// while the window is still too short to model.
    pub fn last_diag(&self) -> Option<(f64, f64)> {
        self.last_diag
    }

    /// Feed the next closed interval; returns an alarm if the newest
    /// interval deviates from the trailing window's subspace.
    pub fn push(&mut self, stat: &IntervalStat) -> Option<Alarm> {
        match self.mode {
            PcaMode::Incremental => self.push_incremental(stat),
            PcaMode::Refit => self.push_refit(stat),
        }
    }

    /// Original behavior: slide the window, refit leave-one-out PCA
    /// over it, keep only the newest interval's alarm.
    fn push_refit(&mut self, stat: &IntervalStat) -> Option<Alarm> {
        self.history.push_back(stat.clone());
        if self.history.len() > self.cap {
            self.history.pop_front();
        }
        self.last_diag = None;
        if self.history.len() < self.config.min_intervals {
            return None;
        }
        let series = IntervalSeries {
            width_ms: self.config.interval_ms,
            intervals: self.history.iter().cloned().collect(),
        };
        let mut detector = PcaDetector::new(self.config);
        let (alarms, diag) = detector.detect_series(&series);
        if let Some(diag) = &diag {
            // Mirror the incremental convention: diagnostics only when
            // the NEWEST interval's own leave-one-out training set was
            // fittable. `detect_series` leaves (0.0, inf) placeholders
            // for intervals whose fit failed even when other intervals
            // modeled, which would report the newest as scored when a
            // constant-traffic window made it unscorable.
            let rows: Vec<Vec<f64>> = series.intervals.iter().map(observation).collect();
            let newest = series.len() - 1;
            if fit_without(&rows, newest, self.config.energy).is_some() {
                self.last_diag = Some((diag.spe[newest], diag.limits[newest]));
            }
        }
        alarms.into_iter().find(|a| a.window == stat.range).map(|mut alarm| {
            alarm.id = self.next_id;
            self.next_id += 1;
            alarm
        })
    }

    /// Incremental path: downdate the evicted interval, fit from the
    /// running moments (which now cover exactly the window minus the
    /// newest interval — the same training set the refit's
    /// leave-one-out uses for the newest row), score, then update.
    fn push_incremental(&mut self, stat: &IntervalStat) -> Option<Alarm> {
        let x = observation_array(stat);
        self.anchor.get_or_insert(x);
        if self.history.len() >= self.cap {
            self.evict_oldest();
        }
        // Read the anchor only after the eviction: evicting can trigger
        // a moment rebuild that re-anchors, and scoring or folding `x`
        // in with the pre-rebuild anchor would corrupt the moments
        // until the next rebuild.
        let anchor = self.anchor.expect("anchor seeded above");

        self.last_diag = None;
        let n_train = self.obs.len();
        let mut result = None;
        let mut spe_now = f64::NAN;
        // Mirrors the refit gate: the window including the newest
        // interval must reach `min_intervals`, and `fit_without` needs
        // at least two training rows.
        if self.history.len() + 1 >= self.config.min_intervals && n_train >= 2 {
            if let Some(fit) = fit_from_moments(
                n_train,
                &self.sum,
                &self.gram,
                &self.churn,
                &anchor,
                self.config.energy,
            ) {
                let mut y = [0.0f64; DIMS];
                for d in 0..DIMS {
                    let (mean, std) = fit.stats[d];
                    y[d] = if std > 1e-12 { (x[d] - mean) / std } else { x[d] - mean };
                }
                let mut spe = 0.0;
                let mut res = [0.0f64; DIMS];
                for (r, slot) in res.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for (c, &yc) in y.iter().enumerate() {
                        acc += fit.residual_projector.get(r, c) * yc;
                    }
                    *slot = acc;
                    spe += acc * acc;
                }
                let limit = q_alpha(&fit.residual_eigenvalues, self.config.c_alpha);
                spe_now = spe;
                self.last_diag = Some((spe, limit));
                if spe > limit {
                    let hints = deviation_hints(
                        stat,
                        self.quiet_baseline(),
                        &res,
                        self.config.hints_per_feature,
                    );
                    let alarm = Alarm::new(self.next_id, "entropy-pca", stat.range)
                        .with_hints(hints)
                        .with_kind(guess_kind(&res))
                        .with_score(spe, limit);
                    self.next_id += 1;
                    result = Some(alarm);
                }
            }
        }

        // Fold the newest interval into the window.
        rank_one_update(&mut self.sum, &mut self.gram, &mut self.churn, &shifted(&x, &anchor), 1.0);
        self.obs.push_back(x);
        self.history.push_back(stat.clone());
        self.spe_cache.push_back(spe_now);
        result
    }

    /// The retained interval with median cached SPE — the quiet-traffic
    /// baseline for hint generation (mirrors the batch detector's
    /// median-SPE choice over its series).
    fn quiet_baseline(&self) -> Option<&IntervalStat> {
        let mut order: Vec<usize> =
            (0..self.history.len()).filter(|&i| self.spe_cache[i].is_finite()).collect();
        if order.is_empty() {
            return None;
        }
        order.sort_by(|&a, &b| self.spe_cache[a].partial_cmp(&self.spe_cache[b]).unwrap());
        order.get(order.len() / 2).map(|&i| &self.history[i])
    }

    fn evict_oldest(&mut self) {
        let Some(old) = self.obs.pop_front() else {
            return;
        };
        self.history.pop_front();
        self.spe_cache.pop_front();
        let anchor = self.anchor.expect("anchor set before any observation entered the moments");
        rank_one_update(
            &mut self.sum,
            &mut self.gram,
            &mut self.churn,
            &shifted(&old, &anchor),
            -1.0,
        );
        self.evictions_since_rebuild += 1;
        if self.evictions_since_rebuild >= self.rebuild_every {
            self.evictions_since_rebuild = 0;
            self.rebuild_moments();
        }
    }

    /// Recompute the moments from the retained raw observations,
    /// re-anchoring at the current window mean — clears both downdate
    /// drift and any staleness of the original anchor.
    fn rebuild_moments(&mut self) {
        let n = self.obs.len().max(1) as f64;
        let mut anchor = [0.0f64; DIMS];
        for row in &self.obs {
            for d in 0..DIMS {
                anchor[d] += row[d];
            }
        }
        for a in &mut anchor {
            *a /= n;
        }
        self.sum = [0.0; DIMS];
        self.gram = [[0.0; DIMS]; DIMS];
        self.churn = [0.0; DIMS];
        for row in &self.obs {
            rank_one_update(
                &mut self.sum,
                &mut self.gram,
                &mut self.churn,
                &shifted(row, &anchor),
                1.0,
            );
        }
        self.anchor = Some(anchor);
    }
}

impl Detector for PcaSliding {
    fn name(&self) -> &str {
        "entropy-pca"
    }

    fn interval_ms(&self) -> u64 {
        self.config.interval_ms
    }

    fn push(&mut self, stat: &IntervalStat) -> Vec<Alarm> {
        PcaSliding::push(self, stat).into_iter().collect()
    }
}

/// The exact distributions entropy-PCA reads.
fn exact(stat: &IntervalStat) -> &[ValueDist; 4] {
    stat.dists().expect("entropy-PCA reads summaries with exact distributions")
}

/// Add (`sign = 1.0`) or subtract (`sign = -1.0`) one observation's
/// rank-one contribution to the running moments — the O(`DIMS`²) slide.
/// `churn` grows on updates and downdates alike: it tracks the total
/// magnitude that has passed through `gram`'s diagonal, i.e. the scale
/// of its accumulated rounding error.
fn rank_one_update(
    sum: &mut [f64; DIMS],
    gram: &mut [[f64; DIMS]; DIMS],
    churn: &mut [f64; DIMS],
    x: &[f64; DIMS],
    sign: f64,
) {
    for d in 0..DIMS {
        sum[d] += sign * x[d];
        churn[d] += x[d] * x[d];
        for e in 0..DIMS {
            gram[d][e] += sign * x[d] * x[e];
        }
    }
}

/// One leave-one-out PCA fit.
struct LooFit {
    /// Per-dimension `(mean, std)` of the training rows.
    stats: Vec<(f64, f64)>,
    /// `I - P P^T` over the kept components.
    residual_projector: Matrix,
    /// Eigenvalues of the residual subspace (for the Q-limit).
    residual_eigenvalues: Vec<f64>,
    /// Number of kept (normal-subspace) components.
    kept: usize,
}

/// Fit PCA on all rows except `skip`; `None` if the training covariance
/// is degenerate (constant traffic).
fn fit_without(rows: &[Vec<f64>], skip: usize, energy: f64) -> Option<LooFit> {
    let training: Vec<Vec<f64>> =
        rows.iter().enumerate().filter(|&(i, _)| i != skip).map(|(_, r)| r.clone()).collect();
    if training.len() < 2 {
        return None;
    }
    let mut y = Matrix::from_rows(&training);
    let stats = y.standardize_columns();
    let cov = y.covariance();
    finish_fit(stats, &cov, energy)
}

/// One observation shifted by the moment anchor.
fn shifted(x: &[f64; DIMS], anchor: &[f64; DIMS]) -> [f64; DIMS] {
    std::array::from_fn(|d| x[d] - anchor[d])
}

/// Fit PCA from running moments of `n` anchored observations: mean,
/// population std and the correlation-style covariance are derived from
/// `sum` and the anchored Gram matrix in O(`DIMS`²) — the same
/// statistics `standardize_columns` + `covariance` compute from the raw
/// rows, up to floating-point rounding (anchoring keeps that rounding
/// relative to the window's spread; see [`PcaSliding`]'s `anchor`).
fn fit_from_moments(
    n: usize,
    sum: &[f64; DIMS],
    gram: &[[f64; DIMS]; DIMS],
    churn: &[f64; DIMS],
    anchor: &[f64; DIMS],
    energy: f64,
) -> Option<LooFit> {
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    // `sum`/`gram` are moments of `x - anchor`; shifts leave variances
    // and covariances untouched, so only the reported mean de-shifts.
    let mut shifted_mean = [0.0f64; DIMS];
    let mut std = [0.0f64; DIMS];
    for d in 0..DIMS {
        shifted_mean[d] = sum[d] / nf;
        let second = gram[d][d] / nf;
        let var = second - shifted_mean[d] * shifted_mean[d];
        // `second - mean²` cancels catastrophically when the dimension
        // is (near-)constant away from the anchor: the residue is pure
        // rounding noise, yet can clear the 1e-12 constant-column gate
        // and then standardization divides by a fictitious 1e-8-ish
        // std, exploding the SPE. The noise scale is set by everything
        // that ever passed through the accumulator (`churn`), not by
        // the current window alone — downdated history leaves its
        // rounding residue behind. Anything at or below that floor is
        // constant.
        let noise_floor = 8.0 * f64::EPSILON * (churn[d] / nf + shifted_mean[d] * shifted_mean[d]);
        std[d] = if var <= noise_floor { 0.0 } else { var.sqrt() };
    }
    // Matches the row path: columns are z-scored only when std exceeds
    // 1e-12 (constant dimensions are centered, not scaled), and the
    // covariance divides by n-1. Constant dimensions get exactly-zero
    // covariance entries — the row path's centered column is zero to
    // rounding, and carrying our (larger) cancellation residue instead
    // would inflate the junk tail of the spectrum past the
    // residual-release floor.
    let denom = (n.max(2) - 1) as f64;
    let mut cov = Matrix::zeros(DIMS, DIMS);
    for i in 0..DIMS {
        let si = if std[i] > 1e-12 { std[i] } else { 1.0 };
        for j in i..DIMS {
            let sj = if std[j] > 1e-12 { std[j] } else { 1.0 };
            let v = if std[i] <= 1e-12 || std[j] <= 1e-12 {
                0.0
            } else {
                (gram[i][j] - nf * shifted_mean[i] * shifted_mean[j]) / (denom * si * sj)
            };
            cov.set(i, j, v);
            cov.set(j, i, v);
        }
    }
    let stats: Vec<(f64, f64)> = (0..DIMS)
        .map(|d| (anchor[d] + shifted_mean[d], if std[d] > 1e-12 { std[d] } else { 0.0 }))
        .collect();
    finish_fit(stats, &cov, energy)
}

/// Shared back half of a fit: eigendecompose the covariance, pick the
/// normal subspace by energy, build the residual projector.
fn finish_fit(stats: Vec<(f64, f64)>, cov: &Matrix, energy: f64) -> Option<LooFit> {
    let (eigenvalues, eigenvectors) = jacobi_eigen(cov);

    let total: f64 = eigenvalues.iter().map(|&l| l.max(0.0)).sum();
    if total <= 1e-12 {
        return None;
    }
    let mut kept = 0usize;
    let mut acc = 0.0;
    for &l in &eigenvalues {
        acc += l.max(0.0);
        kept += 1;
        if acc / total >= energy {
            break;
        }
    }
    kept = kept.clamp(1, DIMS - 1); // always leave a residual space

    // The residual subspace must retain positive variance, or the Q-limit
    // degenerates to infinity and nothing can ever alarm. Low-rank
    // training data (smooth synthetic traffic) hits this when the energy
    // criterion swallows the whole spectrum: release components back into
    // the residual until it owns variance.
    let residual_floor = total * 1e-9;
    while kept > 1 && eigenvalues[kept..].iter().map(|&l| l.max(0.0)).sum::<f64>() <= residual_floor
    {
        kept -= 1;
    }

    let mut p = Matrix::zeros(DIMS, kept);
    for c in 0..kept {
        for r in 0..DIMS {
            p.set(r, c, eigenvectors.get(r, c));
        }
    }
    let ppt = p.matmul(&p.transpose());
    let mut residual_projector = Matrix::identity(DIMS);
    for r in 0..DIMS {
        for c in 0..DIMS {
            residual_projector.set(r, c, residual_projector.get(r, c) - ppt.get(r, c));
        }
    }
    Some(LooFit {
        stats,
        residual_projector,
        residual_eigenvalues: eigenvalues[kept..].to_vec(),
        kept,
    })
}

/// The 7-dimensional observation of one interval.
fn observation(stat: &IntervalStat) -> Vec<f64> {
    observation_array(stat).to_vec()
}

/// The 7-dimensional observation as a fixed array (no allocation).
fn observation_array(stat: &IntervalStat) -> [f64; DIMS] {
    let h = stat.entropy_vector();
    [
        h[0],
        h[1],
        h[2],
        h[3],
        (stat.flows as f64 + 1.0).ln(),
        (stat.packets as f64 + 1.0).ln(),
        (stat.bytes as f64 + 1.0).ln(),
    ]
}

/// Jackson–Mudholkar Q-statistic limit at normal deviate `c_alpha`, from
/// the residual-subspace eigenvalues.
fn q_alpha(residual_eigenvalues: &[f64], c_alpha: f64) -> f64 {
    let phi: Vec<f64> = (1..=3)
        .map(|i| residual_eigenvalues.iter().map(|&l| l.max(0.0).powi(i)).sum::<f64>())
        .collect();
    let (phi1, phi2, phi3) = (phi[0], phi[1], phi[2]);
    if phi1 <= 1e-12 {
        return f64::INFINITY; // no residual variance -> nothing can exceed
    }
    if phi2 <= 1e-18 {
        return phi1 * 4.0; // degenerate but non-zero residual
    }
    let h0 = 1.0 - (2.0 * phi1 * phi3) / (3.0 * phi2 * phi2);
    let h0 = if h0.abs() < 1e-6 { 1e-6 } else { h0 };
    let term = c_alpha * (2.0 * phi2 * h0 * h0).sqrt() / phi1
        + 1.0
        + phi2 * h0 * (h0 - 1.0) / (phi1 * phi1);
    if term <= 0.0 {
        // Extremely skewed residual spectrum: fall back to a high quantile
        // of a single-eigenvalue chi-square-like bound.
        return phi1 + c_alpha * (2.0 * phi2).sqrt();
    }
    phi1 * term.powf(1.0 / h0)
}

/// Crude label from the residual pattern (dims: 4 entropies, 3 volumes).
fn guess_kind(residual: &[f64; DIMS]) -> &'static str {
    let dst_port_up = residual[3] > 0.0;
    let dst_ip_up = residual[1] > 0.0;
    let src_ip_up = residual[0] > 0.0;
    let volume_up = residual[5] > 0.0 || residual[6] > 0.0;
    if dst_port_up && !dst_ip_up {
        "port scan"
    } else if dst_ip_up && !dst_port_up {
        "network scan"
    } else if src_ip_up && !dst_ip_up {
        "DDoS"
    } else if volume_up {
        "volume anomaly"
    } else {
        "distribution change"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_flow::record::Protocol;
    use std::net::Ipv4Addr;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// Benign traffic for `intervals` intervals; optionally a scan or a
    /// flood in one interval.
    fn trace(
        intervals: usize,
        width: u64,
        anomaly_at: Option<usize>,
        flood: bool,
    ) -> (Vec<FlowRecord>, TimeRange) {
        let mut flows = Vec::new();
        let span = TimeRange::new(0, intervals as u64 * width);
        for t in 0..intervals {
            let base = t as u64 * width;
            // Slight deterministic wobble so variance is non-degenerate.
            let n = 220 + (t % 3) as u32 * 15;
            for i in 0..n {
                flows.push(
                    FlowRecord::builder()
                        .time(base + (i as u64 * 77) % width, base + (i as u64 * 77) % width + 40)
                        .src(
                            Ipv4Addr::from(0x0A00_0000 + ((i * 7 + t as u32) % 60)),
                            1024 + (i % 700) as u16,
                        )
                        .dst(
                            Ipv4Addr::from(0xAC10_0000 + (i % 9)),
                            if i % 4 == 0 { 443 } else { 80 },
                        )
                        .proto(Protocol::TCP)
                        .volume(2 + (i % 5) as u64, 1200)
                        .build(),
                );
            }
            if anomaly_at == Some(t) {
                if flood {
                    // Point-to-point UDP flood: 2 flows, huge packet count.
                    for k in 0..2u64 {
                        flows.push(
                            FlowRecord::builder()
                                .time(base + k, base + width - 1)
                                .src(ip("10.77.0.1"), 4500)
                                .dst(ip("172.16.0.50"), 5060)
                                .proto(Protocol::UDP)
                                .volume(400_000, 400_000 * 1200)
                                .build(),
                        );
                    }
                } else {
                    for p in 1..=2_000u32 {
                        flows.push(
                            FlowRecord::builder()
                                .time(base + p as u64 % width, base + p as u64 % width + 1)
                                .src(ip("10.66.66.66"), 55_548)
                                .dst(ip("172.16.0.99"), p as u16)
                                .proto(Protocol::TCP)
                                .volume(1, 44)
                                .build(),
                        );
                    }
                }
            }
        }
        (flows, span)
    }

    #[test]
    fn quiet_trace_raises_no_alarm() {
        let (flows, span) = trace(16, 60_000, None, false);
        let mut det = PcaDetector::new(PcaConfig { interval_ms: 60_000, ..PcaConfig::default() });
        let alarms = det.detect(&flows, span);
        assert!(
            alarms.is_empty(),
            "false alarms: {:?}",
            alarms.iter().map(|a| a.describe()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn port_scan_interval_flagged_with_scanner_hint() {
        let (flows, span) = trace(16, 60_000, Some(11), false);
        let mut det = PcaDetector::new(PcaConfig { interval_ms: 60_000, ..PcaConfig::default() });
        let alarms = det.detect(&flows, span);
        assert!(!alarms.is_empty(), "scan not detected");
        let hit = alarms
            .iter()
            .find(|a| a.window.from_ms == 11 * 60_000)
            .expect("wrong interval flagged");
        assert!(
            hit.hints.iter().any(|h| *h == FeatureItem::src_ip(ip("10.66.66.66"))
                || *h == FeatureItem::dst_ip(ip("172.16.0.99"))
                || *h == FeatureItem::src_port(55_548)),
            "no useful hint: {:?}",
            hit.hints
        );
    }

    #[test]
    fn udp_flood_flagged_via_volume_dims() {
        let (flows, span) = trace(16, 60_000, Some(9), true);
        let mut det = PcaDetector::new(PcaConfig { interval_ms: 60_000, ..PcaConfig::default() });
        let alarms = det.detect(&flows, span);
        assert!(
            alarms.iter().any(|a| a.window.from_ms == 9 * 60_000),
            "flood interval not flagged"
        );
    }

    #[test]
    fn too_few_intervals_returns_nothing() {
        let (flows, span) = trace(4, 60_000, Some(3), false);
        let mut det = PcaDetector::with_defaults();
        let (alarms, diag) = det.detect_series(&IntervalSeries::cut(&flows, span, 60_000));
        assert!(alarms.is_empty());
        assert!(diag.is_none());
    }

    #[test]
    fn diagnostics_expose_spe_and_limit() {
        let (flows, span) = trace(16, 60_000, Some(11), false);
        let mut det = PcaDetector::new(PcaConfig { interval_ms: 60_000, ..PcaConfig::default() });
        let (_, diag) = det.detect_series(&IntervalSeries::cut(&flows, span, 60_000));
        let diag = diag.expect("diagnostics");
        assert_eq!(diag.spe.len(), 16);
        assert!(diag.q_limit.is_finite() && diag.q_limit > 0.0);
        assert!(diag.normal_components >= 1 && diag.normal_components < DIMS);
        // The anomalous interval carries the max SPE.
        let max_idx =
            diag.spe.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(max_idx, 11);
    }

    #[test]
    fn sliding_pca_flags_scan_in_newest_interval_only() {
        let (flows, span) = trace(16, 60_000, Some(12), false);
        let series = IntervalSeries::cut(&flows, span, 60_000);
        let config = PcaConfig { interval_ms: 60_000, ..PcaConfig::default() };
        let mut sliding = PcaSliding::new(config, 12);
        let mut fired: Vec<(usize, Alarm)> = Vec::new();
        for (t, stat) in series.intervals.iter().enumerate() {
            if let Some(alarm) = sliding.push(stat) {
                fired.push((t, alarm));
            }
        }
        assert!(
            fired.iter().any(|(t, _)| *t == 12),
            "scan interval not flagged: {:?}",
            fired.iter().map(|(t, a)| (*t, a.describe())).collect::<Vec<_>>()
        );
        // Alarm ids are assigned by the sliding adapter, in order.
        for (i, (_, alarm)) in fired.iter().enumerate() {
            assert_eq!(alarm.id, i as u64);
        }
    }

    #[test]
    fn sliding_pca_is_quiet_on_benign_traffic() {
        let (flows, span) = trace(16, 60_000, None, false);
        let series = IntervalSeries::cut(&flows, span, 60_000);
        let config = PcaConfig { interval_ms: 60_000, ..PcaConfig::default() };
        let mut sliding = PcaSliding::new(config, 12);
        let fired: Vec<Alarm> =
            series.intervals.iter().filter_map(|stat| sliding.push(stat)).collect();
        assert!(fired.is_empty(), "{:?}", fired.iter().map(|a| a.describe()).collect::<Vec<_>>());
    }

    #[test]
    fn incremental_matches_refit_alarms_and_diagnostics() {
        let (flows, span) = trace(24, 60_000, Some(17), false);
        let series = IntervalSeries::cut(&flows, span, 60_000);
        let config = PcaConfig { interval_ms: 60_000, ..PcaConfig::default() };
        let mut incremental = PcaSliding::with_mode(config, 12, PcaMode::Incremental);
        let mut refit = PcaSliding::with_mode(config, 12, PcaMode::Refit);
        assert_eq!(PcaSliding::new(config, 12).mode(), PcaMode::Incremental, "default mode");
        for stat in &series.intervals {
            let a = incremental.push(stat);
            let b = refit.push(stat);
            assert_eq!(
                a.as_ref().map(|x| x.window),
                b.as_ref().map(|x| x.window),
                "alarm disagreement at {:?}: inc {:?} refit {:?}",
                stat.range,
                incremental.last_diag(),
                refit.last_diag()
            );
            match (incremental.last_diag(), refit.last_diag()) {
                (None, None) => {}
                (Some((spe_a, lim_a)), Some((spe_b, lim_b))) => {
                    assert!(
                        (spe_a - spe_b).abs() <= 1e-6 * spe_b.abs().max(1.0),
                        "SPE drift: {spe_a} vs {spe_b}"
                    );
                    assert!(
                        lim_a == lim_b
                            || (lim_a - lim_b).abs() <= 1e-6 * lim_b.abs().max(1.0)
                            || (lim_a.is_infinite() && lim_b.is_infinite()),
                        "limit drift: {lim_a} vs {lim_b}"
                    );
                }
                (a, b) => panic!("diagnostics availability diverged: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn constant_traffic_window_leaves_both_modes_unscored() {
        // Twelve identical (empty) intervals then one busy interval:
        // the newest interval's training set is constant, so neither
        // mode can score it — last_diag must be None in BOTH, even
        // though the refit's batch pass models the older intervals
        // (their training sets include the busy row).
        let config = PcaConfig { interval_ms: 60_000, ..PcaConfig::default() };
        let mut incremental = PcaSliding::with_mode(config, 12, PcaMode::Incremental);
        let mut refit = PcaSliding::with_mode(config, 12, PcaMode::Refit);
        for t in 0..12u64 {
            let stat = IntervalStat::empty(TimeRange::window_at(t, 0, 60_000));
            incremental.push(&stat);
            refit.push(&stat);
        }
        let flows: Vec<FlowRecord> = (0..200u32)
            .map(|i| {
                FlowRecord::builder()
                    .time(12 * 60_000 + i as u64, 12 * 60_000 + i as u64 + 10)
                    .src(Ipv4Addr::from(0x0A00_0000 + i), 1_024 + i as u16)
                    .dst(ip("172.16.0.1"), 80)
                    .volume(2, 900)
                    .build()
            })
            .collect();
        let busy = IntervalStat::from_records(
            TimeRange::window_at(12, 0, 60_000),
            crate::interval::SummarySpec::FULL,
            &flows,
        );
        let a = incremental.push(&busy);
        let b = refit.push(&busy);
        assert_eq!(a, None);
        assert_eq!(b, None);
        assert_eq!(incremental.last_diag(), None, "constant training set is unscorable");
        assert_eq!(refit.last_diag(), None, "refit must agree the newest was unscorable");
    }

    #[test]
    fn incremental_moment_rebuild_does_not_change_results() {
        // Force a rebuild (and its re-anchoring) every 4 evictions —
        // far below the production cadence — and check the incremental
        // path still tracks the refit reference across dozens of
        // rebuild boundaries. Guards the stale-anchor hazard: scoring
        // or folding an observation with a pre-rebuild anchor corrupts
        // the moments for the next thousand intervals.
        let (flows, span) = trace(20, 60_000, Some(15), false);
        let series = IntervalSeries::cut(&flows, span, 60_000);
        let config = PcaConfig { interval_ms: 60_000, ..PcaConfig::default() };
        let mut det = PcaSliding::new(config, 10);
        det.set_rebuild_every(4);
        let mut refit = PcaSliding::with_mode(config, 10, PcaMode::Refit);
        let mut fired = Vec::new();
        // Cycle the same series several times; state keeps sliding.
        for _ in 0..3 {
            for stat in &series.intervals {
                if let Some(alarm) = det.push(stat) {
                    fired.push(alarm);
                }
                refit.push(stat);
                match (det.last_diag(), refit.last_diag()) {
                    (Some((spe_a, _)), Some((spe_b, _))) => {
                        assert!(
                            (spe_a - spe_b).abs() <= 1e-6 * spe_b.abs().max(1.0),
                            "SPE drift across a rebuild at {:?}: {spe_a} vs {spe_b}",
                            stat.range
                        );
                    }
                    (a, b) => assert_eq!(a.is_some(), b.is_some(), "availability diverged"),
                }
            }
        }
        assert!(!fired.is_empty(), "repeated scans must keep alarming");
        for (i, alarm) in fired.iter().enumerate() {
            assert_eq!(alarm.id, i as u64, "sliding adapter assigns ids in order");
        }
    }

    #[test]
    fn q_alpha_monotone_in_confidence() {
        let eig = [0.5, 0.3, 0.1];
        assert!(q_alpha(&eig, 3.0) > q_alpha(&eig, 1.645));
    }

    #[test]
    fn q_alpha_infinite_when_no_residual_variance() {
        assert!(q_alpha(&[0.0, 0.0], 2.0).is_infinite());
        assert!(q_alpha(&[], 2.0).is_infinite());
    }

    #[test]
    fn observation_has_seven_dims() {
        let stat = IntervalStat::empty(TimeRange::new(0, 1));
        assert_eq!(observation(&stat).len(), DIMS);
    }

    #[test]
    fn guess_kind_scan_vs_flood() {
        let mut r = [0.0f64; DIMS];
        r[3] = 2.0; // dstPort entropy up
        r[1] = -1.0;
        assert_eq!(guess_kind(&r), "port scan");
        let mut r2 = [0.0f64; DIMS];
        r2[1] = 2.0;
        r2[3] = -0.5;
        assert_eq!(guess_kind(&r2), "network scan");
    }
}
