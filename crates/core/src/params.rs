//! Tunable constants of the paper's algorithms.
//!
//! The paper fixes constants for its asymptotic analysis (`Γ ≤ 90 log n`,
//! sampling rate `10 log n / √n`, list bound `800·2^α √n log n`, …). At
//! laptop-scale `n` these make many probabilities exceed 1 and many caps
//! exceed the whole universe — technically correct, but they collapse the
//! interesting behaviour (everything is sampled, nothing is ever
//! rejected). [`Params`] therefore carries every constant explicitly with
//! two presets:
//!
//! * [`Params::paper`] — the literal constants, used by the analytic-bound
//!   tests and by any run that wants the exact guarantees;
//! * [`Params::scaled`] — the same functional forms with constants shrunk
//!   so that `n ∈ {16 … 625}` exercises sampling, aborts, classes and load
//!   balancing the way large `n` would.
//!
//! Every experiment records which preset it ran (see `EXPERIMENTS.md`).

/// All numeric constants of Sections 3–5, as explicit fields.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Params {
    /// `Γ(u,v) ≤ promise_factor · log₂ n` is the FindEdgesWithPromise
    /// promise (paper: 90).
    pub promise_factor: f64,
    /// Λ_x sampling probability is `lambda_rate · log₂ n / √n` (paper: 10).
    pub lambda_rate: f64,
    /// Well-balancedness cap: `|{v : {u,v} ∈ Λ_x}| ≤ balance_factor ·
    /// n^{1/4} · log₂ n` (paper: 100).
    pub balance_factor: f64,
    /// IdentifyClass sampling probability is `identify_rate · log₂ n / n`
    /// (paper: 10).
    pub identify_rate: f64,
    /// IdentifyClass aborts if any `|Λ(u)| > identify_abort · log₂ n`
    /// (paper: 20).
    pub identify_abort: f64,
    /// Class thresholds: `c_uvw` is the smallest `c` with
    /// `d_uvw < class_threshold · 2^c · log₂ n` (paper: 10).
    pub class_threshold: f64,
    /// Evaluation list bound: `|L^k_w| ≤ list_bound · 2^α · √n · log₂ n`
    /// (paper: 800).
    pub list_bound: f64,
    /// Duplication denominator of Figure 5: `y ∈ [2^α / (dup_denominator ·
    /// log₂ n)]` (paper: 720).
    pub dup_denominator: f64,
    /// Proposition 1 sampling probability is
    /// `√(prop1_base · 2^i · log₂ n / n)` (paper: 60).
    pub prop1_base: f64,
    /// Multi-search repetitions; `None` selects the analytic target
    /// `repetitions_for_target(m)` of `qcc-quantum`.
    pub search_repetitions: Option<u64>,
    /// Host worker threads for the semiring baseline's local tile
    /// products, the only kernel that reads this field. `None` defers to
    /// the `QCC_THREADS` environment variable, then to the machine's
    /// available parallelism (see [`qcc_perf::resolve_threads`]); every
    /// other threaded kernel (the tiled min-plus product, the driver's
    /// certificate product, Johnson's Dijkstras, the oracle censuses)
    /// always resolves its workers that way. This is purely a
    /// host-performance knob: charged round counts never depend on it.
    pub threads: Option<usize>,
}

impl Params {
    /// The literal constants of the paper.
    pub fn paper() -> Self {
        Params {
            promise_factor: 90.0,
            lambda_rate: 10.0,
            balance_factor: 100.0,
            identify_rate: 10.0,
            identify_abort: 20.0,
            class_threshold: 10.0,
            list_bound: 800.0,
            dup_denominator: 720.0,
            prop1_base: 60.0,
            search_repetitions: None,
            threads: None,
        }
    }

    /// Scaled-down constants that exhibit the paper's behaviour at
    /// laptop-scale `n` (sampling probabilities strictly below 1, caps
    /// strictly below the universe) while preserving every functional form.
    pub fn scaled() -> Self {
        Params {
            promise_factor: 4.0,
            // Coverage (Lemma 2 (ii)) needs p·√n ≳ 3 ln n; below n ≈ 1000
            // this clamps p to 1 for any admissible constant — the same
            // regime the paper's own constants are in at these sizes.
            lambda_rate: 3.0,
            balance_factor: 4.0,
            identify_rate: 2.0,
            identify_abort: 8.0,
            class_threshold: 1.0,
            list_bound: 8.0,
            dup_denominator: 1.0,
            prop1_base: 1.0,
            search_repetitions: Some(24),
            threads: None,
        }
    }

    /// The resolved host worker count of the semiring baseline: the
    /// [`threads`] override when set, else `QCC_THREADS`, else available
    /// parallelism.
    ///
    /// [`threads`]: Params::threads
    pub fn worker_threads(&self) -> usize {
        qcc_perf::resolve_threads(self.threads)
    }

    /// `log₂ n`, floored at 1 so constants never vanish.
    pub fn log_n(n: usize) -> f64 {
        (n.max(2) as f64).log2()
    }

    /// The promise threshold `promise_factor · log₂ n` (Γ cap).
    pub fn promise_bound(&self, n: usize) -> f64 {
        self.promise_factor * Self::log_n(n)
    }

    /// Λ_x per-pair sampling probability, clamped to `[0, 1]`.
    pub fn lambda_probability(&self, n: usize) -> f64 {
        (self.lambda_rate * Self::log_n(n) / (n as f64).sqrt()).clamp(0.0, 1.0)
    }

    /// Well-balancedness cap per vertex of the coarse block.
    pub fn balance_cap(&self, n: usize) -> f64 {
        self.balance_factor * (n as f64).powf(0.25) * Self::log_n(n)
    }

    /// IdentifyClass per-neighbor sampling probability, clamped to `[0, 1]`.
    pub fn identify_probability(&self, n: usize) -> f64 {
        (self.identify_rate * Self::log_n(n) / n as f64).clamp(0.0, 1.0)
    }

    /// IdentifyClass abort threshold on `|Λ(u)|`.
    pub fn identify_abort_bound(&self, n: usize) -> f64 {
        self.identify_abort * Self::log_n(n)
    }

    /// The class boundary `class_threshold · 2^c · log₂ n`.
    pub fn class_boundary(&self, n: usize, c: u32) -> f64 {
        self.class_threshold * 2f64.powi(c as i32) * Self::log_n(n)
    }

    /// The evaluation list bound `list_bound · 2^α · √n · log₂ n`.
    pub fn list_cap(&self, n: usize, alpha: u32) -> f64 {
        self.list_bound * 2f64.powi(alpha as i32) * (n as f64).sqrt() * Self::log_n(n)
    }

    /// Figure 5 duplication count `max(1, ⌊2^α / (dup_denominator · log₂ n)⌋)`.
    pub fn dup_count(&self, n: usize, alpha: u32) -> usize {
        let d = 2f64.powi(alpha as i32) / (self.dup_denominator * Self::log_n(n));
        (d.floor() as usize).max(1)
    }

    /// Proposition 1 edge-sampling probability at loop iteration `i`,
    /// clamped to `[0, 1]`.
    pub fn prop1_probability(&self, n: usize, i: u32) -> f64 {
        (self.prop1_base * 2f64.powi(i as i32) * Self::log_n(n) / n as f64)
            .sqrt()
            .clamp(0.0, 1.0)
    }

    /// Whether the Proposition 1 loop continues at iteration `i`
    /// (`prop1_base · 2^i · log₂ n ≤ n`).
    pub fn prop1_continues(&self, n: usize, i: u32) -> bool {
        self.prop1_base * 2f64.powi(i as i32) * Self::log_n(n) <= n as f64
    }
}

impl Default for Params {
    /// Defaults to the scaled preset (the one meaningful at testable `n`).
    fn default() -> Self {
        Params::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_match_the_text() {
        let p = Params::paper();
        assert_eq!(p.promise_factor, 90.0);
        assert_eq!(p.lambda_rate, 10.0);
        assert_eq!(p.balance_factor, 100.0);
        assert_eq!(p.identify_abort, 20.0);
        assert_eq!(p.list_bound, 800.0);
        assert_eq!(p.dup_denominator, 720.0);
        assert_eq!(p.prop1_base, 60.0);
    }

    #[test]
    fn probabilities_are_clamped() {
        let p = Params::paper();
        // at n = 16 the paper's Λ rate exceeds 1 and must clamp
        assert_eq!(p.lambda_probability(16), 1.0);
        // at large n it is a genuine probability
        assert!(p.lambda_probability(1 << 20) < 1.0);
        let s = Params::scaled();
        // the scaled rate leaves the clamped regime much earlier
        assert!(s.lambda_probability(1 << 12) < 1.0);
        assert!(s.lambda_probability(1 << 12) > p.lambda_probability(1 << 12) / 10.0);
    }

    #[test]
    fn scaled_preset_exercises_sampling_at_small_n() {
        let s = Params::scaled();
        for &n in &[16usize, 81, 256, 625] {
            // IdentifyClass and Proposition 1 sampling are genuinely
            // probabilistic at laptop scale with the scaled constants.
            assert!(s.identify_probability(n) < 1.0, "n = {n}");
            assert!(s.prop1_probability(n, 0) < 1.0, "n = {n}");
            // the balance cap admits the p = 1 regime (every vertex can
            // appear with a whole coarse block of partners) …
            let block = (n as f64).powf(0.75);
            assert!(s.balance_cap(n) >= block, "n = {n}");
        }
        // … while still binding well below the universe at larger n.
        assert!(s.balance_cap(1 << 16) < (1 << 16) as f64);
    }

    #[test]
    fn class_boundaries_double() {
        let p = Params::paper();
        assert_eq!(p.class_boundary(256, 3), 2.0 * p.class_boundary(256, 2));
    }

    #[test]
    fn dup_count_is_at_least_one_and_grows_with_alpha() {
        let p = Params::paper();
        assert_eq!(p.dup_count(256, 0), 1);
        // 2^20 / (720·8) = huge only for large alpha
        assert!(p.dup_count(256, 20) > 1);
        let s = Params::scaled();
        assert!(s.dup_count(256, 4) >= s.dup_count(256, 0));
    }

    #[test]
    fn prop1_loop_terminates() {
        let p = Params::paper();
        let n = 1 << 16;
        let mut i = 0;
        while p.prop1_continues(n, i) {
            i += 1;
            assert!(i < 64, "loop must exit");
        }
        // roughly log2(n / (60 log n)) iterations
        assert!(i >= 1);
    }

    #[test]
    fn default_is_scaled() {
        assert_eq!(Params::default(), Params::scaled());
    }

    #[test]
    fn worker_threads_honours_explicit_override() {
        let mut p = Params::scaled();
        assert!(p.threads.is_none());
        assert!(p.worker_threads() >= 1);
        p.threads = Some(3);
        assert_eq!(p.worker_threads(), 3);
    }
}
