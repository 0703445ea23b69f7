//! A from-scratch multi-layer perceptron.
//!
//! The paper's neural predictor "is a three layered MLP with a (6,3,1)
//! structure (input, hidden and output neuron layers)" (Sec. IV-C),
//! trained by backpropagation over "training eras … until a convergence
//! criterion is fulfilled". This module provides the network itself:
//! dense layers, tanh hidden activations, a linear output (standard for
//! regression), stochastic gradient descent with momentum, and a
//! deterministic Xavier-style initialisation from [`Rng64`].
//!
//! The network stores every layer's weights in one contiguous
//! row-major array (bias folded in as each row's last column) and the
//! hot fused forward+backprop pass runs entirely inside a caller-owned
//! [`Scratch`], so steady-state training performs no heap allocation.
//! The arithmetic — accumulation order, momentum update, activation
//! evaluation — is kept operation-for-operation identical to the
//! original per-layer implementation, so trained weights and every
//! downstream report are bit-identical.

use mmog_util::rng::Rng64;

/// Activation applied to a layer's outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Hyperbolic tangent (hidden layers).
    Tanh,
    /// Identity (regression output layer).
    Linear,
}

impl Activation {
    /// Derivative expressed via the activation output `y = f(x)`.
    #[inline]
    fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Self::Tanh => 1.0 - y * y,
            Self::Linear => 1.0,
        }
    }
}

/// Dot product of one weight row (`inputs` coefficients then the bias)
/// against `input`, accumulated in the historical order: bias first,
/// then coefficient·input terms in ascending index order.
#[inline(always)]
fn dot_bias(row: &[f64], input: &[f64]) -> f64 {
    let (coef, bias) = row.split_at(input.len());
    let mut acc = bias[0];
    for (wv, x) in coef.iter().zip(input) {
        acc += wv * x;
    }
    acc
}

/// Reusable forward/backprop buffers. One `Scratch` serves any number
/// of [`Mlp::forward_scratch`] / [`Mlp::train_step_scratch`] calls (and
/// any network — buffers grow to fit on first use), so a training loop
/// allocates nothing per sample or per era.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Every layer's activations, contiguous: the input copy first,
    /// then each layer's outputs (segment boundaries come from the
    /// network's activation offsets).
    acts: Vec<f64>,
    /// Current layer's error signal during backprop.
    delta: Vec<f64>,
    /// Error signal propagated to the layer below.
    prev_delta: Vec<f64>,
}

impl Scratch {
    /// Grows the buffers to fit `net` (no-op once sized).
    fn ensure(&mut self, net: &Mlp) {
        let act_len = *net.act_off.last().expect("offsets non-empty");
        if self.acts.len() < act_len {
            self.acts.resize(act_len, 0.0);
        }
        let width = net.shape.iter().copied().max().unwrap_or(0);
        if self.delta.len() < width {
            self.delta.resize(width, 0.0);
        }
        if self.prev_delta.len() < width {
            self.prev_delta.resize(width, 0.0);
        }
    }
}

/// A contiguous row-major batch of feature rows (one sample per row,
/// `width` features each), the input side of [`Mlp::forward_batch`].
/// Rows are pushed once and the backing storage is recycled via
/// [`clear`], so a per-tick gather loop allocates nothing steady-state.
///
/// [`clear`]: FeatureMatrix::clear
#[derive(Debug, Clone, Default)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    width: usize,
}

impl FeatureMatrix {
    /// An empty matrix whose rows are `width` features wide.
    ///
    /// # Panics
    /// Panics if `width == 0`.
    #[must_use]
    pub fn new(width: usize) -> Self {
        Self::with_capacity(width, 0)
    }

    /// An empty matrix pre-sized for `rows` rows of `width` features.
    ///
    /// # Panics
    /// Panics if `width == 0`.
    #[must_use]
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        assert!(width > 0, "row width must be positive");
        Self {
            data: Vec::with_capacity(width * rows),
            width,
        }
    }

    /// Appends one sample row.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the matrix width.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        self.data.extend_from_slice(row);
    }

    /// Drops all rows, keeping the backing storage.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Number of rows currently stored.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.data.len() / self.width
    }

    /// Features per row.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Iterator over the rows, in order.
    pub fn rows_iter(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.width)
    }
}

/// A feed-forward network with tanh hidden layers and a linear output.
///
/// Weights live in one flat row-major array covering all layers; layer
/// `l` maps `shape[l]` inputs to `shape[l+1]` outputs through rows of
/// `shape[l] + 1` weights (bias last), starting at `w_off[l]`.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Layer sizes, e.g. `[6, 3, 1]`.
    shape: Vec<usize>,
    /// All layers' weights, contiguous row-major `[out][in+1]`.
    weights: Vec<f64>,
    /// Momentum velocity, same layout.
    velocity: Vec<f64>,
    /// Start of layer `l`'s weights in `weights` (len = layers + 1).
    w_off: Vec<usize>,
    /// Start of activation segment `l` in [`Scratch::acts`]: segment 0
    /// is the input copy, segment `l + 1` layer `l`'s outputs.
    act_off: Vec<usize>,
}

impl Mlp {
    /// Builds a network with the given layer sizes, e.g. `&[6, 3, 1]`
    /// for the paper's structure. Hidden layers use tanh; the final
    /// layer is linear.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given or any size is zero.
    #[must_use]
    pub fn new(shape: &[usize], rng: &mut Rng64) -> Self {
        assert!(shape.len() >= 2, "need at least input and output sizes");
        assert!(shape.iter().all(|&s| s > 0), "layer sizes must be positive");
        let mut weights = Vec::new();
        let mut w_off = Vec::with_capacity(shape.len());
        w_off.push(0);
        for w in shape.windows(2) {
            // Xavier/Glorot uniform initialisation, drawn layer by
            // layer in the historical order so seeds reproduce.
            let bound = (6.0 / (w[0] + w[1]) as f64).sqrt();
            let n = w[1] * (w[0] + 1);
            weights.extend((0..n).map(|_| rng.range_f64(-bound, bound)));
            w_off.push(weights.len());
        }
        let mut act_off = Vec::with_capacity(shape.len() + 1);
        act_off.push(0);
        for &s in shape {
            act_off.push(act_off.last().expect("seeded") + s);
        }
        let velocity = vec![0.0; weights.len()];
        Self {
            shape: shape.to_vec(),
            weights,
            velocity,
            w_off,
            act_off,
        }
    }

    /// Number of layers (weight matrices).
    #[inline]
    fn layer_count(&self) -> usize {
        self.shape.len() - 1
    }

    /// Activation of layer `l`: tanh for hidden layers, linear for the
    /// output layer.
    #[inline]
    fn activation_of(&self, l: usize) -> Activation {
        if l + 1 == self.layer_count() {
            Activation::Linear
        } else {
            Activation::Tanh
        }
    }

    /// Number of inputs the network expects.
    #[must_use]
    pub fn input_size(&self) -> usize {
        self.shape.first().copied().unwrap_or(0)
    }

    /// Number of outputs the network produces.
    #[must_use]
    pub fn output_size(&self) -> usize {
        self.shape.last().copied().unwrap_or(0)
    }

    /// One layer's forward pass from `input` into `out`.
    ///
    /// The activation dispatch is hoisted out of the row loop and the
    /// rows walked with `chunks_exact`, so the inner dot product is
    /// free of bounds checks; the accumulation order (bias first, then
    /// inputs in index order) is exactly the historical one.
    #[inline]
    fn layer_forward(&self, l: usize, input: &[f64], out: &mut [f64]) {
        let inputs = self.shape[l];
        debug_assert_eq!(input.len(), inputs);
        let w = &self.weights[self.w_off[l]..self.w_off[l + 1]];
        let rows = w.chunks_exact(inputs + 1);
        match self.activation_of(l) {
            Activation::Tanh => {
                for (slot, row) in out.iter_mut().zip(rows) {
                    *slot = dot_bias(row, input).tanh();
                }
            }
            Activation::Linear => {
                for (slot, row) in out.iter_mut().zip(rows) {
                    *slot = dot_bias(row, input);
                }
            }
        }
    }

    /// Full forward pass caching every layer's activations in `acts`
    /// (laid out per `act_off`).
    fn forward_into_acts(&self, input: &[f64], acts: &mut [f64]) {
        acts[..self.shape[0]].copy_from_slice(input);
        for l in 0..self.layer_count() {
            // Segments are consecutive, so splitting at the output
            // segment's start yields the input (left) and output
            // (right) slices without aliasing.
            let (prev, rest) = acts.split_at_mut(self.act_off[l + 1]);
            let inp = &prev[self.act_off[l]..];
            let out = &mut rest[..self.shape[l + 1]];
            self.layer_forward(l, inp, out);
        }
    }

    /// Whether the fused two-layer single-output fast path applies.
    #[inline]
    fn is_2l1(&self) -> bool {
        self.shape.len() == 3 && self.shape[2] == 1
    }

    /// Fused forward pass for a `[n, h, 1]` network (the paper's
    /// (6,3,1) everywhere in practice): tanh hidden row dot products
    /// straight into the scratch's hidden segment, then the linear
    /// output. Identical arithmetic to the generic path — only the
    /// per-layer bookkeeping (offset lookups, split_at_mut walks, the
    /// input copy nothing reads back) is gone. Returns the output.
    fn forward_2l1(&self, input: &[f64], acts: &mut [f64]) -> f64 {
        let n = self.shape[0];
        let h = self.shape[1];
        debug_assert_eq!(input.len(), n);
        let (w0, w1) = self.weights.split_at(self.w_off[1]);
        let hid_rest = &mut acts[n..];
        let (hid, out_slot) = hid_rest.split_at_mut(h);
        if h == 3 {
            // The paper's hidden width: keep the three row accumulators
            // in registers and interleave them, so the CPU overlaps the
            // three dependency chains instead of running them back to
            // back. Each accumulator still sees bias first, then
            // weight·input terms in ascending index order — the exact
            // per-slot sequence of the row-at-a-time loop.
            let (row0, rest) = w0.split_at(n + 1);
            let (row1, row2) = rest.split_at(n + 1);
            let mut a0 = row0[n];
            let mut a1 = row1[n];
            let mut a2 = row2[n];
            for (((x, w0i), w1i), w2i) in
                input.iter().zip(&row0[..n]).zip(&row1[..n]).zip(&row2[..n])
            {
                a0 += w0i * x;
                a1 += w1i * x;
                a2 += w2i * x;
            }
            hid[0] = a0.tanh();
            hid[1] = a1.tanh();
            hid[2] = a2.tanh();
        } else {
            for (slot, row) in hid.iter_mut().zip(w0.chunks_exact(n + 1)) {
                *slot = dot_bias(row, input).tanh();
            }
        }
        let o = dot_bias(w1, hid);
        out_slot[0] = o;
        o
    }

    /// Forward pass into a reusable scratch; returns the output slice.
    /// Allocation-free once the scratch is sized.
    ///
    /// # Panics
    /// Panics in debug builds if `input.len()` mismatches the network.
    pub fn forward_scratch<'s>(&self, input: &[f64], scratch: &'s mut Scratch) -> &'s [f64] {
        scratch.ensure(self);
        if self.is_2l1() {
            self.forward_2l1(input, &mut scratch.acts);
        } else {
            self.forward_into_acts(input, &mut scratch.acts);
        }
        let nl = self.layer_count();
        &scratch.acts[self.act_off[nl]..self.act_off[nl] + self.shape[nl]]
    }

    /// Batched forward pass: every row of `batch` through the network,
    /// outputs written row-major into `out` (`output_size()` values per
    /// row, so one `f64` per row for the paper's `[n, h, 1]` shape).
    ///
    /// Each row's arithmetic is exactly [`forward_scratch`]'s — the
    /// batch form only hoists the shape dispatch and scratch sizing out
    /// of the row loop, so outputs are bit-identical to per-row calls
    /// and the pass is allocation-free once the scratch is sized.
    ///
    /// # Panics
    /// Panics if `batch.width()` mismatches the network's input size or
    /// `out.len()` differs from `batch.rows() * output_size()`.
    ///
    /// [`forward_scratch`]: Self::forward_scratch
    pub fn forward_batch(&self, scratch: &mut Scratch, batch: &FeatureMatrix, out: &mut [f64]) {
        assert_eq!(batch.width(), self.input_size(), "feature width mismatch");
        let k = self.output_size();
        assert_eq!(out.len(), batch.rows() * k, "output length mismatch");
        scratch.ensure(self);
        if self.is_2l1() {
            for (slot, row) in out.iter_mut().zip(batch.rows_iter()) {
                *slot = self.forward_2l1(row, &mut scratch.acts);
            }
        } else {
            let nl = self.layer_count();
            let off = self.act_off[nl];
            for (slots, row) in out.chunks_exact_mut(k).zip(batch.rows_iter()) {
                self.forward_into_acts(row, &mut scratch.acts);
                slots.copy_from_slice(&scratch.acts[off..off + k]);
            }
        }
    }

    /// Forward pass.
    ///
    /// Convenience wrapper allocating a fresh [`Scratch`]; hot loops
    /// should hold their own scratch and call [`forward_scratch`].
    ///
    /// # Panics
    /// Panics in debug builds if `input.len()` mismatches the network.
    ///
    /// [`forward_scratch`]: Self::forward_scratch
    #[must_use]
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut scratch = Scratch::default();
        self.forward_scratch(input, &mut scratch).to_vec()
    }

    /// One stochastic-gradient step on a single (input, target) pair
    /// with momentum, fused forward+backprop inside the caller's
    /// scratch — no heap allocation once the scratch is sized. Returns
    /// the pre-update squared error.
    pub fn train_step_scratch(
        &mut self,
        scratch: &mut Scratch,
        input: &[f64],
        target: &[f64],
        learning_rate: f64,
        momentum: f64,
    ) -> f64 {
        scratch.ensure(self);
        if self.is_2l1() {
            self.train_step_2l1(scratch, input, target, learning_rate, momentum)
        } else {
            self.train_step_generic(scratch, input, target, learning_rate, momentum)
        }
    }

    /// Generic any-depth train step (see [`train_step_scratch`]); the
    /// scratch must already be sized.
    ///
    /// [`train_step_scratch`]: Self::train_step_scratch
    fn train_step_generic(
        &mut self,
        scratch: &mut Scratch,
        input: &[f64],
        target: &[f64],
        learning_rate: f64,
        momentum: f64,
    ) -> f64 {
        let nl = self.layer_count();

        // Forward pass caching every layer's activations.
        self.forward_into_acts(input, &mut scratch.acts);
        let Scratch {
            acts,
            delta,
            prev_delta,
        } = scratch;
        let out_off = self.act_off[nl];
        let output = &acts[out_off..out_off + self.shape[nl]];
        debug_assert_eq!(output.len(), target.len());
        let loss: f64 = output
            .iter()
            .zip(target)
            .map(|(o, t)| (o - t) * (o - t))
            .sum();

        // Backward pass: delta for the output layer of MSE loss (the
        // derivative is expressed via the output itself).
        let act_last = self.activation_of(nl - 1);
        for ((d, o), t) in delta.iter_mut().zip(output).zip(target) {
            *d = 2.0 * (o - t) * act_last.derivative_from_output(*o);
        }

        // Every inner loop below is a zip over `chunks_exact` rows (no
        // bounds checks); each array slot still receives exactly the
        // historical operation sequence. In particular the propagated
        // delta accumulates `delta[o]·w[o][i]` over ascending `o`
        // starting from 0.0 — the same per-slot order as the original
        // per-`i` column sums, just driven row-major.
        for li in (0..nl).rev() {
            let inputs = self.shape[li];
            let outputs = self.shape[li + 1];
            let in_off = self.act_off[li];
            let acts_in = &acts[in_off..in_off + inputs];
            let w_range = self.w_off[li]..self.w_off[li + 1];
            // Compute the delta to propagate before mutating weights.
            if li > 0 {
                let below_act = self.activation_of(li - 1);
                let w = &self.weights[w_range.clone()];
                let pd = &mut prev_delta[..inputs];
                pd.fill(0.0);
                for (d, row) in delta[..outputs].iter().zip(w.chunks_exact(inputs + 1)) {
                    for (p, wv) in pd.iter_mut().zip(&row[..inputs]) {
                        *p += d * wv;
                    }
                }
                for (p, a) in pd.iter_mut().zip(acts_in) {
                    *p *= below_act.derivative_from_output(*a);
                }
            }
            let wl = &mut self.weights[w_range.clone()];
            let vl = &mut self.velocity[w_range];
            for ((row_w, row_v), d) in wl
                .chunks_exact_mut(inputs + 1)
                .zip(vl.chunks_exact_mut(inputs + 1))
                .zip(&delta[..outputs])
            {
                let (ww, wb) = row_w.split_at_mut(inputs);
                let (vv, vb) = row_v.split_at_mut(inputs);
                for ((wv, vel), a) in ww.iter_mut().zip(vv.iter_mut()).zip(acts_in) {
                    let grad = d * a;
                    let v = momentum * *vel - learning_rate * grad;
                    *vel = v;
                    *wv += v;
                }
                // Bias.
                let grad = *d;
                let v = momentum * vb[0] - learning_rate * grad;
                vb[0] = v;
                wb[0] += v;
            }
            std::mem::swap(delta, prev_delta);
        }
        loss
    }

    /// Fused forward+backprop step for a `[n, h, 1]` network. The
    /// operation sequence is the generic path's, verbatim: forward,
    /// squared error, output delta `2·(o−t)` (the linear derivative's
    /// `·1.0` is an exact identity), hidden deltas through the
    /// **pre-update** output row (accumulated from 0.0 like the generic
    /// column sums), then velocity/weight updates top layer first, rows
    /// in order, coefficients before bias.
    fn train_step_2l1(
        &mut self,
        scratch: &mut Scratch,
        input: &[f64],
        target: &[f64],
        learning_rate: f64,
        momentum: f64,
    ) -> f64 {
        let n = self.shape[0];
        let h = self.shape[1];
        let o = self.forward_2l1(input, &mut scratch.acts);
        let t = target[0];
        // A square is never -0.0, so skipping the generic path's
        // `0.0 + …` fold leaves the loss bit-identical.
        let loss = (o - t) * (o - t);
        let d_out = 2.0 * (o - t);

        let w_split = self.w_off[1];
        let (w0, w1) = self.weights.split_at_mut(w_split);
        let (v0, v1) = self.velocity.split_at_mut(w_split);
        let hid = &scratch.acts[n..n + h];

        // Hidden deltas through the pre-update output row.
        let pd = &mut scratch.prev_delta[..h];
        for ((p, wv), y) in pd.iter_mut().zip(w1.iter()).zip(hid) {
            let sum = 0.0 + d_out * wv;
            *p = sum * (1.0 - y * y);
        }

        // Output row update.
        {
            let (w1c, w1b) = w1.split_at_mut(h);
            let (v1c, v1b) = v1.split_at_mut(h);
            for ((wv, vel), y) in w1c.iter_mut().zip(v1c.iter_mut()).zip(hid) {
                let grad = d_out * y;
                let v = momentum * *vel - learning_rate * grad;
                *vel = v;
                *wv += v;
            }
            let v = momentum * v1b[0] - learning_rate * d_out;
            v1b[0] = v;
            w1b[0] += v;
        }

        // Hidden rows (the generic path reads the input back out of the
        // activation scratch; the values are the caller's, verbatim).
        for ((row_w, row_v), d) in w0
            .chunks_exact_mut(n + 1)
            .zip(v0.chunks_exact_mut(n + 1))
            .zip(pd.iter())
        {
            let (ww, wb) = row_w.split_at_mut(n);
            let (vv, vb) = row_v.split_at_mut(n);
            for ((wv, vel), x) in ww.iter_mut().zip(vv.iter_mut()).zip(input) {
                let grad = d * x;
                let v = momentum * *vel - learning_rate * grad;
                *vel = v;
                *wv += v;
            }
            let v = momentum * vb[0] - learning_rate * *d;
            vb[0] = v;
            wb[0] += v;
        }
        loss
    }

    /// One stochastic-gradient step on a single (input, target) pair
    /// with momentum. Returns the pre-update squared error.
    ///
    /// Convenience wrapper allocating a fresh [`Scratch`]; hot loops
    /// should hold their own scratch and call [`train_step_scratch`].
    ///
    /// [`train_step_scratch`]: Self::train_step_scratch
    pub fn train_step(
        &mut self,
        input: &[f64],
        target: &[f64],
        learning_rate: f64,
        momentum: f64,
    ) -> f64 {
        let mut scratch = Scratch::default();
        self.train_step_scratch(&mut scratch, input, target, learning_rate, momentum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_sizes() {
        let mut rng = Rng64::seed_from(1);
        let net = Mlp::new(&[6, 3, 1], &mut rng);
        assert_eq!(net.input_size(), 6);
        assert_eq!(net.output_size(), 1);
        assert_eq!(net.forward(&[0.0; 6]).len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_single_layer() {
        let mut rng = Rng64::seed_from(1);
        let _ = Mlp::new(&[4], &mut rng);
    }

    #[test]
    fn deterministic_initialisation() {
        let mut r1 = Rng64::seed_from(7);
        let mut r2 = Rng64::seed_from(7);
        let a = Mlp::new(&[4, 3, 1], &mut r1);
        let b = Mlp::new(&[4, 3, 1], &mut r2);
        assert_eq!(
            a.forward(&[0.1, 0.2, 0.3, 0.4]),
            b.forward(&[0.1, 0.2, 0.3, 0.4])
        );
    }

    #[test]
    fn scratch_paths_match_allocating_wrappers() {
        // The fused scratch kernels and the wrapper API must produce
        // bit-identical outputs and weight trajectories.
        let mut r1 = Rng64::seed_from(21);
        let mut r2 = Rng64::seed_from(21);
        let mut a = Mlp::new(&[6, 3, 1], &mut r1);
        let mut b = Mlp::new(&[6, 3, 1], &mut r2);
        let mut scratch = Scratch::default();
        let xs: Vec<[f64; 6]> = (0..50)
            .map(|i| std::array::from_fn(|j| ((i * 7 + j) as f64 * 0.13).sin()))
            .collect();
        for (i, x) in xs.iter().enumerate() {
            let t = [(i as f64 * 0.05).cos()];
            let la = a.train_step(x, &t, 0.05, 0.3);
            let lb = b.train_step_scratch(&mut scratch, x, &t, 0.05, 0.3);
            assert_eq!(la.to_bits(), lb.to_bits(), "loss diverged at sample {i}");
        }
        for x in &xs {
            let fa = a.forward(x);
            let fb = b.forward_scratch(x, &mut scratch);
            assert_eq!(fa[0].to_bits(), fb[0].to_bits());
        }
    }

    #[test]
    fn fused_2l1_path_matches_generic_bitwise() {
        // The paper-shape fast path must reproduce the generic layered
        // implementation bit for bit: same losses, same weight
        // trajectory, same forward outputs along the way.
        let mut r1 = Rng64::seed_from(33);
        let mut r2 = Rng64::seed_from(33);
        let mut fast = Mlp::new(&[6, 3, 1], &mut r1);
        let mut slow = Mlp::new(&[6, 3, 1], &mut r2);
        let mut s_fast = Scratch::default();
        let mut s_slow = Scratch::default();
        for i in 0..200 {
            let x: [f64; 6] = std::array::from_fn(|j| ((i * 11 + j * 3) as f64 * 0.07).sin());
            let t = [(i as f64 * 0.09).cos()];
            s_slow.ensure(&slow);
            let lf = fast.train_step_scratch(&mut s_fast, &x, &t, 0.05, 0.3);
            let ls = slow.train_step_generic(&mut s_slow, &x, &t, 0.05, 0.3);
            assert_eq!(lf.to_bits(), ls.to_bits(), "loss diverged at step {i}");
            let of = fast.forward_2l1(&x, &mut s_fast.acts);
            slow.forward_into_acts(&x, &mut s_slow.acts);
            let os = s_slow.acts[slow.act_off[2]];
            assert_eq!(of.to_bits(), os.to_bits(), "output diverged at step {i}");
        }
        for (a, b) in fast.weights.iter().zip(&slow.weights) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in fast.velocity.iter().zip(&slow.velocity) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn forward_batch_matches_per_row_bitwise() {
        // The batched kernel must be pinned to the per-row path bit for
        // bit, on both the fused paper shape and the generic layered
        // path (including a multi-output network).
        for shape in [&[6usize, 3, 1][..], &[5, 4, 2][..], &[4, 7, 3, 1][..]] {
            let mut rng = Rng64::seed_from(33);
            let net = Mlp::new(shape, &mut rng);
            let n = net.input_size();
            let k = net.output_size();
            let mut batch = FeatureMatrix::with_capacity(n, 200);
            for i in 0..200usize {
                let row: Vec<f64> = (0..n)
                    .map(|j| ((i * 11 + j * 3) as f64 * 0.07).sin())
                    .collect();
                batch.push_row(&row);
            }
            let mut s_batch = Scratch::default();
            let mut s_row = Scratch::default();
            let mut out = vec![0.0; batch.rows() * k];
            net.forward_batch(&mut s_batch, &batch, &mut out);
            for (i, slots) in out.chunks_exact(k).enumerate() {
                let per_row = net.forward_scratch(batch.row(i), &mut s_row);
                for (a, b) in slots.iter().zip(per_row) {
                    assert_eq!(a.to_bits(), b.to_bits(), "row {i} diverged ({shape:?})");
                }
            }
        }
    }

    #[test]
    fn feature_matrix_roundtrips_rows() {
        let mut m = FeatureMatrix::new(3);
        assert_eq!((m.rows(), m.width()), (0, 3));
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.rows_iter().count(), 2);
        m.clear();
        assert_eq!(m.rows(), 0);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn feature_matrix_rejects_ragged_rows() {
        let mut m = FeatureMatrix::new(3);
        m.push_row(&[1.0, 2.0]);
    }

    #[test]
    fn scratch_is_reusable_across_networks() {
        // One scratch serves differently-shaped networks back to back.
        let mut rng = Rng64::seed_from(2);
        let big = Mlp::new(&[8, 5, 2], &mut rng);
        let small = Mlp::new(&[2, 3, 1], &mut rng);
        let mut scratch = Scratch::default();
        assert_eq!(big.forward_scratch(&[0.1; 8], &mut scratch).len(), 2);
        let out = small.forward_scratch(&[0.3, -0.2], &mut scratch)[0];
        assert_eq!(out.to_bits(), small.forward(&[0.3, -0.2])[0].to_bits());
    }

    #[test]
    fn learns_linear_function() {
        // y = 0.5·x1 − 0.3·x2 + 0.1.
        let mut rng = Rng64::seed_from(3);
        let mut net = Mlp::new(&[2, 4, 1], &mut rng);
        let f = |x1: f64, x2: f64| 0.5 * x1 - 0.3 * x2 + 0.1;
        let mut data_rng = Rng64::seed_from(11);
        let samples: Vec<([f64; 2], f64)> = (0..200)
            .map(|_| {
                let x1 = data_rng.range_f64(-1.0, 1.0);
                let x2 = data_rng.range_f64(-1.0, 1.0);
                ([x1, x2], f(x1, x2))
            })
            .collect();
        let mut scratch = Scratch::default();
        for _era in 0..200 {
            for (x, y) in &samples {
                net.train_step_scratch(&mut scratch, x, &[*y], 0.05, 0.5);
            }
        }
        let mse: f64 = samples
            .iter()
            .map(|(x, y)| {
                let o = net.forward(x)[0];
                (o - y) * (o - y)
            })
            .sum::<f64>()
            / samples.len() as f64;
        assert!(mse < 1e-3, "mse {mse}");
    }

    #[test]
    fn learns_nonlinear_function() {
        // y = x² on [−1, 1] needs the hidden tanh layer.
        let mut rng = Rng64::seed_from(5);
        let mut net = Mlp::new(&[1, 6, 1], &mut rng);
        let xs: Vec<f64> = (0..40).map(|i| -1.0 + 2.0 * i as f64 / 39.0).collect();
        for _era in 0..800 {
            for &x in &xs {
                net.train_step(&[x], &[x * x], 0.05, 0.3);
            }
        }
        let mse: f64 = xs
            .iter()
            .map(|&x| {
                let o = net.forward(&[x])[0];
                (o - x * x) * (o - x * x)
            })
            .sum::<f64>()
            / xs.len() as f64;
        assert!(mse < 5e-3, "mse {mse}");
    }

    #[test]
    fn train_step_reports_decreasing_loss() {
        let mut rng = Rng64::seed_from(9);
        let mut net = Mlp::new(&[3, 3, 1], &mut rng);
        let input = [0.2, -0.4, 0.6];
        let target = [0.5];
        let first = net.train_step(&input, &target, 0.1, 0.0);
        let mut last = first;
        for _ in 0..100 {
            last = net.train_step(&input, &target, 0.1, 0.0);
        }
        assert!(last < first * 0.01, "first {first} last {last}");
    }

    #[test]
    fn paper_structure_631_trains() {
        let mut rng = Rng64::seed_from(13);
        let mut net = Mlp::new(&[6, 3, 1], &mut rng);
        // Predict the next value of a normalised sine from 6 lags.
        let series: Vec<f64> = (0..300)
            .map(|i| 0.5 + 0.4 * (i as f64 * 0.2).sin())
            .collect();
        for _era in 0..60 {
            for w in series.windows(7) {
                net.train_step(&w[..6], &[w[6]], 0.05, 0.3);
            }
        }
        let mut worst: f64 = 0.0;
        for w in series.windows(7).take(50) {
            let pred = net.forward(&w[..6])[0];
            worst = worst.max((pred - w[6]).abs());
        }
        assert!(worst < 0.1, "worst abs error {worst}");
    }
}
