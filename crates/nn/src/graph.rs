//! The autograd tape.
//!
//! A [`Graph`] records every forward operation as a node; [`Graph::backward`]
//! replays the tape in reverse, accumulating gradients. Each training step
//! builds a fresh graph — the models here are small enough that the
//! simplicity (no retained-graph lifetimes, no interior mutability) is worth
//! the per-step allocation.
//!
//! Every operation's gradient is validated against central finite
//! differences in this crate's test suite (see `gradcheck`).

use crate::optim::ParamId;
use crate::tensor::Tensor;
use rand::Rng;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    Leaf,
    /// Elementwise sum of two same-shaped tensors.
    Add,
    /// Elementwise difference.
    Sub,
    /// Elementwise (Hadamard) product.
    Mul,
    /// Multiplication by a constant.
    Scale(f32),
    /// `[n,d] + [d]` (or `[1,d]`) broadcast over rows.
    AddBiasRows,
    /// 2-D matrix product.
    Matmul,
    /// 2-D transpose.
    Transpose,
    Tanh,
    Relu,
    Sigmoid,
    /// Row-wise softmax of a 2-D tensor; node value caches the output.
    SoftmaxRows,
    /// Row-wise layer normalization; parents are `(x, gamma, beta)`.
    LayerNorm {
        xhat: Tensor,
        inv_std: Vec<f32>,
    },
    /// Column range `[from, to)` of a 2-D tensor.
    ColSlice {
        from: usize,
        to: usize,
    },
    /// Horizontal concatenation of 2-D tensors with equal row counts.
    ConcatCols {
        widths: Vec<usize>,
    },
    /// Concatenation of 1-D tensors.
    Concat1d {
        lens: Vec<usize>,
    },
    /// Stacks `n` 1-D tensors of length `d` into `[n,d]`.
    StackRows {
        dim: usize,
    },
    /// Row `i` of a 2-D tensor as `[1,d]`.
    RowSlice {
        row: usize,
    },
    /// Shape change over the same elements.
    Reshape {
        parent_shape: Vec<usize>,
    },
    /// Sum of all elements, shape `[1]`.
    Sum,
    /// Mean of all elements, shape `[1]`.
    Mean,
    /// Inverted-dropout mask applied at train time.
    Dropout {
        mask: Tensor,
    },
    /// Row `index` of an embedding table.
    EmbeddingRow {
        index: usize,
    },
    /// Cross-entropy of 1-D logits against a target index; caches softmax.
    SoftmaxCe1d {
        target: usize,
        probs: Tensor,
    },
    /// 2-D convolution: parents `(input [ci,h,w], kernel [co,ci,kh,kw],
    /// bias [co])`, stride 1, symmetric zero padding.
    Conv2d {
        pad: usize,
    },
}

struct Node {
    value: Tensor,
    parents: Vec<usize>,
    op: Op,
    needs_grad: bool,
}

/// Gradients produced by [`Graph::backward`].
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss with respect to `var`, if it participated.
    pub fn get(&self, var: Var) -> Option<&Tensor> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }
}

/// A forward tape; see the module docs.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    params: Vec<(ParamId, usize)>,
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, value: Tensor, parents: Vec<usize>, op: Op) -> Var {
        let needs_grad = parents.iter().any(|&p| self.nodes[p].needs_grad);
        self.nodes.push(Node {
            value,
            parents,
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// A leaf that does not require gradients (model inputs).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.nodes.push(Node {
            value,
            parents: vec![],
            op: Op::Leaf,
            needs_grad: false,
        });
        Var(self.nodes.len() - 1)
    }

    /// A leaf bound to an optimizer parameter; gradients flow to it.
    pub fn param(&mut self, id: ParamId, value: Tensor) -> Var {
        self.nodes.push(Node {
            value,
            parents: vec![],
            op: Op::Leaf,
            needs_grad: true,
        });
        let var = Var(self.nodes.len() - 1);
        self.params.push((id, var.0));
        var
    }

    /// The current value of a node.
    pub fn value(&self, var: Var) -> &Tensor {
        &self.nodes[var.0].value
    }

    /// Elementwise sum; shapes must match.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x + y);
        self.push(v, vec![a.0, b.0], Op::Add)
    }

    /// Elementwise difference; shapes must match.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x - y);
        self.push(v, vec![a.0, b.0], Op::Sub)
    }

    /// Elementwise product; shapes must match.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x * y);
        self.push(v, vec![a.0, b.0], Op::Mul)
    }

    /// Multiplies every element by a constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.nodes[a.0].value.map(|x| x * c);
        self.push(v, vec![a.0], Op::Scale(c))
    }

    /// Adds a `[d]` or `[1,d]` bias to every row of a `[n,d]` tensor.
    pub fn add_bias_rows(&mut self, a: Var, bias: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[bias.0].value;
        let (n, d) = (av.rows(), av.cols());
        assert_eq!(bv.numel(), d, "bias length {} != cols {d}", bv.numel());
        let mut out = av.data().to_vec();
        for i in 0..n {
            for j in 0..d {
                out[i * d + j] += bv.data()[j];
            }
        }
        self.push(
            Tensor::new(vec![n, d], out),
            vec![a.0, bias.0],
            Op::AddBiasRows,
        )
    }

    /// 2-D matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(v, vec![a.0, b.0], Op::Matmul)
    }

    /// 2-D transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.transposed();
        self.push(v, vec![a.0], Op::Transpose)
    }

    /// Elementwise `tanh`.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f32::tanh);
        self.push(v, vec![a.0], Op::Tanh)
    }

    /// Elementwise rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| x.max(0.0));
        self.push(v, vec![a.0], Op::Relu)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, vec![a.0], Op::Sigmoid)
    }

    /// Numerically-stable row-wise softmax of a 2-D tensor.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let (n, d) = (av.rows(), av.cols());
        let mut out = vec![0.0f32; n * d];
        for i in 0..n {
            let row = &av.data()[i * d..(i + 1) * d];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for j in 0..d {
                let e = (row[j] - max).exp();
                out[i * d + j] = e;
                denom += e;
            }
            for j in 0..d {
                out[i * d + j] /= denom;
            }
        }
        self.push(Tensor::new(vec![n, d], out), vec![a.0], Op::SoftmaxRows)
    }

    /// Row-wise layer normalization with learned `gamma` and `beta` (`[d]`).
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        const EPS: f32 = 1e-5;
        let xv = &self.nodes[x.0].value;
        let (n, d) = (xv.rows(), xv.cols());
        let gv = &self.nodes[gamma.0].value;
        let bv = &self.nodes[beta.0].value;
        assert_eq!(gv.numel(), d);
        assert_eq!(bv.numel(), d);
        let mut xhat = vec![0.0f32; n * d];
        let mut inv_std = vec![0.0f32; n];
        let mut out = vec![0.0f32; n * d];
        for i in 0..n {
            let row = &xv.data()[i * d..(i + 1) * d];
            let mu = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
            let is = 1.0 / (var + EPS).sqrt();
            inv_std[i] = is;
            for j in 0..d {
                let xh = (row[j] - mu) * is;
                xhat[i * d + j] = xh;
                out[i * d + j] = xh * gv.data()[j] + bv.data()[j];
            }
        }
        self.push(
            Tensor::new(vec![n, d], out),
            vec![x.0, gamma.0, beta.0],
            Op::LayerNorm {
                xhat: Tensor::new(vec![n, d], xhat),
                inv_std,
            },
        )
    }

    /// Columns `[from, to)` of a 2-D tensor.
    pub fn col_slice(&mut self, a: Var, from: usize, to: usize) -> Var {
        let av = &self.nodes[a.0].value;
        let (n, d) = (av.rows(), av.cols());
        assert!(from < to && to <= d, "col_slice {from}..{to} of {d}");
        let w = to - from;
        let mut out = vec![0.0f32; n * w];
        for i in 0..n {
            out[i * w..(i + 1) * w].copy_from_slice(&av.data()[i * d + from..i * d + to]);
        }
        self.push(
            Tensor::new(vec![n, w], out),
            vec![a.0],
            Op::ColSlice { from, to },
        )
    }

    /// Horizontal concatenation of 2-D tensors with identical row counts.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty());
        let n = self.nodes[parts[0].0].value.rows();
        let widths: Vec<usize> = parts
            .iter()
            .map(|v| {
                let t = &self.nodes[v.0].value;
                assert_eq!(t.rows(), n, "concat_cols row mismatch");
                t.cols()
            })
            .collect();
        let total: usize = widths.iter().sum();
        let mut out = vec![0.0f32; n * total];
        for i in 0..n {
            let mut off = 0;
            for (v, &w) in parts.iter().zip(&widths) {
                let t = &self.nodes[v.0].value;
                out[i * total + off..i * total + off + w]
                    .copy_from_slice(&t.data()[i * w..(i + 1) * w]);
                off += w;
            }
        }
        self.push(
            Tensor::new(vec![n, total], out),
            parts.iter().map(|v| v.0).collect(),
            Op::ConcatCols { widths },
        )
    }

    /// Concatenation of 1-D tensors into one vector.
    pub fn concat1d(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty());
        let lens: Vec<usize> = parts
            .iter()
            .map(|v| self.nodes[v.0].value.numel())
            .collect();
        let mut out = Vec::with_capacity(lens.iter().sum());
        for v in parts {
            out.extend_from_slice(self.nodes[v.0].value.data());
        }
        self.push(
            Tensor::new(vec![out.len()], out),
            parts.iter().map(|v| v.0).collect(),
            Op::Concat1d { lens },
        )
    }

    /// Stacks `n` 1-D tensors of equal length `d` into a `[n,d]` matrix.
    pub fn stack_rows(&mut self, rows: &[Var]) -> Var {
        assert!(!rows.is_empty());
        let d = self.nodes[rows[0].0].value.numel();
        let mut out = Vec::with_capacity(rows.len() * d);
        for v in rows {
            let t = &self.nodes[v.0].value;
            assert_eq!(t.numel(), d, "stack_rows length mismatch");
            out.extend_from_slice(t.data());
        }
        self.push(
            Tensor::new(vec![rows.len(), d], out),
            rows.iter().map(|v| v.0).collect(),
            Op::StackRows { dim: d },
        )
    }

    /// Row `row` of a 2-D tensor, shaped `[1,d]`.
    pub fn row_slice(&mut self, a: Var, row: usize) -> Var {
        let av = &self.nodes[a.0].value;
        let (n, d) = (av.rows(), av.cols());
        assert!(row < n);
        let out = av.data()[row * d..(row + 1) * d].to_vec();
        self.push(
            Tensor::new(vec![1, d], out),
            vec![a.0],
            Op::RowSlice { row },
        )
    }

    /// Shape change covering the same elements.
    pub fn reshape(&mut self, a: Var, shape: Vec<usize>) -> Var {
        let parent_shape = self.nodes[a.0].value.shape().to_vec();
        let v = self.nodes[a.0].value.reshaped(shape);
        self.push(v, vec![a.0], Op::Reshape { parent_shape })
    }

    /// Sum of all elements as a scalar node.
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.nodes[a.0].value.sum());
        self.push(v, vec![a.0], Op::Sum)
    }

    /// Mean of all elements as a scalar node.
    pub fn mean(&mut self, a: Var) -> Var {
        let t = &self.nodes[a.0].value;
        let v = Tensor::scalar(t.sum() / t.numel() as f32);
        self.push(v, vec![a.0], Op::Mean)
    }

    /// Inverted dropout: at train time zeroes each element with probability
    /// `p` and scales survivors by `1/(1-p)`; at eval time is the identity.
    pub fn dropout<R: Rng>(&mut self, a: Var, p: f32, training: bool, rng: &mut R) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        // lint: allow(L5, exact 0 disables dropout; any nonzero p takes the other branch)
        if !training || p == 0.0 {
            let v = self.nodes[a.0].value.clone();
            let mask = Tensor::full(v.shape().to_vec(), 1.0);
            return self.push(v, vec![a.0], Op::Dropout { mask });
        }
        let keep = 1.0 - p;
        let shape = self.nodes[a.0].value.shape().to_vec();
        let mask_data: Vec<f32> = (0..self.nodes[a.0].value.numel())
            .map(|_| {
                if rng.gen_range(0.0f32..1.0) < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        let mask = Tensor::new(shape, mask_data);
        let v = self.nodes[a.0].value.zip(&mask, |x, m| x * m);
        self.push(v, vec![a.0], Op::Dropout { mask })
    }

    /// Row `index` of an embedding table (`[vocab, d]`) as a 1-D vector.
    pub fn embedding_row(&mut self, table: Var, index: usize) -> Var {
        let tv = &self.nodes[table.0].value;
        let (v, d) = (tv.rows(), tv.cols());
        assert!(index < v, "embedding index {index} out of {v}");
        let out = tv.data()[index * d..(index + 1) * d].to_vec();
        self.push(
            Tensor::new(vec![d], out),
            vec![table.0],
            Op::EmbeddingRow { index },
        )
    }

    /// Cross-entropy loss of 1-D logits against `target`, as a scalar node.
    pub fn softmax_cross_entropy_1d(&mut self, logits: Var, target: usize) -> Var {
        let lv = &self.nodes[logits.0].value;
        assert_eq!(lv.shape().len(), 1, "expected 1-D logits");
        let n = lv.numel();
        assert!(target < n, "target {target} out of {n}");
        let max = lv.data().iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = lv.data().iter().map(|&x| (x - max).exp()).collect();
        let denom: f32 = exps.iter().sum();
        let probs: Vec<f32> = exps.iter().map(|&e| e / denom).collect();
        let loss = -(probs[target].max(1e-12)).ln();
        self.push(
            Tensor::scalar(loss),
            vec![logits.0],
            Op::SoftmaxCe1d {
                target,
                probs: Tensor::vector(&probs),
            },
        )
    }

    /// Stride-1 2-D convolution with symmetric zero padding.
    ///
    /// `input` is `[c_in, h, w]`, `kernel` is `[c_out, c_in, kh, kw]`,
    /// `bias` is `[c_out]`; output is `[c_out, h', w']` with
    /// `h' = h + 2*pad - kh + 1`.
    pub fn conv2d(&mut self, input: Var, kernel: Var, bias: Var, pad: usize) -> Var {
        let iv = self.nodes[input.0].value.clone();
        let kv = self.nodes[kernel.0].value.clone();
        let bv = self.nodes[bias.0].value.clone();
        let (ci, h, w) = (iv.shape()[0], iv.shape()[1], iv.shape()[2]);
        let (co, ci2, kh, kw) = (kv.shape()[0], kv.shape()[1], kv.shape()[2], kv.shape()[3]);
        assert_eq!(ci, ci2, "conv2d channel mismatch");
        assert_eq!(bv.numel(), co);
        let oh = h + 2 * pad - kh + 1;
        let ow = w + 2 * pad - kw + 1;
        let mut out = vec![0.0f32; co * oh * ow];
        for c_out in 0..co {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bv.data()[c_out];
                    for c_in in 0..ci {
                        for ky in 0..kh {
                            let iy = oy + ky;
                            if iy < pad || iy - pad >= h {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = ox + kx;
                                if ix < pad || ix - pad >= w {
                                    continue;
                                }
                                let ival = iv.data()[c_in * h * w + (iy - pad) * w + (ix - pad)];
                                let kval = kv.data()[((c_out * ci + c_in) * kh + ky) * kw + kx];
                                acc += ival * kval;
                            }
                        }
                    }
                    out[c_out * oh * ow + oy * ow + ox] = acc;
                }
            }
        }
        self.push(
            Tensor::new(vec![co, oh, ow], out),
            vec![input.0, kernel.0, bias.0],
            Op::Conv2d { pad },
        )
    }

    /// Runs reverse-mode accumulation from `loss` (which must be scalar).
    ///
    /// Returns per-node gradients; use [`Gradients::get`] or
    /// [`Graph::param_grads`] to retrieve them.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(
            self.nodes[loss.0].value.numel(),
            1,
            "backward() needs a scalar loss"
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Tensor::scalar(1.0));

        for idx in (0..=loss.0).rev() {
            let Some(g) = grads[idx].take() else {
                continue;
            };
            let node = &self.nodes[idx];
            if node.needs_grad || !node.parents.is_empty() {
                self.accumulate_parents(idx, &g, &mut grads);
            }
            grads[idx] = Some(g);
        }
        Gradients { grads }
    }

    /// Gradients for every parameter leaf registered via [`Graph::param`].
    pub fn param_grads<'a>(
        &'a self,
        grads: &'a Gradients,
    ) -> impl Iterator<Item = (ParamId, &'a Tensor)> + 'a {
        self.params
            .iter()
            .filter_map(move |&(pid, node)| grads.grads[node].as_ref().map(|g| (pid, g)))
    }

    /// Like [`Graph::param_grads`], but consumes the gradient buffer and
    /// returns the tensors by value — the zero-copy handoff data-parallel
    /// training uses to ship per-sample gradients between threads before
    /// accumulating them in a fixed order.
    pub fn take_param_grads(&self, mut grads: Gradients) -> Vec<(ParamId, Tensor)> {
        self.params
            .iter()
            .filter_map(|&(pid, node)| grads.grads[node].take().map(|g| (pid, g)))
            .collect()
    }

    #[allow(clippy::needless_range_loop)] // index couples several arrays
    fn accumulate_parents(&self, idx: usize, g: &Tensor, grads: &mut [Option<Tensor>]) {
        let node = &self.nodes[idx];
        let mut add_grad = |parent: usize, grad: Tensor| {
            if !self.nodes[parent].needs_grad {
                // No parameter below this node: the gradient would never be
                // consumed, so don't store it (prunes constant subtrees).
                return;
            }
            match &mut grads[parent] {
                Some(existing) => existing.add_assign(&grad),
                slot @ None => *slot = Some(grad),
            }
        };

        match &node.op {
            Op::Leaf => {}
            Op::Add => {
                add_grad(node.parents[0], g.clone());
                add_grad(node.parents[1], g.clone());
            }
            Op::Sub => {
                add_grad(node.parents[0], g.clone());
                add_grad(node.parents[1], g.map(|x| -x));
            }
            Op::Mul => {
                let a = &self.nodes[node.parents[0]].value;
                let b = &self.nodes[node.parents[1]].value;
                add_grad(node.parents[0], g.zip(b, |gv, bv| gv * bv));
                add_grad(node.parents[1], g.zip(a, |gv, av| gv * av));
            }
            Op::Scale(c) => add_grad(node.parents[0], g.map(|x| x * c)),
            Op::AddBiasRows => {
                add_grad(node.parents[0], g.clone());
                let bias_shape = self.nodes[node.parents[1]].value.shape().to_vec();
                let (n, d) = (g.rows(), g.cols());
                let mut gb = vec![0.0f32; d];
                for i in 0..n {
                    for j in 0..d {
                        gb[j] += g.data()[i * d + j];
                    }
                }
                add_grad(node.parents[1], Tensor::new(bias_shape, gb));
            }
            Op::Matmul => {
                let a = &self.nodes[node.parents[0]].value;
                let b = &self.nodes[node.parents[1]].value;
                add_grad(node.parents[0], g.matmul(&b.transposed()));
                add_grad(node.parents[1], a.transposed().matmul(g));
            }
            Op::Transpose => add_grad(node.parents[0], g.transposed()),
            Op::Tanh => {
                let y = &node.value;
                add_grad(node.parents[0], g.zip(y, |gv, yv| gv * (1.0 - yv * yv)));
            }
            Op::Relu => {
                let y = &node.value;
                add_grad(
                    node.parents[0],
                    g.zip(y, |gv, yv| if yv > 0.0 { gv } else { 0.0 }),
                );
            }
            Op::Sigmoid => {
                let y = &node.value;
                add_grad(node.parents[0], g.zip(y, |gv, yv| gv * yv * (1.0 - yv)));
            }
            Op::SoftmaxRows => {
                let s = &node.value;
                let (n, d) = (s.rows(), s.cols());
                let mut gx = vec![0.0f32; n * d];
                for i in 0..n {
                    let srow = &s.data()[i * d..(i + 1) * d];
                    let grow = &g.data()[i * d..(i + 1) * d];
                    let dot: f32 = srow.iter().zip(grow).map(|(&sv, &gv)| sv * gv).sum();
                    for j in 0..d {
                        gx[i * d + j] = srow[j] * (grow[j] - dot);
                    }
                }
                add_grad(node.parents[0], Tensor::new(vec![n, d], gx));
            }
            Op::LayerNorm { xhat, inv_std } => {
                let gamma = &self.nodes[node.parents[1]].value;
                let (n, d) = (xhat.rows(), xhat.cols());
                let mut gx = vec![0.0f32; n * d];
                let mut ggamma = vec![0.0f32; d];
                let mut gbeta = vec![0.0f32; d];
                for i in 0..n {
                    let xh = &xhat.data()[i * d..(i + 1) * d];
                    let grow = &g.data()[i * d..(i + 1) * d];
                    let mut mean_dxhat = 0.0f32;
                    let mut mean_dxhat_xhat = 0.0f32;
                    for j in 0..d {
                        let dxh = grow[j] * gamma.data()[j];
                        mean_dxhat += dxh;
                        mean_dxhat_xhat += dxh * xh[j];
                        ggamma[j] += grow[j] * xh[j];
                        gbeta[j] += grow[j];
                    }
                    mean_dxhat /= d as f32;
                    mean_dxhat_xhat /= d as f32;
                    for j in 0..d {
                        let dxh = grow[j] * gamma.data()[j];
                        gx[i * d + j] = inv_std[i] * (dxh - mean_dxhat - xh[j] * mean_dxhat_xhat);
                    }
                }
                let gamma_shape = gamma.shape().to_vec();
                let beta_shape = self.nodes[node.parents[2]].value.shape().to_vec();
                add_grad(node.parents[0], Tensor::new(vec![n, d], gx));
                add_grad(node.parents[1], Tensor::new(gamma_shape, ggamma));
                add_grad(node.parents[2], Tensor::new(beta_shape, gbeta));
            }
            Op::ColSlice { from, to } => {
                let parent = &self.nodes[node.parents[0]].value;
                let (n, d) = (parent.rows(), parent.cols());
                let w = to - from;
                let mut gx = vec![0.0f32; n * d];
                for i in 0..n {
                    gx[i * d + from..i * d + to].copy_from_slice(&g.data()[i * w..(i + 1) * w]);
                }
                add_grad(node.parents[0], Tensor::new(vec![n, d], gx));
            }
            Op::ConcatCols { widths } => {
                let n = node.value.rows();
                let total = node.value.cols();
                let mut off = 0;
                for (pi, &w) in node.parents.iter().zip(widths) {
                    let mut gp = vec![0.0f32; n * w];
                    for i in 0..n {
                        gp[i * w..(i + 1) * w]
                            .copy_from_slice(&g.data()[i * total + off..i * total + off + w]);
                    }
                    add_grad(*pi, Tensor::new(vec![n, w], gp));
                    off += w;
                }
            }
            Op::Concat1d { lens } => {
                let mut off = 0;
                for (pi, &l) in node.parents.iter().zip(lens) {
                    add_grad(*pi, Tensor::vector(&g.data()[off..off + l]));
                    off += l;
                }
            }
            Op::StackRows { dim } => {
                for (i, pi) in node.parents.iter().enumerate() {
                    add_grad(*pi, Tensor::vector(&g.data()[i * dim..(i + 1) * dim]));
                }
            }
            Op::RowSlice { row } => {
                let parent = &self.nodes[node.parents[0]].value;
                let (n, d) = (parent.rows(), parent.cols());
                let mut gx = vec![0.0f32; n * d];
                gx[row * d..(row + 1) * d].copy_from_slice(g.data());
                add_grad(node.parents[0], Tensor::new(vec![n, d], gx));
            }
            Op::Reshape { parent_shape } => {
                add_grad(node.parents[0], g.reshaped(parent_shape.clone()));
            }
            Op::Sum => {
                let parent = &self.nodes[node.parents[0]].value;
                add_grad(
                    node.parents[0],
                    Tensor::full(parent.shape().to_vec(), g.item()),
                );
            }
            Op::Mean => {
                let parent = &self.nodes[node.parents[0]].value;
                let scale = g.item() / parent.numel() as f32;
                add_grad(
                    node.parents[0],
                    Tensor::full(parent.shape().to_vec(), scale),
                );
            }
            Op::Dropout { mask } => {
                add_grad(node.parents[0], g.zip(mask, |gv, m| gv * m));
            }
            Op::EmbeddingRow { index } => {
                let table = &self.nodes[node.parents[0]].value;
                let (v, d) = (table.rows(), table.cols());
                let mut gt = vec![0.0f32; v * d];
                gt[index * d..(index + 1) * d].copy_from_slice(g.data());
                add_grad(node.parents[0], Tensor::new(vec![v, d], gt));
            }
            Op::SoftmaxCe1d { target, probs } => {
                let scale = g.item();
                let mut gl: Vec<f32> = probs.data().to_vec();
                gl[*target] -= 1.0;
                for x in &mut gl {
                    *x *= scale;
                }
                add_grad(node.parents[0], Tensor::vector(&gl));
            }
            Op::Conv2d { pad } => {
                let input = &self.nodes[node.parents[0]].value;
                let kernel = &self.nodes[node.parents[1]].value;
                let (ci, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
                let (co, _, kh, kw) = (
                    kernel.shape()[0],
                    kernel.shape()[1],
                    kernel.shape()[2],
                    kernel.shape()[3],
                );
                let (oh, ow) = (node.value.shape()[1], node.value.shape()[2]);
                let pad = *pad;
                let mut gi = vec![0.0f32; ci * h * w];
                let mut gk = vec![0.0f32; co * ci * kh * kw];
                let mut gb = vec![0.0f32; co];
                for c_out in 0..co {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let gv = g.data()[c_out * oh * ow + oy * ow + ox];
                            // lint: allow(L5, sparsity fast path; skipping exact zeros only avoids work)
                            if gv == 0.0 {
                                continue;
                            }
                            gb[c_out] += gv;
                            for c_in in 0..ci {
                                for ky in 0..kh {
                                    let iy = oy + ky;
                                    if iy < pad || iy - pad >= h {
                                        continue;
                                    }
                                    for kx in 0..kw {
                                        let ix = ox + kx;
                                        if ix < pad || ix - pad >= w {
                                            continue;
                                        }
                                        let ii = c_in * h * w + (iy - pad) * w + (ix - pad);
                                        let ki = ((c_out * ci + c_in) * kh + ky) * kw + kx;
                                        gi[ii] += gv * kernel.data()[ki];
                                        gk[ki] += gv * input.data()[ii];
                                    }
                                }
                            }
                        }
                    }
                }
                add_grad(node.parents[0], Tensor::new(vec![ci, h, w], gi));
                add_grad(node.parents[1], Tensor::new(vec![co, ci, kh, kw], gk));
                add_grad(node.parents[2], Tensor::vector(&gb));
            }
        }
    }
}
