//! Finite-difference validation of every autograd op and composed layer.

use dlinfma_nn::gradcheck::check_gradients;
use dlinfma_nn::layers::{
    Activation, Conv2d, Dense, Embedding, LayerNorm, Lstm, MultiHeadSelfAttention,
    TransformerEncoder,
};
use dlinfma_nn::{Graph, ParamStore, Tensor, Var};
use rand::{rngs::StdRng, SeedableRng};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Runs a check and asserts it passes.
fn assert_grads(
    store: &mut ParamStore,
    params: &[dlinfma_nn::ParamId],
    f: &mut dyn FnMut(&mut Graph, &ParamStore) -> Var,
) {
    let report = check_gradients(store, params, EPS, f);
    assert!(
        report.passes(TOL),
        "gradient check failed: abs {} rel {}",
        report.max_abs_err,
        report.max_rel_err
    );
}

#[test]
fn grad_add_sub_mul_scale() {
    let mut store = ParamStore::new();
    let a = store.register("a", Tensor::vector(&[0.3, -0.7, 1.1]));
    let b = store.register("b", Tensor::vector(&[0.9, 0.2, -0.4]));
    assert_grads(&mut store, &[a, b], &mut |g, s| {
        let av = g.param(a, s.value(a).clone());
        let bv = g.param(b, s.value(b).clone());
        let x = g.add(av, bv);
        let y = g.sub(x, bv);
        let z = g.mul(y, av);
        let z = g.scale(z, 1.7);
        g.sum(z)
    });
}

#[test]
fn grad_matmul_transpose() {
    let mut store = ParamStore::new();
    let mut r = rng(1);
    let a = store.register("a", Tensor::randn(vec![3, 4], 0.5, &mut r));
    let b = store.register("b", Tensor::randn(vec![4, 2], 0.5, &mut r));
    assert_grads(&mut store, &[a, b], &mut |g, s| {
        let av = g.param(a, s.value(a).clone());
        let bv = g.param(b, s.value(b).clone());
        let c = g.matmul(av, bv);
        let ct = g.transpose(c);
        let d = g.matmul(ct, av); // [2,3] x [3,4]
        g.sum(d)
    });
}

#[test]
fn grad_activations() {
    let mut store = ParamStore::new();
    let a = store.register("a", Tensor::vector(&[0.5, -0.3, 1.2, -2.0]));
    assert_grads(&mut store, &[a], &mut |g, s| {
        let av = g.param(a, s.value(a).clone());
        let t = g.tanh(av);
        let sgm = g.sigmoid(t);
        // ReLU has a kink at 0; inputs here are away from it after sigmoid.
        let r = g.relu(sgm);
        g.sum(r)
    });
}

#[test]
fn grad_add_bias_rows() {
    let mut store = ParamStore::new();
    let mut r = rng(2);
    let x = store.register("x", Tensor::randn(vec![4, 3], 0.5, &mut r));
    let b = store.register("b", Tensor::randn(vec![3], 0.5, &mut r));
    assert_grads(&mut store, &[x, b], &mut |g, s| {
        let xv = g.param(x, s.value(x).clone());
        let bv = g.param(b, s.value(b).clone());
        let y = g.add_bias_rows(xv, bv);
        let y = g.tanh(y);
        g.sum(y)
    });
}

#[test]
fn grad_softmax_rows() {
    let mut store = ParamStore::new();
    let mut r = rng(3);
    let x = store.register("x", Tensor::randn(vec![3, 5], 1.0, &mut r));
    let w = store.register("w", Tensor::randn(vec![3, 5], 1.0, &mut r));
    assert_grads(&mut store, &[x, w], &mut |g, s| {
        let xv = g.param(x, s.value(x).clone());
        let wv = g.param(w, s.value(w).clone());
        let sm = g.softmax_rows(xv);
        // Weighted sum so the gradient is non-trivial per element.
        let y = g.mul(sm, wv);
        g.sum(y)
    });
}

#[test]
fn grad_layer_norm() {
    let mut store = ParamStore::new();
    let mut r = rng(4);
    let x = store.register("x", Tensor::randn(vec![3, 6], 1.0, &mut r));
    let gamma = store.register("gamma", Tensor::randn(vec![6], 0.3, &mut r));
    let beta = store.register("beta", Tensor::randn(vec![6], 0.3, &mut r));
    let w = store.register("w", Tensor::randn(vec![3, 6], 1.0, &mut r));
    assert_grads(&mut store, &[x, gamma, beta], &mut |g, s| {
        let xv = g.param(x, s.value(x).clone());
        let gv = g.param(gamma, s.value(gamma).clone());
        let bv = g.param(beta, s.value(beta).clone());
        let wv = g.param(w, s.value(w).clone());
        let y = g.layer_norm(xv, gv, bv);
        let y = g.mul(y, wv);
        g.sum(y)
    });
}

#[test]
fn grad_slicing_and_concat() {
    let mut store = ParamStore::new();
    let mut r = rng(5);
    let x = store.register("x", Tensor::randn(vec![4, 6], 0.7, &mut r));
    assert_grads(&mut store, &[x], &mut |g, s| {
        let xv = g.param(x, s.value(x).clone());
        let left = g.col_slice(xv, 0, 3);
        let right = g.col_slice(xv, 3, 6);
        let prod = g.mul(left, right);
        let cat = g.concat_cols(&[prod, left]);
        let row = g.row_slice(cat, 2);
        let flat = g.reshape(row, vec![6]);
        let again = g.concat1d(&[flat, flat]);
        let t = g.tanh(again);
        g.sum(t)
    });
}

#[test]
fn grad_stack_rows() {
    let mut store = ParamStore::new();
    let mut r = rng(6);
    let a = store.register("a", Tensor::randn(vec![4], 0.7, &mut r));
    let b = store.register("b", Tensor::randn(vec![4], 0.7, &mut r));
    assert_grads(&mut store, &[a, b], &mut |g, s| {
        let av = g.param(a, s.value(a).clone());
        let bv = g.param(b, s.value(b).clone());
        let m = g.stack_rows(&[av, bv, av]);
        let sm = g.softmax_rows(m);
        let y = g.mul(sm, m);
        g.mean(y)
    });
}

#[test]
fn grad_embedding() {
    let mut store = ParamStore::new();
    let mut r = rng(7);
    let table = store.register("emb", Tensor::randn(vec![5, 3], 0.5, &mut r));
    assert_grads(&mut store, &[table], &mut |g, s| {
        let tv = g.param(table, s.value(table).clone());
        let e1 = g.embedding_row(tv, 2);
        let e2 = g.embedding_row(tv, 4);
        let cat = g.concat1d(&[e1, e2]);
        let t = g.tanh(cat);
        g.sum(t)
    });
}

#[test]
fn grad_softmax_cross_entropy() {
    let mut store = ParamStore::new();
    let mut r = rng(8);
    let x = store.register("x", Tensor::randn(vec![7], 1.0, &mut r));
    assert_grads(&mut store, &[x], &mut |g, s| {
        let xv = g.param(x, s.value(x).clone());
        g.softmax_cross_entropy_1d(xv, 3)
    });
}

#[test]
fn grad_conv2d() {
    let mut store = ParamStore::new();
    let mut r = rng(9);
    let x = store.register("x", Tensor::randn(vec![2, 5, 5], 0.5, &mut r));
    let k = store.register("k", Tensor::randn(vec![3, 2, 3, 3], 0.5, &mut r));
    let b = store.register("b", Tensor::randn(vec![3], 0.5, &mut r));
    assert_grads(&mut store, &[x, k, b], &mut |g, s| {
        let xv = g.param(x, s.value(x).clone());
        let kv = g.param(k, s.value(k).clone());
        let bv = g.param(b, s.value(b).clone());
        let y = g.conv2d(xv, kv, bv, 1);
        let t = g.tanh(y);
        g.sum(t)
    });
}

#[test]
fn grad_dense_layer() {
    let mut store = ParamStore::new();
    let mut r = rng(10);
    let layer = Dense::new(&mut store, "fc", 5, 3, Activation::Tanh, &mut r);
    let params: Vec<_> = (0..store.len()).map(dlinfma_nn::ParamId).collect();
    let input = Tensor::randn(vec![4, 5], 0.7, &mut r);
    assert_grads(&mut store, &params, &mut |g, s| {
        let x = g.constant(input.clone());
        let y = layer.forward(g, s, x);
        g.sum(y)
    });
}

#[test]
fn grad_layernorm_layer() {
    let mut store = ParamStore::new();
    let mut r = rng(11);
    let ln = LayerNorm::new(&mut store, "ln", 4);
    let params: Vec<_> = (0..store.len()).map(dlinfma_nn::ParamId).collect();
    let input = Tensor::randn(vec![3, 4], 1.0, &mut r);
    let weights = Tensor::randn(vec![3, 4], 1.0, &mut r);
    assert_grads(&mut store, &params, &mut |g, s| {
        let x = g.constant(input.clone());
        let w = g.constant(weights.clone());
        let y = ln.forward(g, s, x);
        let y = g.mul(y, w);
        g.sum(y)
    });
}

#[test]
fn grad_attention_layer() {
    let mut store = ParamStore::new();
    let mut r = rng(12);
    let attn = MultiHeadSelfAttention::new(&mut store, "mha", 8, 2, &mut r);
    let params: Vec<_> = (0..store.len()).map(dlinfma_nn::ParamId).collect();
    let input = Tensor::randn(vec![5, 8], 0.7, &mut r);
    assert_grads(&mut store, &params, &mut |g, s| {
        let x = g.constant(input.clone());
        let y = attn.forward(g, s, x);
        let t = g.tanh(y);
        g.sum(t)
    });
}

#[test]
fn grad_transformer_encoder() {
    let mut store = ParamStore::new();
    let mut r = rng(13);
    let enc = TransformerEncoder::new(&mut store, "enc", 2, 8, 2, 16, 0.0, &mut r);
    let params: Vec<_> = (0..store.len()).map(dlinfma_nn::ParamId).collect();
    let input = Tensor::randn(vec![4, 8], 0.5, &mut r);
    assert_grads(&mut store, &params, &mut |g, s| {
        let mut dummy = rng(99); // dropout disabled; rng unused deterministically
        let x = g.constant(input.clone());
        let y = enc.forward(g, s, x, false, &mut dummy);
        let t = g.tanh(y);
        g.sum(t)
    });
}

#[test]
fn grad_lstm() {
    let mut store = ParamStore::new();
    let mut r = rng(14);
    let lstm = Lstm::new(&mut store, "lstm", 3, 4, &mut r);
    let params: Vec<_> = (0..store.len()).map(dlinfma_nn::ParamId).collect();
    let input = Tensor::randn(vec![5, 3], 0.7, &mut r);
    assert_grads(&mut store, &params, &mut |g, s| {
        let x = g.constant(input.clone());
        let h = lstm.forward(g, s, x);
        let t = g.tanh(h);
        g.sum(t)
    });
}

#[test]
fn grad_embedding_layer() {
    let mut store = ParamStore::new();
    let mut r = rng(15);
    let emb = Embedding::new(&mut store, "emb", 6, 3, &mut r);
    let params: Vec<_> = (0..store.len()).map(dlinfma_nn::ParamId).collect();
    assert_grads(&mut store, &params, &mut |g, s| {
        let e = emb.forward(g, s, 4);
        let t = g.tanh(e);
        g.sum(t)
    });
}

#[test]
fn grad_conv_layer() {
    let mut store = ParamStore::new();
    let mut r = rng(16);
    let conv = Conv2d::new(&mut store, "conv", 1, 2, 3, 1, false, &mut r);
    let params: Vec<_> = (0..store.len()).map(dlinfma_nn::ParamId).collect();
    let input = Tensor::randn(vec![1, 6, 6], 0.5, &mut r);
    assert_grads(&mut store, &params, &mut |g, s| {
        let x = g.constant(input.clone());
        let y = conv.forward(g, s, x);
        let t = g.tanh(y);
        g.sum(t)
    });
}
