//! An independent reference for the paper's three models, written from
//! its equations over the graph's edge list. It shares no code with the
//! program's builders or kernels: only the dense product
//! `gsuite_tensor::ops::gemm_naive` and the seeded `ModelWeights`.
//!
//! Conventions (the paper's, §II-C): `A` is the simple-graph adjacency of
//! the edge list (parallel edges collapse, messages flow `src → dst`, so
//! node `v` aggregates over its in-neighbours `N(v)`); `Â = A + I`.
//!
//! * GCN (Eqs. 1–2): `H' = σ(D^-½ Â^T D^-½ · H · W)`, `d_v = 1 + |N(v)|`.
//! * GIN (Eqs. 3–4): `H' = σ(MLP((1 + ε)·h_v + Σ_{u∈N(v)} h_u))` with the
//!   two-layer MLP `relu(· W1) · W2` and GIN-0's `ε = 0`.
//! * GraphSAGE (Eq. 5): `H' = σ(H · W1 + mean_{u∈N(v)∪{v}}(h_u) · W2)`.
//!
//! `σ` is ReLU between layers and the identity after the last one.

use gsuite_core::config::GnnModel;
use gsuite_core::models::ModelWeights;
use gsuite_graph::Graph;
use gsuite_tensor::ops::gemm_naive;
use gsuite_tensor::DenseMatrix;

/// GIN's ε (GIN-0).
const GIN_EPS: f32 = 0.0;

/// In-neighbour lists of the simple graph, without self-loops.
fn in_neighbours(graph: &Graph) -> Vec<Vec<u32>> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); graph.num_nodes()];
    for (src, dst) in graph.edges().iter() {
        if src != dst {
            adj[dst as usize].push(src);
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// `out[v] = self_w(v)·h[v] + Σ_{u∈N(v)} w(u, v)·h[u]`.
fn aggregate(
    h: &DenseMatrix,
    adj: &[Vec<u32>],
    self_w: impl Fn(usize) -> f32,
    w: impl Fn(usize, usize) -> f32,
) -> DenseMatrix {
    let cols = h.cols();
    let mut out = DenseMatrix::zeros(h.rows(), cols);
    for (v, nbrs) in adj.iter().enumerate() {
        let row = out.row_mut(v);
        let sw = self_w(v);
        for (o, x) in row.iter_mut().zip(h.row(v)) {
            *o = sw * x;
        }
        for &u in nbrs {
            let wu = w(u as usize, v);
            for (o, x) in row.iter_mut().zip(h.row(u as usize)) {
                *o += wu * x;
            }
        }
    }
    out
}

fn gemm(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    gemm_naive(a, b).expect("reference shapes agree by construction")
}

/// The model's inference output on `graph` with `weights`.
///
/// # Panics
///
/// On models outside the paper's trio, and on weights whose shapes do not
/// chain from the graph's feature width.
pub fn infer(model: GnnModel, graph: &Graph, weights: &ModelWeights) -> DenseMatrix {
    let adj = in_neighbours(graph);
    let deg: Vec<f32> = adj.iter().map(|n| 1.0 + n.len() as f32).collect();
    let mut h = graph.features().clone();
    let layers = weights.layers.len();
    for (l, lw) in weights.layers.iter().enumerate() {
        let mut out = match model {
            GnnModel::Gcn => {
                let norm = aggregate(
                    &h,
                    &adj,
                    |v| 1.0 / deg[v],
                    |u, v| 1.0 / (deg[u] * deg[v]).sqrt(),
                );
                gemm(&norm, &lw.w1)
            }
            GnnModel::Gin => {
                let agg = aggregate(&h, &adj, |_| 1.0 + GIN_EPS, |_, _| 1.0);
                let w2 = lw
                    .w2
                    .as_ref()
                    .expect("GIN weights carry the MLP's second layer");
                gemm(&gemm(&agg, &lw.w1).relu(), w2)
            }
            GnnModel::Sage => {
                let mean = aggregate(&h, &adj, |v| 1.0 / deg[v], |_, v| 1.0 / deg[v]);
                let w2 = lw
                    .w2
                    .as_ref()
                    .expect("SAGE weights carry the neighbour weight");
                gemm(&h, &lw.w1)
                    .add(&gemm(&mean, w2))
                    .expect("both terms are nodes x hidden")
            }
            other => panic!("no reference for {other:?}"),
        };
        if l + 1 < layers {
            out = out.relu();
        }
        h = out;
    }
    h
}

/// The tolerance the benchmark holds every functional output to:
/// `max |out − ref| ≤ 1e-3 · max(1, max |ref|)`. Float sums in another
/// order stay orders of magnitude inside it; a wrong term does not.
pub fn within_tolerance(out: &DenseMatrix, reference: &DenseMatrix) -> Result<(), String> {
    if out.shape() != reference.shape() {
        return Err(format!(
            "shape {:?} differs from the reference's {:?}",
            out.shape(),
            reference.shape()
        ));
    }
    let scale = reference
        .as_slice()
        .iter()
        .fold(1.0f32, |m, v| m.max(v.abs()));
    let diff = out
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
    if diff.is_finite() && diff <= 1e-3 * scale {
        Ok(())
    } else {
        Err(format!(
            "max |out - ref| = {diff:e} exceeds 1e-3 * {scale:e}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsuite_core::models::LayerWeights;
    use gsuite_graph::EdgeList;

    /// 0 → 1, 0 → 2, 1 → 2 plus a parallel 0 → 2; one feature `x = [1, 2, 3]`.
    fn path_graph() -> Graph {
        let edges = EdgeList::from_pairs(3, &[(0, 1), (0, 2), (1, 2), (0, 2)]).unwrap();
        Graph::new(edges, DenseMatrix::from_fn(3, 1, |r, _| (r + 1) as f32)).unwrap()
    }

    fn scalar_weights(w1: f32, w2: Option<f32>) -> ModelWeights {
        ModelWeights {
            layers: vec![LayerWeights {
                w1: DenseMatrix::filled(1, 1, w1),
                w2: w2.map(|w| DenseMatrix::filled(1, 1, w)),
            }],
        }
    }

    fn column(m: &DenseMatrix) -> Vec<f32> {
        (0..m.rows()).map(|r| m.get(r, 0)).collect()
    }

    fn assert_close(got: &[f32], want: &[f32]) {
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-6, "got {got:?}, want {want:?}");
        }
    }

    #[test]
    fn gcn_by_hand() {
        // d = [1, 2, 3]. out_0 = 1/1; out_1 = 1/√2 + 2/2;
        // out_2 = 1/√3 + 2/√6 + 3/3.
        let out = infer(GnnModel::Gcn, &path_graph(), &scalar_weights(1.0, None));
        let want = [
            1.0,
            std::f32::consts::FRAC_1_SQRT_2 + 1.0,
            1.0 / 3f32.sqrt() + 2.0 / 6f32.sqrt() + 1.0,
        ];
        assert_close(&column(&out), &want);
    }

    #[test]
    fn gin_by_hand() {
        // h + Σ in-neighbours = [1, 1 + 2, 1 + 2 + 3]; MLP with unit weights.
        let out = infer(
            GnnModel::Gin,
            &path_graph(),
            &scalar_weights(1.0, Some(1.0)),
        );
        assert_close(&column(&out), &[1.0, 3.0, 6.0]);
    }

    #[test]
    fn sage_by_hand() {
        // mean over N(v) ∪ {v} = [1, 1.5, 2]; out = 1·x + 2·mean.
        let out = infer(
            GnnModel::Sage,
            &path_graph(),
            &scalar_weights(1.0, Some(2.0)),
        );
        assert_close(&column(&out), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn relu_between_layers_only() {
        // Two GCN layers with weight -1: the first output is negative and
        // clamped to 0, so the second layer sees zeros.
        let mut w = scalar_weights(-1.0, None);
        w.layers.push(w.layers[0].clone());
        let out = infer(GnnModel::Gcn, &path_graph(), &w);
        assert_close(&column(&out), &[0.0, 0.0, 0.0]);
        // One layer keeps the sign: no activation after the last layer.
        let one = infer(GnnModel::Gcn, &path_graph(), &scalar_weights(-1.0, None));
        assert!(column(&one).iter().all(|v| *v < 0.0));
    }

    #[test]
    fn tolerance_rejects_a_wrong_term() {
        let reference = DenseMatrix::filled(2, 2, 10.0);
        assert!(within_tolerance(&reference.clone(), &reference).is_ok());
        let mut off = reference.clone();
        off.set(1, 1, 10.5);
        assert!(within_tolerance(&off, &reference).is_err());
    }
}
