//! The log-scaled homomorphism-vector kernel, as a [`GraphKernel`]. The
//! kernel of eq. (4.1) itself is [`HomBasis::kernel`].

use x2v_core::GraphKernel;
use x2v_graph::Graph;
use x2v_hom::vectors::HomBasis;

/// The *log-scaled* hom-vector kernel: the dot product of the practical
/// embedding `(1/|F|) log(1 + hom(F, ·))` — what one actually feeds an SVM.
pub struct LogHomKernel {
    basis: HomBasis,
}

impl LogHomKernel {
    /// Over an explicit basis.
    pub fn new(basis: HomBasis) -> Self {
        LogHomKernel { basis }
    }

    /// The paper's trees-and-cycles class of size `count`.
    pub fn trees_and_cycles(count: usize) -> Self {
        LogHomKernel {
            basis: HomBasis::trees_and_cycles(count),
        }
    }
}

impl GraphKernel for LogHomKernel {
    fn eval(&self, g: &Graph, h: &Graph) -> f64 {
        x2v_linalg::vector::dot(&self.basis.embed_log(g), &self.basis.embed_log(h))
    }

    /// Embeds every graph once; entries are dots of the embeddings.
    fn entries<'a>(
        &'a self,
        graphs: &'a [Graph],
    ) -> Box<dyn Fn(usize, usize) -> f64 + Send + Sync + 'a> {
        let embeds: Vec<Vec<f64>> = graphs.iter().map(|g| self.basis.embed_log(g)).collect();
        Box::new(move |i, j| x2v_linalg::vector::dot(&embeds[i], &embeds[j]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::is_psd;
    use x2v_graph::generators::{cycle, path, petersen, star};
    use x2v_linalg::Matrix;

    #[test]
    fn hom_kernel_psd() {
        let basis = HomBasis::trees_and_cycles(10);
        let graphs = [cycle(5), path(5), star(4), petersen()];
        let mut gram = Matrix::zeros(graphs.len(), graphs.len());
        for (i, g) in graphs.iter().enumerate() {
            for (j, h) in graphs.iter().enumerate() {
                gram[(i, j)] = basis.kernel(g, h);
            }
        }
        assert!(is_psd(&gram, 1e-6));
    }

    #[test]
    fn log_kernel_psd_and_batch_consistent() {
        let k = LogHomKernel::trees_and_cycles(12);
        let graphs = vec![cycle(5), path(6), star(4)];
        let gram = k.gram(&graphs);
        assert!(is_psd(&gram, 1e-9));
        for i in 0..graphs.len() {
            for j in 0..graphs.len() {
                assert_eq!(
                    gram[(i, j)].to_bits(),
                    k.eval(&graphs[i], &graphs[j]).to_bits()
                );
            }
        }
    }

    #[test]
    fn separates_cycles_from_trees() {
        let k = LogHomKernel::trees_and_cycles(10);
        let kc = k.eval(&cycle(6), &cycle(6));
        let cross = k.eval(&cycle(6), &path(6));
        assert!(kc > cross);
    }
}
