//! The training loss: softmax cross-entropy over integer class labels.

use fda_tensor::Matrix;

/// Numerically stable softmax over each row of `logits`, written in place.
fn softmax_rows(logits: &mut Matrix) {
    for r in 0..logits.rows() {
        let row = logits.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Softmax cross-entropy over integer class labels.
///
/// `forward` fuses softmax, mean NLL loss and its gradient (`(p − y)/B`) in
/// one pass — the textbook simplification that avoids materializing the
/// softmax Jacobian.
#[derive(Debug, Default, Clone, Copy)]
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Computes `(mean loss, dL/dlogits, #correct predictions)`.
    ///
    /// # Panics
    /// Panics if any label is out of range or batch sizes mismatch.
    pub fn forward(&self, logits: &Matrix, labels: &[usize]) -> (f32, Matrix, usize) {
        self.forward_owned(logits.clone(), labels)
    }

    /// [`SoftmaxCrossEntropy::forward`] taking the logits by value: the
    /// buffer is turned into the probabilities and then the gradient in
    /// place, so the training step allocates nothing here.
    pub fn forward_owned(&self, logits: Matrix, labels: &[usize]) -> (f32, Matrix, usize) {
        assert_eq!(logits.rows(), labels.len(), "loss: batch size mismatch");
        assert!(!labels.is_empty(), "loss: empty batch");
        let classes = logits.cols();
        let batch = logits.rows() as f32;
        let mut probs = logits;
        softmax_rows(&mut probs);
        let mut loss = 0.0f32;
        let mut correct = 0usize;
        for (r, &label) in labels.iter().enumerate() {
            assert!(
                label < classes,
                "loss: label {label} out of range {classes}"
            );
            let row = probs.row(r);
            // Clamp avoids -inf on (unlikely) exactly-zero probability.
            loss -= row[label].max(1e-12).ln();
            let pred = argmax(row);
            if pred == label {
                correct += 1;
            }
        }
        loss /= batch;
        // Gradient: (softmax − one_hot) / batch, reusing the probs buffer.
        let mut grad = probs;
        for (r, &label) in labels.iter().enumerate() {
            let row = grad.row_mut(r);
            row[label] -= 1.0;
            for v in row.iter_mut() {
                *v /= batch;
            }
        }
        (loss, grad, correct)
    }
}

/// Index of the maximum element (first on ties).
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        softmax_rows(&mut m);
        for r in 0..2 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(m.row(r).iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let mut m = Matrix::from_vec(1, 2, vec![1000.0, 1001.0]);
        softmax_rows(&mut m);
        assert!(m.as_slice().iter().all(|p| p.is_finite()));
        assert!((m.as_slice().iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn uniform_logits_give_ln_c_loss() {
        let logits = Matrix::zeros(4, 10);
        let labels = vec![0, 3, 7, 9];
        let (loss, _, _) = SoftmaxCrossEntropy.forward(&logits, &labels);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_prediction_low_loss_full_accuracy() {
        let mut logits = Matrix::zeros(2, 3);
        logits.set(0, 1, 50.0);
        logits.set(1, 2, 50.0);
        let (loss, _, correct) = SoftmaxCrossEntropy.forward(&logits, &[1, 2]);
        assert!(loss < 1e-4);
        assert_eq!(correct, 2);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        // Σ_c (p_c − y_c) = 1 − 1 = 0 per sample.
        let logits = Matrix::from_vec(2, 4, vec![0.3, -1.0, 2.0, 0.1, 1.0, 1.0, 1.0, 1.0]);
        let (_, grad, _) = SoftmaxCrossEntropy.forward(&logits, &[2, 0]);
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn ce_gradient_matches_finite_difference() {
        let logits = Matrix::from_vec(1, 3, vec![0.5, -0.2, 0.1]);
        let labels = [2usize];
        let (_, grad, _) = SoftmaxCrossEntropy.forward(&logits, &labels);
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let (loss_p, _, _) = SoftmaxCrossEntropy.forward(&lp, &labels);
            let (loss_m, _, _) = SoftmaxCrossEntropy.forward(&lm, &labels);
            let fd = (loss_p - loss_m) / (2.0 * eps);
            assert!(
                (fd - grad.as_slice()[i]).abs() < 1e-3,
                "component {i}: fd={fd} analytic={}",
                grad.as_slice()[i]
            );
        }
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
    }

    #[test]
    #[should_panic(expected = "label 5 out of range")]
    fn out_of_range_label_panics() {
        let logits = Matrix::zeros(1, 3);
        let _ = SoftmaxCrossEntropy.forward(&logits, &[5]);
    }
}
