//! A small logistic-regression classifier.
//!
//! Shared learning machinery for the supervised baselines: the Ditto/PromptEM
//! stand-in trains it on labelled pairs, ALMSER-GB retrains it inside its
//! active-learning loop. Gradient descent with L2 regularisation; features are
//! standardised internally so callers can feed raw similarity features.

/// Logistic regression trained by batch gradient descent.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
    feature_means: Vec<f64>,
    feature_stds: Vec<f64>,
    learning_rate: f64,
    epochs: usize,
    l2: f64,
}

impl LogisticRegression {
    /// Create an untrained model for `num_features` inputs.
    pub fn new(num_features: usize) -> Self {
        Self {
            weights: vec![0.0; num_features],
            bias: 0.0,
            feature_means: vec![0.0; num_features],
            feature_stds: vec![1.0; num_features],
            learning_rate: 0.5,
            epochs: 300,
            l2: 1e-4,
        }
    }

    /// Number of input features.
    pub fn num_features(&self) -> usize {
        self.weights.len()
    }

    fn standardize(&self, features: &[f64]) -> Vec<f64> {
        features
            .iter()
            .zip(self.feature_means.iter().zip(&self.feature_stds))
            .map(|(x, (m, s))| (x - m) / s)
            .collect()
    }

    /// Fit the model on `(features, label)` examples. Returns `false` when the
    /// training set is degenerate (empty or single-class) — the model then
    /// falls back to predicting the majority class probability.
    pub fn fit(&mut self, examples: &[(Vec<f64>, bool)]) -> bool {
        if examples.is_empty() {
            return false;
        }
        let d = self.num_features();
        // Standardise features.
        let n = examples.len() as f64;
        let mut means = vec![0.0; d];
        for (x, _) in examples {
            for (m, xi) in means.iter_mut().zip(x) {
                *m += xi / n;
            }
        }
        let mut stds = vec![0.0; d];
        for (x, _) in examples {
            for ((s, xi), m) in stds.iter_mut().zip(x).zip(&means) {
                *s += (xi - m).powi(2) / n;
            }
        }
        for s in stds.iter_mut() {
            *s = s.sqrt().max(1e-6);
        }
        self.feature_means = means;
        self.feature_stds = stds;

        let positives = examples.iter().filter(|(_, y)| *y).count();
        if positives == 0 || positives == examples.len() {
            // Single-class data: encode the prior in the bias only.
            let p = (positives as f64 + 0.5) / (examples.len() as f64 + 1.0);
            self.bias = (p / (1.0 - p)).ln();
            self.weights = vec![0.0; d];
            return false;
        }

        let standardized: Vec<(Vec<f64>, f64)> = examples
            .iter()
            .map(|(x, y)| (self.standardize(x), if *y { 1.0 } else { 0.0 }))
            .collect();

        for _ in 0..self.epochs {
            let mut grad_w = vec![0.0; d];
            let mut grad_b = 0.0;
            for (x, y) in &standardized {
                let z = self.bias
                    + self
                        .weights
                        .iter()
                        .zip(x)
                        .map(|(w, xi)| w * xi)
                        .sum::<f64>();
                let p = 1.0 / (1.0 + (-z).exp());
                let err = p - y;
                for (g, xi) in grad_w.iter_mut().zip(x) {
                    *g += err * xi / n;
                }
                grad_b += err / n;
            }
            for (w, g) in self.weights.iter_mut().zip(&grad_w) {
                *w -= self.learning_rate * (g + self.l2 * *w);
            }
            self.bias -= self.learning_rate * grad_b;
        }
        true
    }

    /// Predicted probability that the example is a match.
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        let x = self.standardize(features);
        let z = self.bias
            + self
                .weights
                .iter()
                .zip(&x)
                .map(|(w, xi)| w * xi)
                .sum::<f64>();
        1.0 / (1.0 + (-z).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linearly_separable() -> Vec<(Vec<f64>, bool)> {
        let mut out = Vec::new();
        for i in 0..50 {
            let x = i as f64 / 50.0;
            out.push((vec![x, 1.0 - x], x > 0.5));
        }
        out
    }

    #[test]
    fn learns_a_separable_problem() {
        let mut lr = LogisticRegression::new(2);
        assert!(lr.fit(&linearly_separable()));
        assert!(lr.predict_proba(&[0.95, 0.05]) > 0.8);
        assert!(lr.predict_proba(&[0.05, 0.95]) < 0.2);
    }

    #[test]
    fn probability_is_monotone_in_informative_feature() {
        let mut lr = LogisticRegression::new(2);
        lr.fit(&linearly_separable());
        let p1 = lr.predict_proba(&[0.2, 0.8]);
        let p2 = lr.predict_proba(&[0.6, 0.4]);
        let p3 = lr.predict_proba(&[0.9, 0.1]);
        assert!(p1 < p2 && p2 < p3);
    }

    #[test]
    fn degenerate_training_sets() {
        let mut lr = LogisticRegression::new(1);
        assert!(!lr.fit(&[]));
        // All-positive training data: predicts high probability everywhere.
        let mut lr = LogisticRegression::new(1);
        let all_pos: Vec<(Vec<f64>, bool)> = (0..10).map(|i| (vec![i as f64], true)).collect();
        assert!(!lr.fit(&all_pos));
        assert!(lr.predict_proba(&[3.0]) > 0.5);
        // All-negative.
        let mut lr = LogisticRegression::new(1);
        let all_neg: Vec<(Vec<f64>, bool)> = (0..10).map(|i| (vec![i as f64], false)).collect();
        assert!(!lr.fit(&all_neg));
        assert!(lr.predict_proba(&[3.0]) < 0.5);
    }

    #[test]
    fn handles_constant_features() {
        let mut lr = LogisticRegression::new(2);
        let data: Vec<(Vec<f64>, bool)> = (0..40)
            .map(|i| (vec![i as f64 / 40.0, 7.0], i >= 20))
            .collect();
        assert!(lr.fit(&data));
        assert!(lr.predict_proba(&[0.95, 7.0]) > 0.5);
        assert!(lr.predict_proba(&[0.05, 7.0]) < 0.5);
    }
}
