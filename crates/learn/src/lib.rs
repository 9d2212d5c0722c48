//! Classic ML utilities reimplemented from scratch (the scikit-learn
//! substitute): KMeans clustering for Algorithm 1, the Box-Cox /
//! Yeo-Johnson / quantile label transforms of §5.4, exact t-SNE for the
//! latent-space visualizations (Figs 8, 11, 16), and the evaluation metrics
//! reported throughout §7.

pub mod kmeans;
pub mod metrics;
pub mod stats;
pub mod transform;
pub mod tsne;

pub use kmeans::{kmeans, KMeansResult};
pub use metrics::{accuracy_within, kendall_tau, mape, rmse, spearman};
pub use transform::{BoxCox, FittedTransform, LabelTransform, Quantile, TransformKind, YeoJohnson};
pub use tsne::tsne;
