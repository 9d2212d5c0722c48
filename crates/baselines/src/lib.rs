//! Reimplemented baselines the paper compares against (§7.1):
//!
//! * [`gbt`]: XGBoost-style gradient-boosted trees on flattened features
//!   (the AutoTVM/Ansor cost model).
//! * [`tiramisu`]: recursive LSTM over the raw AST, batch-bound by AST
//!   structure, trained with MAPE (Baghdadi et al.).
//! * [`habitat`]: per-op-class MLPs with roofline cross-device scaling
//!   (Yu et al.).
//! * [`tlp`]: schedule-primitive features, shared trunk + per-device
//!   heads, relative-time labels (Zhai et al.).

pub mod gbt;
pub mod habitat;
pub mod mlpreg;
pub mod tiramisu;
pub mod tlp;

pub use gbt::{GbtConfig, GbtRegressor};
pub use habitat::HabitatModel;
pub use mlpreg::{MlpRegConfig, MlpRegressor};
pub use tiramisu::{TiramisuConfig, TiramisuModel};
pub use tlp::{TlpConfig, TlpModel, TlpSample};

use nn::{clip_and_step, Adam, Graph, ParamStore, Var};

/// One optimizer step of a taped baseline on the loss `fit` built on `g`:
/// zero the gradients, backpropagate, write the parameter gradients, clip
/// at 5 and step. Returns the loss. Building the loss reads only weights,
/// so zeroing here equals zeroing first. A closure in place of `g` would
/// borrow the model (Tiramisu's `forward`) while `store` is borrowed mutably.
fn tape_step(store: &mut ParamStore, opt: &mut Adam, mut g: Graph, loss: Var) -> f32 {
    store.zero_grad();
    if g.backward(loss).is_ok() {
        let _ = g.write_param_grads(store);
        clip_and_step(store, opt, 5.0);
    }
    g.value(loss).item()
}
