//! Layer implementations.

mod activation;
mod conv;
mod dense;
mod residual;

pub use activation::{MaxPool2, Relu};
pub use conv::Conv2d;
pub use dense::Dense;
pub use residual::Residual;
