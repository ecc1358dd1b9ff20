//! The four workloads. Each stresses different layers; for every
//! layer optimisation one of them exercises the mechanism and another
//! bypasses it (see the README's interaction table).

pub(crate) mod chaos;
pub(crate) mod pipeline;
pub(crate) mod serve;

use std::sync::Arc;
use std::time::Duration;
use xai_accel::{Accelerator, TpuAccel};
use xai_tpu::DevicePool;

/// A batching accelerator over `pool` with no coalescing window, kept
/// concrete so the pool's counters stay reachable.
fn over_pool(pool: DevicePool) -> Arc<TpuAccel> {
    Arc::new(TpuAccel::over_pool(pool, Duration::ZERO, 256))
}

/// [`over_pool`] on `chips` chips of one configuration.
fn pooled(chip: xai_tpu::TpuConfig, chips: usize) -> Arc<TpuAccel> {
    over_pool(DevicePool::new(chip, chips))
}

fn as_dyn(acc: &Arc<TpuAccel>) -> Arc<dyn Accelerator> {
    Arc::<TpuAccel>::clone(acc)
}
