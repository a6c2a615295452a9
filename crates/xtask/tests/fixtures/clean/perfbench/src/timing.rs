//! Passing fixture: the standalone benchmark package times runs on the
//! wall clock on purpose and falls under the exempt `bench` policy.

use std::time::Instant;

pub fn seconds_since(start: Instant) -> f64 {
    Instant::now().duration_since(start).as_secs_f64()
}
