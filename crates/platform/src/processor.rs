//! Processor types: Table 1 of the paper.

use crate::Power;

/// A processor *type*: normalized speed plus idle/working power demand.
///
/// Table 1 orders types from slowest/least-consuming (`PT1`) to
/// fastest/most-consuming (`PT6`); the general trend "faster processors
/// consume more power" is deliberate (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessorType {
    /// Display name, e.g. `"PT3"`.
    pub name: &'static str,
    /// Normalized speed; the running time of a task with weight `w` is
    /// `ceil(w · REFERENCE_SPEED / speed)` (see [`exec_time`]).
    pub speed: u64,
    /// Idle power `P_idle`, consumed during every time unit.
    pub p_idle: Power,
    /// Working power `P_work`, added while the processor executes a task.
    pub p_work: Power,
}

/// The six processor types of Table 1.
pub const PAPER_PROCESSOR_TYPES: [ProcessorType; 6] = [
    ProcessorType {
        name: "PT1",
        speed: 4,
        p_idle: 40,
        p_work: 10,
    },
    ProcessorType {
        name: "PT2",
        speed: 6,
        p_idle: 60,
        p_work: 30,
    },
    ProcessorType {
        name: "PT3",
        speed: 8,
        p_idle: 80,
        p_work: 40,
    },
    ProcessorType {
        name: "PT4",
        speed: 12,
        p_idle: 120,
        p_work: 50,
    },
    ProcessorType {
        name: "PT5",
        speed: 16,
        p_idle: 150,
        p_work: 70,
    },
    ProcessorType {
        name: "PT6",
        speed: 32,
        p_idle: 200,
        p_work: 100,
    },
];

/// Reference speed used to turn normalized weights into integer running
/// times: a processor of speed `REFERENCE_SPEED` executes a weight-`w`
/// task in exactly `w` time units.
pub const REFERENCE_SPEED: u64 = 8;

/// Integer running time of a task with normalized weight `w` on a
/// processor with normalized speed `speed` (always ≥ 1). Computed
/// without overflow; a time too large for `u64` saturates at
/// `u64::MAX`.
pub fn exec_time(w: u64, speed: u64) -> u64 {
    debug_assert!(speed > 0);
    match w.checked_mul(REFERENCE_SPEED) {
        Some(work) => work.div_ceil(speed).max(1),
        None => wide_exec_time(w, speed),
    }
}

/// [`exec_time`] of a weight above `u64::MAX / REFERENCE_SPEED`, in 128
/// bits. Kept out of line: HEFT calls `exec_time` for every task and
/// processor, and no parsed weight comes near this.
#[cold]
fn wide_exec_time(w: u64, speed: u64) -> u64 {
    let t = (u128::from(w) * u128::from(REFERENCE_SPEED)).div_ceil(u128::from(speed));
    u64::try_from(t).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        assert_eq!(PAPER_PROCESSOR_TYPES.len(), 6);
        let pt1 = PAPER_PROCESSOR_TYPES[0];
        assert_eq!((pt1.speed, pt1.p_idle, pt1.p_work), (4, 40, 10));
        let pt6 = PAPER_PROCESSOR_TYPES[5];
        assert_eq!((pt6.speed, pt6.p_idle, pt6.p_work), (32, 200, 100));
    }

    #[test]
    fn speeds_and_power_are_monotone() {
        for w in PAPER_PROCESSOR_TYPES.windows(2) {
            assert!(w[0].speed < w[1].speed);
            assert!(w[0].p_idle < w[1].p_idle);
            assert!(w[0].p_work < w[1].p_work);
        }
    }

    #[test]
    fn exec_time_scales_inversely_with_speed() {
        // Reference speed executes weight verbatim.
        assert_eq!(exec_time(100, REFERENCE_SPEED), 100);
        // Half speed doubles it, quadruple speed quarters it.
        assert_eq!(exec_time(100, 4), 200);
        assert_eq!(exec_time(100, 32), 25);
        // Rounds up.
        assert_eq!(exec_time(3, 32), 1);
        assert_eq!(exec_time(5, 32), 2);
    }

    #[test]
    fn exec_time_does_not_wrap() {
        // 2^62 · 8 overflows u64; the time is still exact.
        assert_eq!(exec_time(1 << 62, REFERENCE_SPEED), 1 << 62);
        assert_eq!(exec_time(1 << 62, 32), 1 << 60);
        assert_eq!(exec_time(u64::MAX, 16), u64::MAX.div_ceil(2));
        assert_eq!(exec_time(u64::MAX, 4), u64::MAX);
    }

    #[test]
    fn exec_time_is_at_least_one() {
        assert_eq!(exec_time(1, 32), 1);
    }

    #[test]
    fn exec_time_monotone_in_weight() {
        for speed in [4u64, 6, 8, 12, 16, 32] {
            let mut prev = 0;
            for w in 1..200 {
                let t = exec_time(w, speed);
                assert!(t >= prev);
                prev = t;
            }
        }
    }
}
